import random
import string

from textmask.tokenizer import is_special_token, tokenize

CAPTION = (
    "Walk of the happy young couple and Siberian dog. "
    "The handsome man is hugging the smiling red head girl"
)


class TestTokenize:
    def test_caption_with_sentence_final_period(self):
        assert tokenize("Walk of the happy young couple and Siberian dog.") == [
            "walk", "of", "the", "happy", "young", "couple", "and", "siberian", "dog", ".",
        ]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_whitespace_collapse(self):
        assert tokenize("A  B") == ["a", "b"]

    def test_lowercasing(self):
        assert tokenize("SIBERIAN Dog") == ["siberian", "dog"]

    def test_punctuation_runs_are_single_tokens(self):
        assert tokenize("wait...") == ["wait", "..."]
        assert tokenize("a-b") == ["a", "-", "b"]
        assert tokenize('"quoted"') == ['"', "quoted", '"']

    def test_unicode_whitespace_and_punctuation(self):
        assert tokenize("café bar") == ["café", "bar"]  # NBSP splits
        assert tokenize("«les chiens»") == ["«", "les", "chiens", "»"]

    def test_full_caption(self):
        assert tokenize(CAPTION)[:6] == ["walk", "of", "the", "happy", "young", "couple"]
        assert len(tokenize(CAPTION)) == 20

    def test_no_empty_tokens_no_internal_whitespace(self):
        rng = random.Random(7)
        alphabet = string.ascii_letters + string.digits + ".,!?-'\"() \t\n"
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(80)))
            for tok in tokenize(text):
                assert tok
                assert not any(ch.isspace() for ch in tok)

    def test_rejoin_idempotence(self):
        rng = random.Random(11)
        alphabet = string.ascii_letters + ".,!?-'\" "
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(60)))
            tokens = tokenize(text)
            assert tokenize(" ".join(tokens)) == tokens


class TestIsSpecialToken:
    def test_mixed_token_is_not_special(self):
        assert not is_special_token("self-made")
        assert is_special_token("--")
