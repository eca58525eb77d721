import itertools
import random
import re
import string
import sys
import unicodedata

from hypothesis import example, given, settings
from hypothesis import strategies as st

from textmask import tokenizer
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


def is_ps(ch):
    return unicodedata.category(ch)[0] in "PS"


def reference_tokenize(text):
    """The per-character split: each chunk cut into maximal runs of P*/S*
    characters and of other characters."""
    return ["".join(run) for chunk in text.lower().split()
            for _, run in itertools.groupby(chunk, key=is_ps)]


ASCII = [chr(c) for c in range(128)]
# Marks, joiners, quotes, emoji and spaces that a web caption holds.
AWKWARD = ["\u0301", "\u0308", "\u200d", "\u200b", "\u2018", "\u2019", "\u201c",
           "\u201d", "\u00a0", "\u2009", "\u3000", "\U0001f436", "\u2764\ufe0f",
           "\U0001f468\u200d\U0001f469", "\u00e9", "\u0130", "\u00df", "\u2160",
           "\u00bd", "\u00ab", "\u00bb", "\u2026", "\u20ac", "\u00b7", "\u0660"]


def texts(max_pieces):
    pieces = st.one_of(st.characters(), st.sampled_from(AWKWARD + ASCII))
    return st.lists(pieces, max_size=max_pieces).map("".join)


class TestReferenceOracle:
    def test_every_ascii_pair_in_a_word(self):
        for a, b in itertools.product(ASCII, repeat=2):
            for text in (f"w{a}{b}w", f"{a}{b}w", f"w{a}{b}", a + b):
                assert tokenize(text) == reference_tokenize(text), repr(text)

    @settings(max_examples=500)
    @given(texts(40))
    @example("caf\u00e9\u2019s \u201cdog\u201d\u00a0\U0001f436!!")
    @example("e\u0301-e\u0301 \U0001f468\u200d\U0001f469... \u0130stanbul")
    def test_any_unicode_text(self, text):
        assert tokenize(text) == reference_tokenize(text)

    def test_ascii_class_is_ascii_punctuation_and_symbols(self):
        """The fast path's class, pinned against this Python's Unicode data."""
        special, other = map(re.compile, tokenizer._ASCII_RUNS.pattern.split("|"))
        ascii_ps = {c for c in ASCII if is_ps(c)}
        assert ascii_ps == set(string.punctuation)
        assert {c for c in ASCII if special.fullmatch(c)} == ascii_ps
        assert {c for c in ASCII if other.fullmatch(c)} == set(ASCII) - ascii_ps


class TestIsSpecialTokenOracle:
    @settings(max_examples=500)
    @given(texts(6))
    @example("")
    @example("\u00bd")
    @example("\u2160")
    def test_matches_categories(self, token):
        assert is_special_token(token) == (bool(token) and all(map(is_ps, token)))

    def test_every_ascii_character(self):
        """The ASCII branch decides from the same class as the tokenizer's fast path."""
        for ch in ASCII:
            assert is_special_token(ch) == is_ps(ch), repr(ch)

    @settings(max_examples=500)
    # About half the characters come from string.punctuation, so all-punctuation
    # tokens are common.
    @given(st.text(alphabet=st.sampled_from(ASCII) | st.sampled_from(string.punctuation),
                   max_size=8))
    @example("")
    @example(string.punctuation)
    @example("a.")
    def test_matches_categories_on_ascii(self, token):
        assert is_special_token(token) == (bool(token) and all(map(is_ps, token)))

    def test_no_alphanumeric_character_is_punctuation_or_symbol(self):
        """is_special_token's shortcut, over every code point of this Python."""
        chars = map(chr, range(sys.maxunicode + 1))
        assert [c for c in chars if c.isalnum() and is_ps(c)] == []
