import pytest

from textmask.postag import (
    CATEGORIES,
    DEFAULT_LEXICON,
    TagMemo,
    load_lexicon,
    load_pretagged,
    penn_to_coarse,
    tag,
)


class TestTag:
    def test_lexicon_lookup(self):
        assert tag(["the", "dog"], {"the": "OTHER", "dog": "NN"}) == ["OTHER", "NN"]

    def test_ing_heuristic(self):
        assert tag(["hugging"], {}) == ["VB"]

    def test_fallback_is_noun(self):
        assert tag(["zxqv"], {}) == ["NN"]

    def test_suffix_heuristics(self):
        assert tag(["painted", "famous", "joyful", "active", "workable", "final"], {}) == [
            "VB", "JJ", "JJ", "JJ", "JJ", "JJ",
        ]

    def test_punctuation_is_other(self):
        assert tag(["...", ".", "-"], {}) == ["OTHER", "OTHER", "OTHER"]

    def test_lexicon_wins_over_heuristic(self):
        assert tag(["running"], {"running": "NN"}) == ["NN"]

    def test_output_length_matches_input(self):
        tokens = ["a"] * 57
        assert len(tag(tokens, DEFAULT_LEXICON)) == 57

    def test_default_lexicon_covers_function_words(self):
        assert tag(["the", "of", "and", "is"], DEFAULT_LEXICON) == [
            "OTHER", "OTHER", "OTHER", "VB",
        ]


class TestTagMemo:
    def test_memo_stores_each_word_once(self):
        memo = TagMemo({"dog": "JJ"})
        assert tag(["dog", "cats", "dog"], memo) == ["JJ", "NN", "JJ"]
        assert tag(["cats", "."], memo) == ["NN", "OTHER"]
        assert memo == {"dog": "JJ", "cats": "NN", ".": "OTHER"}

    def test_plain_lexicon_is_not_changed(self):
        lexicon = {"dog": "NN"}
        tag(["dog", "cat"], lexicon)
        assert lexicon == {"dog": "NN"}

    def test_none_means_no_lexicon(self):
        memo = TagMemo()
        assert memo["the"] == "NN"
        assert tag(["the"], None) == ["NN"]


class TestPennMapping:
    @pytest.mark.parametrize(
        "penn,coarse",
        [
            ("NN", "NN"), ("NNS", "NN"), ("NNP", "NN"), ("NNPS", "NN"),
            ("JJ", "JJ"), ("JJR", "JJ"), ("JJS", "JJ"),
            ("VB", "VB"), ("VBD", "VB"), ("VBG", "VB"), ("VBZ", "VB"),
            ("IN", "OTHER"), ("DT", "OTHER"), ("RB", "OTHER"), ("CD", "OTHER"),
            ("OTHER", "OTHER"), ("nn", "NN"),
        ],
    )
    def test_prefix_collapse(self, penn, coarse):
        assert penn_to_coarse(penn) == coarse

    def test_mapping_is_total(self):
        # every tag string lands in exactly one of the four categories
        import itertools
        import string

        for length in (1, 2):
            for chars in itertools.product(string.ascii_uppercase[:8], repeat=length):
                assert penn_to_coarse("".join(chars)) in CATEGORIES


class TestLoadPretagged:
    def test_penn_prefix_mapping(self):
        assert load_pretagged("walk/NN of/IN") == (["walk", "of"], ["NN", "OTHER"])

    def test_plural_noun_collapse(self):
        assert load_pretagged("dog/NNS") == (["dog"], ["NN"])

    def test_unmatched_tag_falls_to_other(self):
        # QQ matches none of the NN/JJ/VB prefixes
        assert penn_to_coarse("QQ") == "OTHER"
        assert load_pretagged("x/QQ") == (["x"], ["OTHER"])

    def test_words_lowercased(self):
        assert load_pretagged("Walk/NN")[0] == ["walk"]

    def test_malformed_pair_names_index(self):
        with pytest.raises(ValueError, match="index 1"):
            load_pretagged("ok/NN broken")
        with pytest.raises(ValueError, match="index 0"):
            load_pretagged("/NN")
        with pytest.raises(ValueError, match="index 0"):
            load_pretagged("word/")

    def test_slash_inside_word(self):
        # rightmost slash separates the tag
        assert load_pretagged("a/b/NN") == (["a/b"], ["NN"])

    def test_empty_line(self):
        assert load_pretagged("") == ([], [])


class TestLoadLexicon:
    def test_basic(self):
        lex = load_lexicon(["dog\tNN\n", "the\tDT\n"])
        assert lex == {"dog": "NN", "the": "OTHER"}

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_lexicon(["a\tNN\n", "a\tVB\n"])

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match=":2"):
            load_lexicon(["a\tNN\n", "broken\n"])
