"""Coarse part-of-speech tagging into {NN, JJ, VB, OTHER}.

The built-in tagger is lexicon lookup plus suffix heuristics and is a
convenience, not a linguistics claim. For faithful tags, feed a pre-tagged
corpus produced by a real tagger ("word/TAG word/TAG ..." lines); Penn-style
tags collapse by prefix (NN* -> NN, JJ* -> JJ, VB* -> VB, everything else
-> OTHER).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .corpus_io import read_lines
from .tokenizer import is_special_token

# Also the syntax strategy's keep priority, highest first.
CATEGORIES = ("NN", "JJ", "VB", "OTHER")

_VERB_SUFFIXES = ("ing", "ed", "ize")
_ADJ_SUFFIXES = ("ous", "ful", "ive", "able", "al")

# Closed-class English function words, enough to keep the heuristic tagger
# from calling every article and preposition a noun. Used by the CLI when no
# lexicon file is supplied.
DEFAULT_LEXICON: dict[str, str] = {
    word: "OTHER"
    for word in (
        "a an the this that these those some any each every no "
        "i you he she it we they me him her us them my your his its our their "
        "and or but nor so yet if while because although though since when "
        "where after before until unless than as "
        "of in on at by for with about against between into through during "
        "above below to from up down out off over under again further then once "
        "here there all both few more most other such only own same very "
        "not never also just too s t can will don should now"
    ).split()
}
DEFAULT_LEXICON.update(
    {word: "VB" for word in "is are was were be been being am do does did has have had".split()}
)


def penn_to_coarse(tag: str) -> str:
    """Collapse any tag string to one of the four categories. Total mapping."""
    tag = tag.upper()
    for category in ("NN", "JJ", "VB"):
        if tag.startswith(category):
            return category
    return "OTHER"


def heuristic_tag(token: str) -> str:
    """Suffix-based category guess; nouns are the fallback (majority class)."""
    if token.endswith(_VERB_SUFFIXES):
        return "VB"
    if token.endswith(_ADJ_SUFFIXES):
        return "JJ"
    if is_special_token(token):
        return "OTHER"
    return "NN"


class TagMemo(dict):
    """Tags looked up so far, keyed by token, over a wrapped lexicon.

    A missing token is tagged once, by lexicon lookup and then suffix
    heuristics (a falsy lexicon value falls back to the heuristics), and
    stored. Captions are Zipfian, so one memo shared by every record of a
    corpus tags each distinct word once.
    """

    def __init__(self, lexicon: Mapping[str, str] | None = None) -> None:
        super().__init__()
        self.lexicon = {} if lexicon is None else lexicon

    def __missing__(self, tok: str) -> str:
        category = self[tok] = self.lexicon.get(tok) or heuristic_tag(tok)
        return category


def tag(tokens: Sequence[str], lexicon: Mapping[str, str] | None = None) -> list[str]:
    """One category per token: lexicon lookup first, then suffix heuristics.

    ``lexicon`` maps lowercased words to categories; None means no lexicon.
    A ``TagMemo`` is used as is, so tags it holds are reused; any other
    lexicon is wrapped in a fresh one. Output length always equals input
    length.
    """
    memo = lexicon if isinstance(lexicon, TagMemo) else TagMemo(lexicon)
    return list(map(memo.__getitem__, tokens))


def load_pretagged(line: str) -> tuple[list[str], list[str]]:
    """Parse one "word/TAG word/TAG ..." line into parallel token/tag lists.

    Words are lowercased; tags collapse via ``penn_to_coarse``. A pair with
    no separator or an empty side raises ValueError naming its index.
    """
    tokens: list[str] = []
    tags: list[str] = []
    for idx, pair in enumerate(line.split()):
        word, sep, rawtag = pair.rpartition("/")
        if not sep or not word or not rawtag:
            raise ValueError(f"malformed word/TAG pair at index {idx}: {pair!r}")
        tokens.append(word.lower())
        tags.append(penn_to_coarse(rawtag))
    return tokens, tags


def load_lexicon(lines: Iterable[str], source: str = "<stream>") -> dict[str, str]:
    """Parse "<word>\\t<TAG>" lines into a lexicon; duplicates are an error."""
    lexicon: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        word, sep, rawtag = line.partition("\t")
        if not sep or not word or not rawtag:
            raise ValueError(f"{source}:{lineno}: expected '<word>\\t<TAG>'")
        word = word.lower()
        if word in lexicon:
            raise ValueError(f"{source}:{lineno}: duplicate word {word!r}")
        lexicon[word] = penn_to_coarse(rawtag)
    return lexicon


def load_lexicon_file(path: str) -> dict[str, str]:
    return load_lexicon(read_lines(path), source=str(path))
