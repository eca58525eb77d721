"""Normalize raw caption text into word-token lists.

A token list is the unit everything else operates on: lowercased words in
left-to-right order, with each maximal run of punctuation/symbol characters
kept as its own standalone token ("dog." -> ["dog", "."]).
"""

from __future__ import annotations

import re
from functools import lru_cache

# The ASCII characters of categories P* and S* are exactly
# string.punctuation: ranges !-/ :-@ [-` {-~. An ASCII chunk splits into
# maximal runs of them and of everything else in one findall.
_ASCII_RUNS = re.compile(r"[!-/:-@\[-`{-~]+|[^!-/:-@\[-`{-~]+")


@lru_cache(maxsize=4096)
def _is_special_char(ch: str) -> bool:
    # Unicode punctuation (P*) and symbol (S*) categories. Imported here, on
    # a cache miss, so a corpus that never leaves the ASCII paths skips it.
    import unicodedata

    return unicodedata.category(ch)[0] in ("P", "S")


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercased word tokens.

    Splits on Unicode whitespace; within each chunk, maximal runs of
    punctuation/symbol characters become standalone tokens. Empty input
    yields an empty list. Tokens are never empty and never contain
    whitespace.
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        if chunk.isalnum():
            # Fast path: letters/digits only, no punctuation to peel off.
            tokens.append(chunk)
            continue
        if chunk.isascii():
            tokens += _ASCII_RUNS.findall(chunk)
            continue
        start = 0
        prev_special = _is_special_char(chunk[0])
        for i in range(1, len(chunk)):
            cur_special = _is_special_char(chunk[i])
            if cur_special != prev_special:
                tokens.append(chunk[start:i])
                start = i
                prev_special = cur_special
        tokens.append(chunk[start:])
    return tokens


def is_special_token(token: str) -> bool:
    """True if ``token`` consists entirely of punctuation/symbol characters."""
    if token.isalnum():
        # No letter or digit is in a P* or S* category.
        return False
    return bool(token) and all(_is_special_char(ch) for ch in token)
