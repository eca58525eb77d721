"""Word-frequency tables and the frequency-based masking probability.

The masking probability of a word with relative frequency f is

    P = 1 - √(t/f)

clamped to [0, 1], where t is a dimensionless threshold (default 1e-6).
Words at or below the threshold are never masked; the probability grows
toward 1 as f grows, so frequent words are removed aggressively while the
frequency ranking of the vocabulary is preserved.

``subsample_probability`` is the one definition of P. ``FrequencyTable``
is frozen and caches, per threshold, a map from each distinct count to its
P. ``mask_probabilities`` is the one lookup from tokens to P through that
map; the maskers and ``mask_probability`` all call it.
"""

from __future__ import annotations

import math
from collections import Counter, _count_elements
from typing import IO, Iterable, Iterator, Sequence

from ._record import Record
from .corpus_io import open_text_write, read_lines

DEFAULT_THRESHOLD = 1e-6


def validate_threshold(t: float) -> float:
    if not 0.0 < t < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {t!r}")
    return t


class FrequencyTable(Record):
    """Word -> occurrence count map over a corpus. Frozen after build.

    ``total`` is the total token count, so ``counts[w] / total`` is the
    relative frequency of ``w``. Every stored count is >= 1.

    The fields cannot be reassigned (AttributeError), and ``counts`` must
    not be mutated in place either: the probability maps cached by
    ``probabilities`` are derived from it and would go stale. The cache is
    left out of ``==``, ``repr`` and pickles.
    """

    __slots__ = ("counts", "total", "_probabilities")
    __match_args__ = ("counts", "total")

    def __init__(self, counts: dict[str, int] | None = None, total: int = 0) -> None:
        init = object.__setattr__
        init(self, "counts", {} if counts is None else counts)
        init(self, "total", total)
        init(self, "_probabilities", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, (self.counts, self.total)

    def __contains__(self, word: str) -> bool:
        return word in self.counts

    def __len__(self) -> int:
        return len(self.counts)

    def probabilities(self, t: float) -> dict[int, float]:
        """Map each distinct stored count to its masking probability at ``t``.

        Keyed by count rather than by word: a Zipfian vocabulary has far
        fewer distinct counts than words. Built once per ``t`` and cached;
        ValueError if ``t`` is outside (0, 1).
        """
        probs = self._probabilities.get(t)
        if probs is None:
            validate_threshold(t)
            probs = {
                count: subsample_probability(count / self.total, t)
                for count in set(self.counts.values())
            }
            self._probabilities[t] = probs
        return probs


def build_frequency_table(corpus: Iterable[Sequence[str]]) -> FrequencyTable:
    """Count word occurrences over a stream of token lists.

    Raises ValueError on an empty corpus (zero tokens overall): relative
    frequencies would be undefined.
    """
    # Counted straight into the table's own dict, in first-seen order, by the
    # helper that Counter.update uses; a Counter would have to be copied.
    counts: dict[str, int] = {}
    for tokens in corpus:
        _count_elements(counts, tokens)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty corpus")
    return FrequencyTable(counts, total)


def merge(a: FrequencyTable, b: FrequencyTable) -> FrequencyTable:
    """Pointwise sum of two tables; associative and commutative.

    Merging an explicitly constructed empty table is the identity, which
    makes sharded parallel builds reducible in any order.
    """
    counts = Counter(a.counts)
    counts.update(b.counts)
    return FrequencyTable(dict(counts), a.total + b.total)


def subsample_probability(rel_freq: float, t: float = DEFAULT_THRESHOLD) -> float:
    """Masking probability for a relative frequency, clamped to [0, 1].

    Exactly 0 for rel_freq <= t (the raw formula goes negative there);
    monotonically nondecreasing in rel_freq and decreasing in t.
    """
    validate_threshold(t)
    if rel_freq <= t:
        return 0.0
    p = 1.0 - math.sqrt(t / rel_freq)
    return p if p < 1.0 else 1.0


def mask_probabilities(tokens: Sequence[str], table: FrequencyTable,
                       t: float = DEFAULT_THRESHOLD) -> list[float]:
    """Each token's masking probability under ``table``, in token order.

    A word the table lacks gets 0.0 (arbitrarily rare, never masked). ``t``
    is validated even when there are no tokens."""
    probs = table.probabilities(t)
    count = table.counts.get
    return [probs.get(count(tok), 0.0) for tok in tokens]


def mask_probability(word: str, table: FrequencyTable, t: float = DEFAULT_THRESHOLD) -> float:
    """Masking probability of ``word`` under ``table``; see ``mask_probabilities``."""
    return mask_probabilities((word,), table, t)[0]


# --- persistence ------------------------------------------------------------
#
# UTF-8 text: line 1 is "#total <N>", then "<word>\t<count>" per line sorted
# by descending count, ties lexicographic. Sorted output keeps diffs stable.


def dump_frequency_table(table: FrequencyTable, fh: IO[str]) -> None:
    fh.write(f"#total {table.total}\n")
    # Grouped by count, so it holds no (word, count) pair or sort key per word.
    by_count: dict[int, list[str]] = {}
    for word, count in table.counts.items():
        by_count.setdefault(count, []).append(word)
    for count in sorted(by_count, reverse=True):
        suffix = f"\t{count}\n"
        for word in sorted(by_count[count]):
            fh.write(word + suffix)


def save_frequency_table(table: FrequencyTable, path: str) -> None:
    with open_text_write(path) as fh:
        dump_frequency_table(table, fh)


def parse_frequency_table(lines: Iterator[str], source: str = "<stream>") -> FrequencyTable:
    header = next(lines, None)
    if header is None or not header.startswith("#total "):
        raise ValueError(f"{source}: missing '#total <N>' header line")
    try:
        total = int(header[len("#total "):].strip())
    except ValueError:
        raise ValueError(f"{source}: malformed total in header: {header.strip()!r}") from None
    counts: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\r\n")
        if not line:
            continue
        word, sep, count_str = line.partition("\t")
        if not sep or not word:
            raise ValueError(f"{source}:{lineno}: expected '<word>\\t<count>'")
        try:
            count = int(count_str)
        except ValueError:
            raise ValueError(f"{source}:{lineno}: malformed count {count_str!r}") from None
        if count < 1:
            raise ValueError(f"{source}:{lineno}: count must be >= 1, got {count}")
        if word in counts:
            raise ValueError(f"{source}:{lineno}: duplicate word {word!r}")
        counts[word] = count
    if sum(counts.values()) != total:
        raise ValueError(f"{source}: header total {total} does not match sum of counts")
    if total == 0:
        # Every word would be unknown, so frequency masking would turn uniform.
        raise ValueError(f"{source}: empty frequency table (total 0)")
    return FrequencyTable(counts, total)


def load_frequency_table(path: str) -> FrequencyTable:
    return parse_frequency_table(read_lines(path), source=str(path))
