"""Diagnostic reports comparing corpora before and after masking.

Four report families:
    distribution    top-N word counts before masking vs. per strategy after
    pos share       NN/JJ/VB/OTHER counts and percentages per strategy
    token budget    image+text tokens processed per sample vs. the unmasked
                    baseline
    corpus stats    sample count, total words, caption-length mean/std

plus slot utilization, the fraction of available keep-slots actually
filled (1.0 for every slot-filling strategy, below 1.0 for swclip).

Each report renders to CSV; the CSV is the plotting contract.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal
from typing import IO, Iterable, Iterator, Mapping, Sequence

from ._record import Record
from .maskers import MaskedOutput, _check_k
from .postag import CATEGORIES
from .tokenizer import is_special_token

BASELINE_IMAGE_PATCHES = 196
BASELINE_TEXT_CONTEXT = 32

# (image_mask_ratio, text_keep) rows of the standard pre-training budget
# sweep: unmasked baseline, then 75% image masking with shrinking text keeps.
STANDARD_BUDGET_ROWS = ((0.0, 32), (0.75, 32), (0.75, 16), (0.75, 8), (0.75, 6), (0.75, 4))


def round_half_up(x: float, ndigits: int = 2) -> float:
    """Decimal half-up rounding (5 rounds away from zero), for report output."""
    q = Decimal(1).scaleb(-ndigits)
    return float(Decimal(str(x)).quantize(q, rounding=ROUND_HALF_UP))


# --- word-frequency distribution --------------------------------------------


class DistributionRow(Record):
    __slots__ = __match_args__ = ("rank", "word", "before", "after")

    def __init__(self, rank: int, word: str, before: int, after: dict[str, int]) -> None:
        self.rank = rank
        self.word = word
        self.before = before
        self.after = after


class DistributionReport(Record):
    __slots__ = __match_args__ = ("strategies", "rows")

    def __init__(self, strategies: list[str], rows: list[DistributionRow]) -> None:
        self.strategies = strategies
        self.rows = rows


def distribution_report(
    before: Sequence[Sequence[str]],
    after: Mapping[str, Iterable[MaskedOutput]],
    top_n: int = 50,
) -> DistributionReport:
    """Top ``top_n`` words by original count with per-strategy counts after.

    Special-character tokens are excluded from the vocabulary on both
    sides. Ranks follow descending original count, ties lexicographic.
    Each strategy's output stream is read once and must match ``before``.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    before_counts: Counter[str] = Counter()
    for tokens in before:
        before_counts.update(tokens)
    # Strip special tokens once per word type. The after-counts hold only
    # ranked words, which are never special, so they need no stripping.
    for word in [w for w in before_counts if is_special_token(w)]:
        del before_counts[word]
    # Equal to sorted(...)[:top_n], but holds only top_n items and keys at a time.
    ranked = heapq.nsmallest(top_n, before_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    # Each strategy counts only the ranked words: top_n entries, not the vocabulary.
    is_ranked = dict(ranked).__contains__
    after_counts: dict[str, Counter[str]] = {}
    for strategy, outputs in after.items():
        counts: Counter[str] = Counter()
        for output in _exactly(outputs, len(before), "before", strategy):
            counts.update(filter(is_ranked, output.kept))
        after_counts[strategy] = counts
    rows = [
        DistributionRow(
            rank=i,
            word=word,
            before=count,
            after={s: after_counts[s].get(word, 0) for s in after},
        )
        for i, (word, count) in enumerate(ranked, start=1)
    ]
    return DistributionReport(list(after), rows)


def _exactly(
    outputs: Iterable[MaskedOutput], expected: int, what: str, strategy: str
) -> Iterator[MaskedOutput]:
    """Yield at most ``expected`` outputs; ValueError unless there were exactly that many."""
    count = 0
    for count, output in enumerate(outputs, start=1):
        if count <= expected:
            yield output
    if count != expected:
        raise ValueError(
            f"record count mismatch: {expected} {what} vs {count} for strategy {strategy!r}"
        )


def write_distribution_csv(report: DistributionReport, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["rank", "word", "before"] + [f"after_{s}" for s in report.strategies])
    for row in report.rows:
        writer.writerow([row.rank, row.word, row.before] + [row.after[s] for s in report.strategies])


# --- POS-category shares -----------------------------------------------------


class PosShareRow(Record):
    __slots__ = __match_args__ = ("label", "counts")

    def __init__(self, label: str, counts: dict[str, int]) -> None:
        self.label = label
        self.counts = counts

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def percentage(self, category: str) -> float:
        total = self.total
        return 100.0 * self.counts.get(category, 0) / total if total else 0.0


class PosShareReport(Record):
    __slots__ = __match_args__ = ("rows",)

    def __init__(self, rows: list[PosShareRow]) -> None:
        self.rows = rows

    def row(self, label: str) -> PosShareRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def pos_share_report(
    tags: Sequence[Sequence[str]],
    masked: Mapping[str, Iterable[MaskedOutput]],
) -> PosShareReport:
    """Category counts over all tokens ("before" row) and over each
    strategy's retained tokens, reading each strategy's outputs once."""
    rows = [PosShareRow("before", _count_categories(tags))]
    for strategy, outputs in masked.items():
        kept_tags = (
            [tags[r][i] for i in output.kept_indices]
            for r, output in enumerate(_exactly(outputs, len(tags), "tag lists", strategy))
        )
        rows.append(PosShareRow(strategy, _count_categories(kept_tags)))
    return PosShareReport(rows)


def _count_categories(tag_lists: Iterable[Sequence[str]]) -> dict[str, int]:
    counts: Counter[str] = Counter()
    for tag_list in tag_lists:
        counts.update(tag_list)
    unknown = set(counts) - set(CATEGORIES)
    if unknown:
        raise ValueError(f"unknown POS categories: {sorted(unknown)}")
    return {cat: counts.get(cat, 0) for cat in CATEGORIES}


def write_pos_csv(report: PosShareReport, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["strategy"] + list(CATEGORIES) + ["total"])
    for row in report.rows:
        writer.writerow(
            [row.label]
            + [f"{round_half_up(row.percentage(cat)):.2f}" for cat in CATEGORIES]
            + [row.total]
        )


# --- token budget ------------------------------------------------------------


class TokenBudget(Record):
    __slots__ = __match_args__ = ("image_tokens", "text_tokens", "total", "percentage")

    def __init__(self, image_tokens: int, text_tokens: int, total: int, percentage: float) -> None:
        self.image_tokens = image_tokens
        self.text_tokens = text_tokens
        self.total = total
        self.percentage = percentage  # of the unmasked baseline, full precision


def token_budget(
    image_mask_ratio: float,
    text_keep: int,
    image_patches: int = BASELINE_IMAGE_PATCHES,
    text_context: int = BASELINE_TEXT_CONTEXT,
) -> TokenBudget:
    """Tokens processed per sample under the given image/text masking.

    ``percentage`` is relative to the unmasked baseline of
    ``image_patches + text_context`` tokens (196 + 32 = 228 by default).
    """
    if not 0.0 <= image_mask_ratio < 1.0:
        raise ValueError(f"image_mask_ratio must be in [0, 1), got {image_mask_ratio}")
    if not 1 <= text_keep <= text_context:
        raise ValueError(f"text_keep must be in 1..{text_context}, got {text_keep}")
    if image_patches < 0:
        raise ValueError(f"image_patches must be >= 0, got {image_patches}")
    image_tokens = int(round_half_up(image_patches * (1.0 - image_mask_ratio), 0))
    total = image_tokens + text_keep
    percentage = 100.0 * total / (image_patches + text_context)
    return TokenBudget(image_tokens, text_keep, total, percentage)


def standard_budget_table(
    image_patches: int = BASELINE_IMAGE_PATCHES,
    text_context: int = BASELINE_TEXT_CONTEXT,
) -> list[TokenBudget]:
    widest = max(keep for _, keep in STANDARD_BUDGET_ROWS)
    if text_context < widest:
        raise ValueError(f"text_context must be >= {widest} for the standard sweep, whose rows "
                         f"keep up to {widest} text tokens; got {text_context}")
    return [
        token_budget(ratio, keep, image_patches, text_context)
        for ratio, keep in STANDARD_BUDGET_ROWS
    ]


def write_budget_csv(budgets: Sequence[TokenBudget], fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["image_tokens", "text_tokens", "total", "percentage"])
    for b in budgets:
        writer.writerow([b.image_tokens, b.text_tokens, b.total, f"{round_half_up(b.percentage):.2f}"])


# --- corpus statistics -------------------------------------------------------


class CorpusStats(Record):
    __slots__ = __match_args__ = ("sample_count", "total_words", "mean_length", "std_length")

    def __init__(self, sample_count: int, total_words: int, mean_length: float,
                 std_length: float) -> None:
        self.sample_count = sample_count
        self.total_words = total_words
        self.mean_length = mean_length
        self.std_length = std_length  # population standard deviation


def corpus_stats(corpus) -> CorpusStats:
    """Caption-length mean and population std over a stream of token lists."""
    count = 0
    total = 0
    total_sq = 0
    for tokens in corpus:
        n = len(tokens)
        count += 1
        total += n
        total_sq += n * n
    if count == 0:
        raise ValueError("empty corpus")
    mean = total / count
    variance = total_sq / count - mean * mean
    return CorpusStats(count, total, mean, math.sqrt(max(variance, 0.0)))


def write_stats_csv(stats: CorpusStats, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["sample_count", "total_words", "mean_length", "std_length"])
    writer.writerow(
        [stats.sample_count, stats.total_words, f"{stats.mean_length:.6f}", f"{stats.std_length:.6f}"]
    )


# --- slot utilization ----------------------------------------------------


def slot_utilization(masked: Iterable[MaskedOutput], k: int) -> float:
    """Mean filled fraction of the keep-budget: |kept| / min(n, k) per record.

    Empty captions (n = 0) have no slots to fill and are skipped; with no
    eligible records the utilization is vacuously 1.0. The mean is exact
    and rounded once, so it depends neither on record order nor on how
    this Python sums floats.
    """
    _check_k(k)
    fills = Counter((len(output.kept), min(output.source_length, k))
                    for output in masked if output.source_length > 0)
    if not fills:
        return 1.0
    slots = math.lcm(*(budget for _, budget in fills))
    filled = sum(count * kept * (slots // budget) for (kept, budget), count in fills.items())
    return filled / (slots * fills.total())


def write_slots_csv(utilization: Mapping[str, float], fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["strategy", "slot_utilization"])
    for strategy, value in utilization.items():
        writer.writerow([strategy, f"{value:.6f}"])
