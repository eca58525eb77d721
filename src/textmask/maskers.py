"""Masking strategies: reduce a token list of length n to at most k tokens.

Every strategy returns a subsequence (original order, original tokens).
All strategies except ``swclip`` fill the keep-budget exactly: the output
length is min(n, k). ``swclip`` masks each word independently by frequency
and may leave slots unused, which is precisely the behavior the
slot-utilization report measures.

Strategies:
    truncation  keep the first k tokens (deterministic)
    random      keep k uniformly chosen tokens
    block       keep a contiguous k-token window at a uniform random offset
    syntax      keep k tokens by POS priority NN > JJ > VB > OTHER
    frequency   remove exactly n-k tokens, weighted by masking probability
    swclip      mask each token independently with its masking probability,
                then truncate survivors to k

Stochastic strategies are pure functions of (tokens, parameters, seed).
Corpus runs derive one seed per record from (global seed, epoch, record
index) with a splitmix64-style hash, so serial and parallel runs agree
byte-for-byte and each epoch resamples random/block/frequency/swclip while
truncation and syntax stay fixed.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Sequence

from ._record import Record
from .freq import DEFAULT_THRESHOLD, FrequencyTable, mask_probabilities, validate_threshold
from .postag import CATEGORIES

STRATEGIES = ("truncation", "random", "block", "syntax", "frequency", "swclip")

# Strategies whose masking decision needs a frequency table.
FREQUENCY_STRATEGIES = frozenset({"frequency", "swclip"})

# Strategies that draw random numbers; truncation and syntax ignore any seed.
SEEDED_STRATEGIES = FREQUENCY_STRATEGIES | {"random", "block"}

_PRIORITY = {category: rank for rank, category in enumerate(CATEGORIES)}

# Floor for removal weights so that captions where more than n-k tokens have
# zero masking probability still sample uniformly instead of degenerating.
WEIGHT_FLOOR = 1e-9

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def record_seed(seed: int, index: int, epoch: int = 0) -> int:
    """Per-record seed derived from the run seed, epoch and record index:
    ``_splitmix64(_splitmix64(_splitmix64(seed) ^ epoch) ^ index)``, each
    argument taken modulo 2**64.

    Splittable-hash mixing keeps the streams independent of processing
    order, so any parallel schedule reproduces the serial output. The
    ``(seed, epoch)`` key is worked out once per pair and reused (the 32
    pairs used last are kept), so a record costs one splitmix64 round.
    """
    return _splitmix64(_run_key(seed & _MASK64, epoch & _MASK64) ^ (index & _MASK64))


@functools.lru_cache(maxsize=32)
def _run_key(seed: int, epoch: int) -> int:
    return _splitmix64(_splitmix64(seed) ^ epoch)


class MaskedOutput(Record):
    """Retained tokens in original order plus their source positions."""

    __slots__ = __match_args__ = ("kept", "kept_indices", "source_length")

    def __init__(self, kept: list[str], kept_indices: list[int], source_length: int) -> None:
        self.kept = kept
        self.kept_indices = kept_indices
        self.source_length = source_length

    def text(self) -> str:
        return " ".join(self.kept)


class MaskingConfig(Record):
    """Run-level masking parameters shared by every record of a corpus pass.

    ``seed`` and ``epoch`` reach a record only through ``record_seed``, as in
    the README's library example: ``apply_mask(tokens, config)`` on its own
    uses ``config.seed`` and ignores ``epoch``. The defaults are readable on
    the class (``MaskingConfig.k``), so this class has no ``__slots__``."""

    __match_args__ = ("strategy", "k", "t", "seed", "epoch", "freq_table")
    k: int = 8
    t: float = DEFAULT_THRESHOLD
    seed: int = 0
    epoch: int = 0
    freq_table: FrequencyTable | None = None

    def __init__(self, strategy: str, k: int = k, t: float = t, seed: int = seed,
                 epoch: int = epoch, freq_table: FrequencyTable | None = freq_table) -> None:
        if strategy not in STRATEGIES:
            raise _unknown_strategy(strategy)
        _check_k(k)
        validate_threshold(t)
        _check_table(strategy, freq_table)
        self.strategy = strategy
        self.k = k
        self.t = t
        self.seed = seed
        self.epoch = epoch
        self.freq_table = freq_table


def _unknown_strategy(strategy: str) -> ValueError:
    return ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"keep-length k must be >= 1, got {k}")


def _check_table(strategy: str, table: FrequencyTable | None) -> None:
    if table is None and strategy in FREQUENCY_STRATEGIES:
        raise ValueError(f"strategy {strategy!r} requires a frequency table")


def _select(tokens: Sequence[str], indices: list[int]) -> MaskedOutput:
    return MaskedOutput([tokens[i] for i in indices], indices, len(tokens))


def mask_truncation(tokens: Sequence[str], k: int) -> MaskedOutput:
    """Keep the first min(n, k) tokens. Ignores any seed."""
    _check_k(k)
    return _select(tokens, list(range(min(len(tokens), k))))


def mask_random(tokens: Sequence[str], k: int, seed: int) -> MaskedOutput:
    """Keep k positions chosen uniformly without replacement."""
    _check_k(k)
    n = len(tokens)
    if n <= k:
        return _select(tokens, list(range(n)))
    rng = random.Random(seed)
    return _select(tokens, sorted(rng.sample(range(n), k)))


def mask_block(tokens: Sequence[str], k: int, seed: int) -> MaskedOutput:
    """Keep a contiguous k-token window; start drawn uniformly from 0..n-k.

    The start range includes n-k, so every window (the last one included)
    is reachable.
    """
    _check_k(k)
    n = len(tokens)
    if n <= k:
        return _select(tokens, list(range(n)))
    start = random.Random(seed).randrange(n - k + 1)
    return _select(tokens, list(range(start, start + k)))


def mask_syntax(tokens: Sequence[str], tags: Sequence[str], k: int) -> MaskedOutput:
    """Keep k tokens by POS priority NN > JJ > VB > OTHER, earlier-first ties.

    Ignores any seed; the same caption always masks the same way.
    """
    _check_k(k)
    if len(tags) != len(tokens):
        raise ValueError(f"tags length {len(tags)} does not match token count {len(tokens)}")
    n = len(tokens)
    if n <= k:
        return _select(tokens, list(range(n)))
    try:
        priority = [_PRIORITY[t] for t in tags]
    except KeyError as exc:
        raise ValueError(f"unknown POS category {exc.args[0]!r}; expected one of {tuple(_PRIORITY)}") from None
    # sorted is stable: equal priorities keep their earlier-first order.
    ranked = sorted(range(n), key=priority.__getitem__)
    return _select(tokens, sorted(ranked[:k]))


def mask_frequency(
    tokens: Sequence[str],
    table: FrequencyTable,
    t: float,
    k: int,
    seed: int,
) -> MaskedOutput:
    """Remove exactly n-k tokens by frequency-weighted sampling.

    Removal weights are each token's masking probability (floored at
    WEIGHT_FLOOR), sampled without replacement via an exponential race:
    token i draws key Exp(1)/w_i and the n-k smallest keys are removed.
    Successive removals are therefore weight-proportional among the
    remaining tokens. When n <= k nothing is removed, so every available
    input slot is used.
    """
    _check_k(k)
    _check_table("frequency", table)
    probs = mask_probabilities(tokens, table, t)
    n = len(tokens)
    if n <= k:
        return _select(tokens, list(range(n)))
    rand = random.Random(seed).random
    log = math.log
    keys = [-log(1.0 - rand()) / (w if w > WEIGHT_FLOOR else WEIGHT_FLOOR) for w in probs]
    ranked = sorted(range(n), key=keys.__getitem__)
    return _select(tokens, sorted(ranked[n - k:]))


def mask_swclip(
    tokens: Sequence[str],
    table: FrequencyTable,
    t: float,
    k: int,
    seed: int,
) -> MaskedOutput:
    """Mask each token independently with its masking probability.

    Survivors stay in order and are truncated to the first k, so the output
    can be shorter than min(n, k): high-frequency captions under-fill their
    input slots, unlike every other strategy here.
    """
    _check_k(k)
    _check_table("swclip", table)
    rand = random.Random(seed).random
    kept = [i for i, p in enumerate(mask_probabilities(tokens, table, t)) if rand() >= p]
    return _select(tokens, kept[:k])


def apply_mask(
    tokens: Sequence[str],
    config: MaskingConfig,
    tags: Sequence[str] | None = None,
    seed: int | None = None,
) -> MaskedOutput:
    """Apply ``config.strategy`` to one token list.

    ``seed`` overrides config.seed for the stochastic strategies; corpus
    pipelines pass ``record_seed(config.seed, record_index, config.epoch)``.
    ``tags`` is required for the syntax strategy only.
    """
    if seed is None:
        seed = config.seed
    strategy = config.strategy
    if strategy == "truncation":
        return mask_truncation(tokens, config.k)
    if strategy == "random":
        return mask_random(tokens, config.k, seed)
    if strategy == "block":
        return mask_block(tokens, config.k, seed)
    if strategy == "syntax":
        if tags is None:
            raise ValueError("syntax strategy requires POS tags")
        return mask_syntax(tokens, tags, config.k)
    if strategy == "frequency":
        return mask_frequency(tokens, config.freq_table, config.t, config.k, seed)
    if strategy == "swclip":
        return mask_swclip(tokens, config.freq_table, config.t, config.k, seed)
    # Reached only when ``config.strategy`` was reassigned after construction.
    raise _unknown_strategy(strategy)
