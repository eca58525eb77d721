"""Exact sampling laws of the stochastic maskers.

The seeded-stream tests pin one RNG stream; these pin what any stream
must draw from. For captions of at most seven tokens, each law over the
kept index tuples is computed exactly from its definition:

- ``frequency``: the n - k removed tokens are drawn one at a time without
  replacement, with weights ``max(P, WEIGHT_FLOOR)`` among the tokens
  left (the exponential race's law), summed over removal orders;
- ``swclip``: token j survives with probability 1 - P_j, independently,
  and the survivors are truncated to the first k;
- ``random``: uniform over the C(n, k) kept sets;
- ``block``: uniform over the n - k + 1 windows.

Each caption is masked under ``DRAWS`` record seeds, and the counts are
compared with the law by a chi-square goodness-of-fit test. The seeds
are fixed, so a pass or failure repeats; the test fails at p < 1e-4.
"""

import itertools
import math
from collections import Counter

import pytest
from scipy.stats import chisquare

from textmask.freq import FrequencyTable, mask_probabilities
from textmask.maskers import WEIGHT_FLOOR, MaskingConfig, apply_mask, record_seed

DRAWS = 20_000
ALPHA = 1e-4
# t = 0.02 of 110 tokens: a word counted 2 times or fewer has P = 0.
TABLE = FrequencyTable({"a": 60, "b": 35, "c": 10, "d": 3, "z": 2}, 110)
T = 0.02

# (caption, k): P > 0 everywhere but one unknown word; more P = 0 words
# (unknown, or at or below t) than k; every word unknown.
MIXED = ("a b a c d e".split(), 3)
FLOORED = ("a x b y z w".split(), 2)
UNKNOWN = ("p q r s u v w".split(), 3)


def frequency_law(probs, k):
    weights = [max(p, WEIGHT_FLOOR) for p in probs]
    n = len(weights)
    law = Counter()
    for order in itertools.permutations(range(n), n - k):
        chance, left = 1.0, set(range(n))
        for i in order:
            # Summed afresh: subtracting a large weight would lose the floor.
            chance *= weights[i] / math.fsum(weights[j] for j in left)
            left.remove(i)
        law[tuple(sorted(left))] += chance
    return law


def swclip_law(probs, k):
    law = Counter()
    for survives in itertools.product((False, True), repeat=len(probs)):
        chance = math.prod(1 - p if s else p for p, s in zip(probs, survives))
        law[tuple(i for i, s in enumerate(survives) if s)[:k]] += chance
    return law


def random_law(probs, k):
    sets = list(itertools.combinations(range(len(probs)), k))
    return Counter({kept: 1 / len(sets) for kept in sets})


def block_law(probs, k):
    windows = len(probs) - k + 1
    return Counter({tuple(range(start, start + k)): 1 / windows for start in range(windows)})


LAWS = {"frequency": frequency_law, "swclip": swclip_law, "random": random_law,
        "block": block_law}


def draws(tokens, strategy, k, epoch):
    config = MaskingConfig(strategy, k=k, t=T, seed=41, epoch=epoch,
                           freq_table=TABLE if strategy in ("frequency", "swclip") else None)
    return Counter(tuple(apply_mask(tokens, config, seed=record_seed(41, i, epoch)).kept_indices)
                   for i in range(DRAWS))


def assert_fits(counts, law):
    """Chi-square goodness of fit, cells expecting fewer than 5 draws pooled."""
    assert math.isclose(math.fsum(law.values()), 1.0)
    assert set(counts) <= {kept for kept, p in law.items() if p > 0}
    observed, expected, rest = [], [], [0, 0.0]
    for kept, p in law.items():
        if DRAWS * p >= 5:
            observed.append(counts[kept])
            expected.append(DRAWS * p)
        else:
            rest[0] += counts[kept]
            rest[1] += DRAWS * p
    if rest[1] > 0:
        observed.append(rest[0])
        expected.append(rest[1])
    if len(observed) > 1:  # one cell holds every draw, as the support check showed
        expected = [e * DRAWS / math.fsum(expected) for e in expected]  # round-off only
        stat, p_value = chisquare(observed, expected)
        assert p_value >= ALPHA, (stat, p_value, len(observed))


@pytest.mark.parametrize("strategy", sorted(LAWS))
@pytest.mark.parametrize("case,epoch", [(MIXED, 0), (FLOORED, 1), (UNKNOWN, 2)],
                         ids=["mixed", "floored", "unknown"])
def test_draws_follow_the_law(strategy, case, epoch):
    tokens, k = case
    law = LAWS[strategy](mask_probabilities(tokens, TABLE, T), k)
    assert_fits(draws(tokens, strategy, k, epoch), law)


def test_cases_cover_the_floor():
    mixed, floored, unknown = (mask_probabilities(tokens, TABLE, T)
                               for tokens, _ in (MIXED, FLOORED, UNKNOWN))
    assert all(p > 0 for p in mixed[:-1]) and mixed[-1] == 0
    assert sum(p == 0 for p in floored) > FLOORED[1] and any(p > 0 for p in floored)
    assert unknown == [0.0] * len(UNKNOWN[0])


def test_all_unknown_frequency_law_is_random_law():
    """With every weight at the floor, frequency removes uniformly."""
    tokens, k = UNKNOWN
    probs = mask_probabilities(tokens, TABLE, T)
    frequency, uniform = frequency_law(probs, k), random_law(probs, k)
    assert frequency.keys() == uniform.keys()
    assert all(math.isclose(frequency[kept], uniform[kept]) for kept in uniform)


def test_floored_frequency_law_removes_weighted_words_first():
    """Two of the four P = 0 words are kept, uniformly; the others go first."""
    tokens, k = FLOORED
    probs = mask_probabilities(tokens, TABLE, T)
    zeros = [i for i, p in enumerate(probs) if p == 0]
    law = frequency_law(probs, k)
    pairs = list(itertools.combinations(zeros, k))
    assert all(math.isclose(law[kept], 1 / len(pairs), rel_tol=1e-6) for kept in pairs)
