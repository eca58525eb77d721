"""End-to-end verification suite.

One test per shipping criterion, each asserting its stated tolerances and
runtime budget and printing a one-line summary with the measured values
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, spearmanr

from textmask.analysis import round_half_up, slot_utilization, token_budget
from textmask.cli import main
from textmask.freq import FrequencyTable, build_frequency_table, save_frequency_table, subsample_probability
from textmask.maskers import (
    mask_block,
    mask_frequency,
    mask_random,
    mask_swclip,
    mask_syntax,
    mask_truncation,
    record_seed,
)
from textmask.postag import tag
from textmask.tokenizer import tokenize

REFERENCE_CAPTION = (
    "Walk of the happy young couple and Siberian dog. "
    "The handsome man is hugging the smiling red head girl"
)

PRIORITY = {"NN": 0, "JJ": 1, "VB": 2, "OTHER": 3}


def test_mask_probability_closed_form():
    """Closed-form masking probability: fixed points, clamping, monotonicity."""
    t0 = time.perf_counter()
    t = 1e-6
    rel = lambda got, want: abs(got - want) / want if want else abs(got)
    assert subsample_probability(t, t) == 0.0
    assert rel(subsample_probability(4 * t, t), 0.5) < 1e-12
    assert rel(subsample_probability(100 * t, t), 0.9) < 1e-12
    assert subsample_probability(t / 4, t) == 0.0  # raw value -1, clamped
    assert subsample_probability(t / 1e6, t) == 0.0
    f_grid = [10 ** (-8 + 7 * i / 99) for i in range(100)]
    probs = [subsample_probability(f, t) for f in f_grid]
    assert all(a <= b for a, b in zip(probs, probs[1:]))
    assert all(0.0 <= p <= 1.0 for p in probs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS probability closed form: P(t)=0 P(4t)=0.5 P(100t)=0.9, "
          f"monotone over {len(f_grid)}-point grid [{elapsed:.3f}s]")


def test_token_budget_reference_rows():
    """Budget arithmetic reproduces the documented six-row sweep exactly."""
    t0 = time.perf_counter()
    expected = [
        ((0.0, 32), 228, 100.00),
        ((0.75, 32), 81, 35.53),
        ((0.75, 16), 65, 28.51),
        ((0.75, 8), 57, 25.00),
        ((0.75, 6), 55, 24.12),
        ((0.75, 4), 53, 23.25),
    ]
    for (ratio, keep), total, pct in expected:
        budget = token_budget(ratio, keep)
        assert budget.total == total
        assert round_half_up(budget.percentage) == pct
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS token budget: totals 228/81/65/57/55/53, "
          f"percentages to 2 decimals [{elapsed:.3f}s]")


def test_demo_truncation_prefix_row(tmp_path, capsys):
    """The demo command's truncation row is the exact six-word prefix."""
    t0 = time.perf_counter()
    table_path = str(tmp_path / "demo.freq")
    save_frequency_table(build_frequency_table([tokenize(REFERENCE_CAPTION)]), table_path)
    code = main(["demo", "--caption", REFERENCE_CAPTION, "--k", "6",
                 "--freq-table", table_path])
    out = capsys.readouterr().out
    assert code == 0
    rows = {}
    for line in out.splitlines():
        name, sep, text = line.partition(" : ")
        if sep:
            rows[name.strip()] = text
    truncated = rows["truncation"]
    assert truncated == "walk of the happy young couple"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS demo truncation row: {truncated!r} [{elapsed:.3f}s]")


def _check_syntax_dominance(tags, out):
    kept = set(out.kept_indices)
    dropped = [i for i in range(len(tags)) if i not in kept]
    if not kept or not dropped:
        return
    worst_kept = max(PRIORITY[tags[i]] for i in kept)
    best_dropped = min(PRIORITY[tags[i]] for i in dropped)
    assert worst_kept <= best_dropped
    if worst_kept == best_dropped:
        boundary = worst_kept
        kept_at = [i for i in kept if PRIORITY[tags[i]] == boundary]
        dropped_at = [i for i in dropped if PRIORITY[tags[i]] == boundary]
        assert max(kept_at) < min(dropped_at)  # earlier positions win ties


def test_structural_properties_randomized():
    """10k randomized (tokens, k, seed) cases per strategy: subsequence
    structure, exact slot filling, block contiguity, truncation prefix,
    syntax priority dominance."""
    t0 = time.perf_counter()
    rng = random.Random(424242)
    vocab = [f"w{i}" for i in range(64)]
    weights = [2 ** (i % 11) for i in range(64)]
    counts = {w: c for w, c in zip(vocab, weights)}
    table = FrequencyTable(counts, sum(counts.values()))
    cases = 10_000
    for _ in range(cases):
        n = rng.randrange(0, 48)
        k = rng.randrange(1, 14)
        tokens = rng.choices(vocab, k=n)
        tags = rng.choices(("NN", "JJ", "VB", "OTHER"), k=n)
        seed = rng.getrandbits(63)
        outs = {
            "truncation": mask_truncation(tokens, k),
            "random": mask_random(tokens, k, seed),
            "block": mask_block(tokens, k, seed),
            "syntax": mask_syntax(tokens, tags, k),
            "frequency": mask_frequency(tokens, table, 1e-3, k, seed),
            "swclip": mask_swclip(tokens, table, 1e-3, k, seed),
        }
        for strategy, out in outs.items():
            idx = out.kept_indices
            assert all(a < b for a, b in zip(idx, idx[1:]))  # strictly increasing
            assert out.kept == [tokens[i] for i in idx]
            if strategy == "swclip":
                assert len(idx) <= min(n, k)
            else:
                assert len(idx) == min(n, k)
        if n > k:
            bidx = outs["block"].kept_indices
            assert bidx == list(range(bidx[0], bidx[0] + k))
        assert outs["truncation"].kept_indices == list(range(min(n, k)))
        _check_syntax_dominance(tags, outs["syntax"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS structural properties: {cases} cases x 6 strategies [{elapsed:.1f}s]")


def test_random_masking_uniformity():
    """n=5, k=2 over 100k seeded trials: per-position retention 0.4 +/- 0.01
    and a chi-square statistic below the 99.9% critical value."""
    t0 = time.perf_counter()
    tokens = list("abcde")
    trials = 100_000
    hits = Counter()
    for seed in range(trials):
        hits.update(mask_random(tokens, 2, seed).kept_indices)
    freqs = [hits[pos] / trials for pos in range(5)]
    for f in freqs:
        assert abs(f - 0.4) < 0.01
    expected = trials * 2 / 5
    stat = sum((hits[pos] - expected) ** 2 / expected for pos in range(5))
    critical = chi2.isf(0.001, df=4)
    assert stat < critical
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS random uniformity: retention {min(freqs):.4f}..{max(freqs):.4f}, "
          f"chi2 {stat:.2f} < {critical:.2f} [{elapsed:.1f}s]")


def test_block_start_completeness():
    """n=10, k=4 over 10k seeded trials: all 7 window offsets occur, each
    with frequency 1/7 +/- 0.02."""
    t0 = time.perf_counter()
    tokens = [f"t{i}" for i in range(10)]
    trials = 10_000
    starts = Counter(mask_block(tokens, 4, seed).kept_indices[0] for seed in range(trials))
    assert set(starts) == set(range(7))
    for offset in range(7):
        assert abs(starts[offset] / trials - 1 / 7) < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS block completeness: 7/7 offsets, "
          f"freq {min(starts.values())/trials:.4f}..{max(starts.values())/trials:.4f} [{elapsed:.1f}s]")


def test_frequency_masking_preserves_ranking_and_flattens_head(zipf_corpus):
    """On the seeded power-law corpus (10k captions, vocab 1k, exponent 1.0,
    k=6, t=1e-6), frequency masking (a) keeps the word-frequency ranking
    (Spearman >= 0.9), (b) shows retention nonincreasing in word frequency
    across ten equal-occurrence-mass buckets of the ranked vocabulary, and
    (c) suppresses the top word strictly more than the rank-500 word.
    Retention is aggregated over 20 epoch-resampled masking passes."""
    t0 = time.perf_counter()
    corpus = zipf_corpus
    table = build_frequency_table(corpus)
    k, t, epochs, mask_seed = 6, 1e-6, 20, 4
    before = Counter()
    for toks in corpus:
        before.update(toks)
    after = Counter()
    for epoch in range(epochs):
        for i, toks in enumerate(corpus):
            after.update(mask_frequency(toks, table, t, k, record_seed(mask_seed, i, epoch)).kept)
    ranked = [w for w, _ in sorted(before.items(), key=lambda kv: (-kv[1], kv[0]))]
    b = [before[w] for w in ranked]
    a = [after.get(w, 0) for w in ranked]

    rho = spearmanr(b, a).statistic
    assert rho >= 0.9

    total = sum(b)
    buckets, cur, acc, bound = [], [], 0, total / 10
    for w in ranked:
        cur.append(w)
        acc += before[w]
        if acc >= bound and len(buckets) < 9:
            buckets.append(cur)
            cur = []
            bound += total / 10
    buckets.append(cur)
    ratios = [
        sum(after.get(w, 0) for w in bucket) / (epochs * sum(before[w] for w in bucket))
        for bucket in buckets
    ]
    # most-frequent bucket first: retention must not decrease toward the tail
    assert all(r1 <= r2 for r1, r2 in zip(ratios, ratios[1:])), ratios

    head_ratio = a[0] / (epochs * b[0])
    rank500_ratio = a[499] / (epochs * b[499])
    assert head_ratio < rank500_ratio

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS head flattening: spearman {rho:.4f}, decile retention "
          f"{ratios[0]:.4f}->{ratios[-1]:.4f} monotone, "
          f"rank1 {head_ratio:.4f} < rank500 {rank500_ratio:.4f} [{elapsed:.1f}s]")


def test_pos_share_shifts(pos_corpus):
    """Syntax masking shifts POS shares by >= 20 points (NN up, OTHER down);
    frequency masking lands strictly between random and syntax on NN share."""
    t0 = time.perf_counter()
    tokens, tags = pos_corpus
    table = build_frequency_table(tokens)
    k, t = 6, 1e-6

    def share(counter, cat):
        return 100.0 * counter[cat] / sum(counter.values())

    before = Counter(tag for tag_list in tags for tag in tag_list)
    assert 45.0 < share(before, "NN") < 55.0  # corpus premise

    kept = {}
    for name in ("random", "syntax", "frequency"):
        counter = Counter()
        for i, (toks, tag_list) in enumerate(zip(tokens, tags)):
            if name == "random":
                out = mask_random(toks, k, record_seed(0, i, 0))
            elif name == "syntax":
                out = mask_syntax(toks, tag_list, k)
            else:
                out = mask_frequency(toks, table, t, k, record_seed(0, i, 0))
            counter.update(tag_list[j] for j in out.kept_indices)
        kept[name] = counter

    nn_before, other_before = share(before, "NN"), share(before, "OTHER")
    nn = {name: share(counter, "NN") for name, counter in kept.items()}
    other_syntax = share(kept["syntax"], "OTHER")

    assert nn["syntax"] - nn_before >= 20.0
    assert other_before - other_syntax >= 20.0
    assert nn["random"] < nn["frequency"] < nn["syntax"]

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS POS shares: NN before {nn_before:.2f}% | random {nn['random']:.2f}% "
          f"< frequency {nn['frequency']:.2f}% < syntax {nn['syntax']:.2f}%; "
          f"OTHER {other_before:.2f}%->{other_syntax:.2f}% under syntax [{elapsed:.1f}s]")


def test_slot_utilization_contrast(zipf_corpus):
    """Every slot-filling strategy scores exactly 1.0; swclip scores below."""
    t0 = time.perf_counter()
    corpus = zipf_corpus
    table = build_frequency_table(corpus)
    k, t = 6, 1e-6
    tags = [tag(toks) for toks in corpus]
    outputs = {
        "truncation": [mask_truncation(toks, k) for toks in corpus],
        "random": [mask_random(toks, k, record_seed(1, i, 0)) for i, toks in enumerate(corpus)],
        "block": [mask_block(toks, k, record_seed(1, i, 0)) for i, toks in enumerate(corpus)],
        "syntax": [mask_syntax(toks, tg, k) for toks, tg in zip(corpus, tags)],
        "frequency": [
            mask_frequency(toks, table, t, k, record_seed(1, i, 0))
            for i, toks in enumerate(corpus)
        ],
        "swclip": [
            mask_swclip(toks, table, t, k, record_seed(1, i, 0))
            for i, toks in enumerate(corpus)
        ],
    }
    utilization = {name: slot_utilization(outs, k) for name, outs in outputs.items()}
    for name in ("truncation", "random", "block", "syntax", "frequency"):
        assert utilization[name] == 1.0
    assert utilization["swclip"] < 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS slot utilization: filling strategies 1.0 exactly, "
          f"swclip {utilization['swclip']:.4f} [{elapsed:.1f}s]")


def test_determinism_and_parallel_equivalence(tmp_path, capsys, zipf_corpus):
    """Identical seeds give byte-identical corpora across runs and across
    --threads 1 vs --threads 8; the epoch flag changes output for the
    resampling strategies and never for truncation/syntax."""
    t0 = time.perf_counter()
    corpus_path = str(tmp_path / "corpus.txt")
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for toks in zipf_corpus:
            fh.write(" ".join(toks) + "\n")
    table_path = str(tmp_path / "table.freq")
    assert main(["freq", "--input", corpus_path, "--output", table_path]) == 0

    def run_mask(strategy, out_name, epoch="0", threads="1"):
        out_path = str(tmp_path / out_name)
        argv = ["mask", "--input", corpus_path, "--strategy", strategy, "--k", "6",
                "--seed", "11", "--epoch", epoch, "--threads", threads,
                "--freq-table", table_path, "--output", out_path]
        assert main(argv) == 0
        return Path(out_path).read_bytes()

    epoch_sensitive = {"random", "block", "frequency", "swclip"}
    for strategy in ("truncation", "random", "block", "syntax", "frequency", "swclip"):
        first = run_mask(strategy, f"{strategy}_a")
        assert run_mask(strategy, f"{strategy}_b") == first  # rerun identical
        assert run_mask(strategy, f"{strategy}_t8", threads="8") == first
        epoch1 = run_mask(strategy, f"{strategy}_e1", epoch="1")
        if strategy in epoch_sensitive:
            assert epoch1 != first
        else:
            assert epoch1 == first
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS determinism: reruns and threads byte-identical, epoch "
          f"resamples {sorted(epoch_sensitive)} only [{elapsed:.1f}s]")


def test_throughput_million_captions():
    """Frequency-masking 1M synthetic captions (mean length 22) completes
    in under 60 s single-threaded."""
    vocab_size = 10_000
    rng = np.random.default_rng(2)
    probs = 1.0 / np.arange(1, vocab_size + 1)
    probs /= probs.sum()
    vocab = [f"w{i:05d}" for i in range(vocab_size)]
    # frequency table consistent with the sampling distribution
    counts = {w: max(1, int(p * 22_000_000)) for w, p in zip(vocab, probs)}
    table = FrequencyTable(counts, sum(counts.values()))

    n_captions = 1_000_000
    lengths = rng.integers(4, 41, size=n_captions)  # mean 22
    corpus = []
    pos = 0
    chunk = 100_000
    flat_needed = int(lengths.sum())
    flat = rng.choice(vocab_size, size=flat_needed, p=probs)
    for start in range(0, n_captions, chunk):
        span = lengths[start:start + chunk]
        words = [vocab[i] for i in flat[pos:pos + int(span.sum())].tolist()]
        offset = 0
        for length in span.tolist():
            corpus.append(words[offset:offset + length])
            offset += length
        pos += int(span.sum())
    del flat

    k, t = 8, 1e-6
    t0 = time.perf_counter()
    kept_total = 0
    for i, toks in enumerate(corpus):
        out = mask_frequency(toks, table, t, k, record_seed(0, i, 0))
        kept_total += len(out.kept)
    elapsed = time.perf_counter() - t0
    assert kept_total == sum(min(len(toks), k) for toks in corpus)
    assert elapsed < 60.0
    rate = n_captions / elapsed
    print(f"\nPASS throughput: 1M captions masked in {elapsed:.1f}s "
          f"({rate:,.0f} captions/s single-threaded)")


def test_training_scale_metrics_substituted():
    """Model-quality numbers (zero-shot accuracy, retrieval recall) need
    multi-GPU pre-training runs and cannot be produced at desk scale; the
    data-side behavior they depend on is covered by the preceding tests."""
    print("\nNOTE training-scale metrics: substituted by the data-pipeline "
          "checks in this module (masking structure, distribution shifts, "
          "budgets, determinism, throughput)")
