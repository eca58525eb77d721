"""Shared fixtures: seeded synthetic corpora standing in for web caption data."""

from __future__ import annotations

import os

import numpy as np
import pytest

ZIPF_SEED = 7
ZIPF_CAPTIONS = 10_000
ZIPF_VOCAB = 1_000
ZIPF_EXPONENT = 1.0

POS_SEED = 7
POS_CAPTIONS = 10_000

# class -> (tag, vocabulary size, share of tokens)
POS_CLASSES = {
    "n": ("NN", 5000, 0.50),
    "j": ("JJ", 100, 0.05),
    "v": ("VB", 100, 0.05),
    "f": ("OTHER", 10, 0.40),
}


def make_zipf_corpus(
    n_captions: int = ZIPF_CAPTIONS,
    vocab_size: int = ZIPF_VOCAB,
    exponent: float = ZIPF_EXPONENT,
    seed: int = ZIPF_SEED,
    min_len: int = 15,
    max_len: int = 45,
) -> list[list[str]]:
    """Power-law word corpus; word w0001 is the most frequent."""
    rng = np.random.default_rng(seed)
    probs = 1.0 / np.arange(1, vocab_size + 1) ** exponent
    probs /= probs.sum()
    words = np.array([f"w{r:04d}" for r in range(1, vocab_size + 1)])
    lengths = rng.integers(min_len, max_len + 1, size=n_captions)
    flat = words[rng.choice(vocab_size, size=int(lengths.sum()), p=probs)].tolist()
    corpus = []
    pos = 0
    for length in lengths:
        corpus.append(flat[pos:pos + int(length)])
        pos += int(length)
    return corpus


def make_pos_corpus(
    n_captions: int = POS_CAPTIONS,
    seed: int = POS_SEED,
    min_len: int = 12,
    max_len: int = 20,
) -> tuple[list[list[str]], list[list[str]]]:
    """Mixed-POS corpus with ~50% NN / 5% JJ / 5% VB / 40% OTHER tokens.

    The OTHER class is a tiny closed vocabulary (function words), so its
    words are far more frequent per-word than the open noun vocabulary;
    that is what gives frequency masking something to bite on.
    """
    rng = np.random.default_rng(seed)
    prefixes = list(POS_CLASSES)
    shares = [POS_CLASSES[p][2] for p in prefixes]
    lengths = rng.integers(min_len, max_len + 1, size=n_captions)
    total = int(lengths.sum())
    class_draw = rng.choice(len(prefixes), size=total, p=shares)
    word_draw = rng.random(total)
    tokens_flat = []
    tags_flat = []
    for c, u in zip(class_draw, word_draw):
        prefix = prefixes[c]
        tag, size, _ = POS_CLASSES[prefix]
        tokens_flat.append(f"{prefix}{int(u * size):04d}")
        tags_flat.append(tag)
    corpus, tags = [], []
    pos = 0
    for length in lengths:
        corpus.append(tokens_flat[pos:pos + int(length)])
        tags.append(tags_flat[pos:pos + int(length)])
        pos += int(length)
    return corpus, tags


@pytest.fixture(scope="session")
def zipf_corpus() -> list[list[str]]:
    return make_zipf_corpus()


@pytest.fixture(scope="session")
def pos_corpus() -> tuple[list[list[str]], list[list[str]]]:
    return make_pos_corpus()


# Bound at import, so a test that patches os.sched_getaffinity cannot hide
# what the process's affinity really is.
_get_affinity = getattr(os, "sched_getaffinity", None)
_set_affinity = getattr(os, "sched_setaffinity", None)


@pytest.fixture(autouse=True)
def affinity_unchanged():
    """Fail a test that leaves this process's CPU affinity changed (as a
    sharded ``mask`` run that pinned its caller would), and give the
    process its CPUs back so the rest of the suite does not run on fewer."""
    if _get_affinity is None:
        yield
        return
    before = _get_affinity(0)
    yield
    after = _get_affinity(0)
    if after != before:
        _set_affinity(0, before)
        pytest.fail(f"CPU affinity left at {sorted(after)}, was {sorted(before)}")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped (as a
    sharded ``mask`` run that did not kill and reap its workers would)."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    unreaped = []  # reaped here, so the next test is not blamed for them
    try:
        while pid := os.waitpid(-1, os.WNOHANG)[0]:
            unreaped.append(pid)
        running = True
    except ChildProcessError:
        running = False
    if unreaped or running:
        pytest.fail(f"child processes left unreaped: {unreaped}, left running: {running}")
