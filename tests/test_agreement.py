"""`analyze` masks each record exactly as `mask` does.

``test_golden.py`` pins each command's output on its own; here the
``dist``, ``pos`` and ``slots`` CSVs are rebuilt from ``mask``'s outputs
with the ``analysis`` writers and must equal ``analyze``'s bytes, for all
six strategies and for a subset in another order. The built-in tagger
tags each word on its own, so the tags of the kept words are
``tag(kept)``. In the ``--pretagged`` corpus each word always carries the
same tag, so the tags of the kept words are looked up in that map.
"""

import io
import random
from collections import Counter

import pytest

from textmask import analysis, cli
from textmask.cli import main
from textmask.corpus_io import read_corpus
from textmask.maskers import STRATEGIES, MaskedOutput
from textmask.postag import CATEGORIES, DEFAULT_LEXICON, penn_to_coarse, tag
from textmask.tokenizer import tokenize

K = 5
MASKING = ["--k", str(K), "--seed", "3", "--epoch", "2"]
TOP_N = 12


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The corpus, its frequency table and each strategy's mask output."""
    tmp = tmp_path_factory.mktemp("agreement")
    rng = random.Random(5)
    vocab = ["a", "the", "on", "with", "dog", "cat", "mat", "beach", "red", "famous",
             "colorful", "runs", "sleeping", "jumped", "is", ",", ".", "!", "dog's", "(big)"]
    lines = [" ".join(rng.choices(vocab, k=rng.randint(1, 14))) for _ in range(300)]
    lines[117] = ""
    corpus = tmp / "c.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = tmp / "c.freq"
    assert main(["freq", "--input", str(corpus), "--output", str(table)]) == 0
    common = ["--input", str(corpus), "--freq-table", str(table), *MASKING]
    outputs = {}
    for strategy in STRATEGIES:
        out = tmp / f"{strategy}.txt"
        assert main(["mask", "--strategy", strategy, *common, "--output", str(out)]) == 0
        outputs[strategy] = out.read_text(encoding="utf-8").split("\n")[:-1]
    return tmp, common, outputs


def analyze(tmp, common, report, *extra):
    out = tmp / f"{report}.csv"
    assert main(["analyze", report, *common, *extra, "--output", str(out)]) == 0
    return out.read_bytes()


def rebuilt(tmp, outputs, write):
    """The CSV bytes of ``write(before, kept, fh)``: ``before`` holds each
    input record's tokens, ``kept`` each strategy's kept words per record."""
    before = [tokenize(record.text) for record in read_corpus(str(tmp / "c.txt"))]
    kept = {s: [line.split() for line in lines] for s, lines in outputs.items()}
    assert all(len(lines) == len(before) for lines in kept.values())
    fh = io.StringIO()
    write(before, kept, fh)
    return fh.getvalue().encode("utf-8")


def masked(before, kept):
    return [MaskedOutput(words, [], len(tokens)) for tokens, words in zip(before, kept)]


def test_dist_agrees_with_mask(runs):
    tmp, common, outputs = runs

    def write(before, kept, fh):
        report = analysis.distribution_report(
            before, {s: masked(before, words) for s, words in kept.items()}, TOP_N)
        analysis.write_distribution_csv(report, fh)

    assert analyze(tmp, common, "dist", "--top-n", str(TOP_N)) == rebuilt(tmp, outputs, write)


def test_pos_agrees_with_mask(runs):
    tmp, common, outputs = runs

    def counts(word_lists):
        tags = Counter(t for words in word_lists for t in tag(words, DEFAULT_LEXICON))
        return {category: tags[category] for category in CATEGORIES}

    def write(before, kept, fh):
        rows = [analysis.PosShareRow("before", counts(before))]
        rows += [analysis.PosShareRow(s, counts(words)) for s, words in kept.items()]
        analysis.write_pos_csv(analysis.PosShareReport(rows), fh)

    assert analyze(tmp, common, "pos") == rebuilt(tmp, outputs, write)


def test_slots_agrees_with_mask(runs):
    tmp, common, outputs = runs

    def write(before, kept, fh):
        analysis.write_slots_csv({s: analysis.slot_utilization(masked(before, words), K)
                                  for s, words in kept.items()}, fh)

    assert analyze(tmp, common, "slots") == rebuilt(tmp, outputs, write)


# Seeded strategies, one unseeded, in an order of their own: each stream
# must still mask record i with record i's seed.
SUBSET = ("swclip", "truncation", "block", "random")


@pytest.mark.parametrize("agrees", [test_dist_agrees_with_mask, test_pos_agrees_with_mask,
                                    test_slots_agrees_with_mask], ids=["dist", "pos", "slots"])
def test_seeded_subset_agrees_with_mask(runs, agrees):
    tmp, common, outputs = runs
    agrees((tmp, [*common, "--strategies", ",".join(SUBSET)], {s: outputs[s] for s in SUBSET}))


@pytest.mark.parametrize("report", ["dist", "pos", "slots"])
@pytest.mark.parametrize("strategies, seeded", [("truncation,syntax", False),
                                                (",".join(SUBSET), True)])
def test_analyze_derives_each_seed_once(runs, monkeypatch, report, strategies, seeded):
    """No seed without a seeded strategy; otherwise one per record, however
    many seeded strategies read it."""
    tmp, common, _ = runs
    calls = []
    real = cli.record_seed

    def record_seed(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "record_seed", record_seed)
    analyze(tmp, [*common, "--strategies", strategies], report)
    assert calls == ([(3, i, 2) for i in range(300)] if seeded else [])


# Each word's one Penn tag in the pre-tagged corpus; every category occurs.
PENN = {"the": "DT", "a": "DT", "dog": "NN", "cats": "NNS", "beach": "NNP", "red": "JJ",
        "bigger": "JJR", "runs": "VBZ", "jumped": "VBD", "sleeping": "VBG", "on": "IN",
        ",": ",", "(": "-LRB-", "Mat": "NN"}


def test_pretagged_pos_agrees_with_mask(tmp_path):
    rng = random.Random(7)
    words = list(PENN)
    lines = [" ".join(f"{w}/{PENN[w]}" for w in rng.choices(words, k=rng.randint(1, 14)))
             for _ in range(200)]
    lines[42] = ""
    corpus = tmp_path / "c.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = tmp_path / "c.freq"
    assert main(["freq", "--pretagged", "--input", str(corpus), "--output", str(table)]) == 0
    common = ["--pretagged", "--input", str(corpus), "--freq-table", str(table), *MASKING]
    kept = {}
    for strategy in STRATEGIES:
        out = tmp_path / f"{strategy}.txt"
        assert main(["mask", "--strategy", strategy, *common, "--output", str(out)]) == 0
        kept[strategy] = [line.split() for line in out.read_text(encoding="utf-8").split("\n")[:-1]]
        assert len(kept[strategy]) == len(lines)

    # Words are lowercased as they are read.
    category = {w.lower(): penn_to_coarse(t) for w, t in PENN.items()}

    def counts(word_lists):
        tags = Counter(category[w] for words in word_lists for w in words)
        return {c: tags[c] for c in CATEGORIES}

    before = [[pair.rpartition("/")[0].lower() for pair in line.split()] for line in lines]
    rows = [analysis.PosShareRow("before", counts(before))]
    rows += [analysis.PosShareRow(s, counts(words)) for s, words in kept.items()]
    fh = io.StringIO()
    analysis.write_pos_csv(analysis.PosShareReport(rows), fh)
    assert analyze(tmp_path, common, "pos") == fh.getvalue().encode("utf-8")
