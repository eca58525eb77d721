"""Byte-identity oracle for the CLI: SHA-256 of seeded command outputs.

The digests were captured before the per-record masking path in ``cli.py``
was unified, so any refactor that moves one RNG draw, one seed or one
output byte of ``demo``, ``mask`` or ``analyze`` fails here.
"""

import hashlib
import random

import pytest

from textmask.cli import main

# (word, Penn tag, weight): function words dominate, as in web captions.
VOCAB = [
    ("a", "DT", 30), ("the", "DT", 40), ("of", "IN", 15), ("on", "IN", 12),
    ("with", "IN", 10), ("and", "CC", 12), ("is", "VBZ", 8), (".", ".", 20),
    (",", ",", 6), ("dog", "NN", 9), ("man", "NN", 8), ("beach", "NN", 5),
    ("girl", "NN", 5), ("street", "NN", 3), ("bicycle", "NN", 2), ("kite", "NNS", 1),
    ("happy", "JJ", 4), ("beautiful", "JJ", 3), ("famous", "JJ", 2), ("red", "JJ", 4),
    ("running", "VBG", 4), ("walked", "VBD", 3), ("holding", "VBG", 2), ("sits", "VBZ", 2),
]


def _captions(n=300, seed=11):
    rng = random.Random(seed)
    weights = [w for _, _, w in VOCAB]
    return [rng.choices(VOCAB, weights=weights, k=rng.randint(0, 24)) for _ in range(n)]


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    captions = _captions()
    paths = {}
    for name, fmt in (("plain", "{w}"), ("pretagged", "{w}/{t}")):
        path = root / f"{name}.txt"
        path.write_text("".join(" ".join(fmt.format(w=w, t=t) for w, t, _ in cap) + "\n"
                                for cap in captions), encoding="utf-8")
        paths[name] = str(path)
    table = str(root / "table.freq")
    assert main(["freq", "--input", paths["plain"], "--output", table]) == 0
    paths["table"] = table
    return paths


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flags(name):
    return ["--pretagged"] if name == "pretagged" else []


DEMO_CAPTION = {
    "plain": "The happy dog, the happy man and a red kite on the famous beach.",
    "pretagged": "The/DT happy/JJ dog/NN ,/, the/DT happy/JJ man/NN and/CC a/DT red/JJ "
                 "kite/NN on/IN the/DT famous/JJ beach/NN ./.",
}

DEMO = {
    ("plain", ()): "aeb50df78cad84974b674b66301fe61a207cbaf4d93d591413fa93227c79cff3",
    ("pretagged", ("--epoch", "1")):
        "f161cbcc7218443880a323c4b96fee5652408ba21e45c188f880b497a979134d",
}


@pytest.mark.parametrize("name,extra", list(DEMO))
def test_demo_stdout(corpora, capsys, name, extra):
    capsys.readouterr()
    code = main(["demo", "--caption", DEMO_CAPTION[name], "--freq-table", corpora["table"],
                 "--k", "6", "--t", "0.01", *_flags(name), *extra])
    assert code == 0
    assert _sha(capsys.readouterr().out.encode("utf-8")) == DEMO[(name, extra)]


ANALYZE = {
    ("dist", "plain"): "73d028463ccc7dfee7f42e0298513279631b155a1f25c646c66c328836cb8673",
    ("dist", "pretagged"): "efbb70b3670763e6b9031785e644b65fdaaf168b66d9b5b621553b7bde1513b3",
    ("pos", "plain"): "355d864b0c13053156e6f8d3a9743ef4420093d83f313d75ebb444b0ce6cbc24",
    ("pos", "pretagged"): "d3e942c6557c29801af6e42c915428a61ae653089b7598c27fbabd271b068e38",
    ("slots", "plain"): "f412be6ba4616ae795edfc4310955b2f30471ff7936dbd5b1234776018c8ec37",
    ("slots", "pretagged"): "f412be6ba4616ae795edfc4310955b2f30471ff7936dbd5b1234776018c8ec37",
}


@pytest.mark.parametrize("report,name", list(ANALYZE))
def test_analyze_csv(corpora, tmp_path, report, name):
    out = tmp_path / f"{report}.csv"
    code = main(["analyze", report, "--input", corpora[name], *_flags(name),
                 "--k", "6", "--t", "0.01", "--seed", "5", "--epoch", "1",
                 "--output", str(out)])
    assert code == 0
    assert _sha(out.read_bytes()) == ANALYZE[(report, name)]


# Pre-tagged input changes only what the tagger would have said, so only
# syntax differs from its plain twin.
MASK = {
    ("truncation", "plain"): "25f63f04abf0990cb4e5b1792af422c401522162993f05f66b93f9ae37f1cfc0",
    ("random", "plain"): "a80cb7f30d16ee272dfaa21b4454e823f790a62e75dceb0722e62db8a79e522d",
    ("block", "plain"): "addcaf73dc089288a2c0d73832c608802a3b7925830263036d34426e04598ab0",
    ("syntax", "plain"): "a0316bdf6108637f82b5ee0baa47701e1e61bd62091b3967a38a6feb30d2d470",
    ("syntax", "pretagged"): "79825f90a0feb51f78ed1f77ec34bc9bed546ba2142465badae3c5eb15a818bc",
    ("frequency", "plain"): "23956d7890d0b545e941e608c2614f62b0c4b554f353a32617081f181dcccd02",
    ("swclip", "plain"): "777069e2f0273eb722b6b888510acc4f917839343a28453120bc70bd7060549f",
}


@pytest.mark.parametrize("strategy,name", list(MASK))
def test_mask_output(corpora, tmp_path, strategy, name):
    out = tmp_path / "masked.txt"
    code = main(["mask", "--input", corpora[name], *_flags(name), "--strategy", strategy,
                 "--freq-table", corpora["table"], "--k", "6", "--t", "0.01",
                 "--seed", "5", "--epoch", "1", "--output", str(out)])
    assert code == 0
    assert _sha(out.read_bytes()) == MASK[(strategy, name)]
