"""The package's public surface: what ``textmask`` exports, and its version."""

import random
import re
from pathlib import Path

import pytest

import textmask
from textmask import freq, tokenizer
from textmask.cli import main
from textmask.maskers import MaskedOutput, mask_truncation

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"


def test_every_export_resolves():
    missing = [name for name in textmask.__all__ if not hasattr(textmask, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(textmask.__all__) == len(set(textmask.__all__))


@pytest.mark.parametrize("owner,name", [
    (textmask, "probability_curve"),
    (freq, "probability_curve"),
    (textmask, "strip_special"),
    (tokenizer, "strip_special"),
    (textmask.FrequencyTable, "relative_frequency"),
])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in textmask.__all__


def test_masked_output_fields():
    assert MaskedOutput.__match_args__ == ("kept", "kept_indices", "source_length")
    assert mask_truncation(["a", "b", "c"], 2) == MaskedOutput(["a", "b"], [0, 1], 3)


def test_version_has_one_definition():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "textmask.__version__"}
    assert textmask.__version__ == "0.2.0"


def test_readme_library_example_matches_the_cli(tmp_path, capsys, monkeypatch):
    """The README's library example prints what ``textmask freq`` then
    ``textmask mask --strategy frequency --k 8 --seed 42`` write, even on a
    corpus with a BOM and CRLF line ends."""
    readme = README.read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    rng = random.Random(5)
    words = ["the", "a", "dog", "on", "grass", "red", "ball", "runs", "café", "over", "and"]
    lines = ["the dog runs"] + [" ".join(rng.choices(words, weights=range(11, 0, -1), k=14))
                                for _ in range(300)]
    (tmp_path / "captions.txt").write_bytes(
        "\ufeff".encode() + "".join(line + "\r\n" for line in lines).encode())
    monkeypatch.chdir(tmp_path)

    exec(compile(example, str(README), "exec"), {})
    printed = capsys.readouterr().out

    assert main(["freq", "--input", "captions.txt", "--output", "captions.freq"]) == 0
    assert main(["mask", "--input", "captions.txt", "--strategy", "frequency", "--k", "8",
                 "--seed", "42", "--freq-table", "captions.freq", "--output", "masked.txt"]) == 0
    assert printed == (tmp_path / "masked.txt").read_text(encoding="utf-8")
    assert printed.startswith("the dog runs\n")
