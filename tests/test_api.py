"""The package's public surface: what ``textmask`` exports, and its version."""

import dataclasses
from pathlib import Path

import pytest

import textmask
from textmask import freq, tokenizer
from textmask.maskers import MaskedOutput, mask_truncation

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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
    assert [f.name for f in dataclasses.fields(MaskedOutput)] == [
        "kept", "kept_indices", "source_length"]
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
