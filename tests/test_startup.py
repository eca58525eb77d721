"""What a command imports, each run in a fresh interpreter.

Every command the benchmark runs is guarded: ``mask`` with ``frequency``,
``swclip`` and ``syntax``, ``freq`` and a ``syntax`` mask on ``.jsonl.gz``,
``analyze dist | pos | slots``, a sharded ``mask``, and ``import textmask``
itself. Of the ``UNUSED`` modules, each loads exactly the ones its work
needs: the report code with ``csv`` and ``decimal`` for ``analyze``, JSON
and gzip for ``.jsonl.gz``, ``shard`` for ``--threads``, and
``unicodedata`` only where a caption holds non-ASCII text that is not all
letters and digits: ASCII punctuation is split, tagged and filtered out
without it.
None of them loads ``dataclasses`` or ``inspect``.

Every module that ``python -c pass`` already loads is subtracted, since
``site`` differs between hosts. For a command, so is every module that a
bare ``argparse`` parse loads: the guard is on textmask's imports, and
argparse's colour support in Python 3.14 may import ``dataclasses``
through ``_colorize``.
"""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules that a plain-corpus, one-process mask or freq run has no use for.
UNUSED = {"textmask.analysis", "textmask.shard", "csv", "decimal", "json", "gzip",
          "dataclasses", "inspect", "unicodedata"}
ANALYZE = {"textmask.analysis", "csv", "decimal"}
JSONL_GZ = {"json", "gzip", "unicodedata"}

PROBE = "import sys\n{body}\nsys.stdout.write('\\0' + '\\n'.join(sys.modules))\n"


def fresh(body, cwd):
    """Run ``body`` in a new interpreter: (its stdout, the modules it loaded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE.format(body=body)], cwd=cwd, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    out, _, modules = result.stdout.rpartition("\0")
    return out, set(modules.split("\n"))


@pytest.fixture(scope="module")
def startup(tmp_path_factory):
    """The modules a bare interpreter loads."""
    return fresh("pass", tmp_path_factory.mktemp("startup"))[1]


@pytest.fixture(scope="module")
def parsed(tmp_path_factory):
    """The modules a bare interpreter loads to parse an empty command line."""
    return fresh("import argparse\nargparse.ArgumentParser().parse_args([])",
                 tmp_path_factory.mktemp("parsed"))[1]


def cli(*argv):
    return f"from textmask.cli import main\nassert main({list(argv)!r}) == 0"


@pytest.fixture
def corpus(tmp_path):
    (tmp_path / "c.txt").write_text("a big dog runs.\nthe cat sleeps\n\n", encoding="utf-8")
    (tmp_path / "t.freq").write_text("#total 6\ndog\t3\ncat\t2\na\t1\n", encoding="utf-8")
    with gzip.open(tmp_path / "c.jsonl.gz", "wt", encoding="utf-8") as fh:
        fh.write('{"id": "a", "caption": "a \\"big\\" dog"}\n{"caption": "the caf\u00e9, open"}\n')
    return tmp_path


def mask(strategy, *extra, corpus="c.txt", output="m.txt"):
    return ("mask", "--input", corpus, "--strategy", strategy, *extra, "--output", output)


def analyze(report):
    return ("analyze", report, "--input", "c.txt", "--strategies",
            "truncation,random,block,syntax,frequency,swclip", "--output", f"{report}.csv")


@pytest.mark.parametrize("argv,loaded", [
    (mask("frequency", "--freq-table", "t.freq", "--threads", "1"), set()),
    (mask("swclip", "--freq-table", "t.freq"), set()),
    (mask("syntax", "--threads", "1"), set()),
    (("freq", "--input", "c.txt", "--output", "m.txt"), set()),
    (("freq", "--input", "c.jsonl.gz", "--format", "jsonl", "--output", "m.freq"), JSONL_GZ),
    (mask("syntax", "--format", "jsonl", corpus="c.jsonl.gz", output="m.jsonl.gz"), JSONL_GZ),
    (analyze("dist"), ANALYZE),
    (analyze("pos"), ANALYZE),
    (analyze("slots"), ANALYZE),
    (mask("frequency", "--freq-table", "t.freq", "--threads", "2"), {"textmask.shard"}),
], ids=["mask-frequency", "mask-swclip", "mask-syntax", "freq", "freq-jsonl-gz",
        "mask-syntax-jsonl-gz", "analyze-dist", "analyze-pos", "analyze-slots",
        "mask-frequency-threads"])
def test_command_loads_only_what_it_needs(corpus, parsed, argv, loaded):
    out, modules = fresh(cli(*argv), corpus)
    assert out.endswith(f" {argv[-1]}\n")
    assert (modules - parsed) & UNUSED == loaded
    assert "textmask.cli" in modules


def test_analyze_dist_loads_the_reports(corpus):
    out, modules = fresh(cli("analyze", "dist", "--input", "c.txt", "--strategies",
                             "truncation,syntax", "--output", "d.csv"), corpus)
    assert out.endswith("wrote d.csv\n")
    assert (corpus / "d.csv").read_text(encoding="utf-8").startswith("rank,word,before,")
    assert {"textmask.analysis", "csv"} <= modules


def test_jsonl_gz_input_and_output(corpus):
    with gzip.open(corpus / "c.jsonl.gz", "wt", encoding="utf-8") as fh:
        fh.write('{"id": "a", "caption": "a \\"big\\" dog"}\n{"caption": "the cat"}\n')
    out, modules = fresh(cli("mask", "--input", "c.jsonl.gz", "--format", "jsonl",
                             "--strategy", "truncation", "--k", "2", "--output", "m.jsonl.gz"),
                         corpus)
    assert out == "masked 2 captions -> m.jsonl.gz\n"
    with gzip.open(corpus / "m.jsonl.gz", "rt", encoding="utf-8") as fh:
        assert [json.loads(line) for line in fh] == [{"id": "a", "caption": 'a "'},
                                                     {"id": "1", "caption": "the cat"}]
    assert {"json", "gzip"} <= modules


def test_report_names_resolve_on_first_use(tmp_path):
    out, modules = fresh(
        "import textmask\n"
        "print('textmask.analysis' in sys.modules)\n"
        "print(textmask.distribution_report is textmask.analysis.distribution_report)\n"
        "print(textmask.TokenBudget.__module__)",
        tmp_path)
    assert out.split() == ["False", "True", "textmask.analysis"]
    assert "textmask.analysis" in modules


def test_import_star_binds_all(tmp_path):
    out, _ = fresh(
        "from textmask import *\n"
        "import textmask\n"
        "print([name for name in textmask.__all__ if name not in globals()])",
        tmp_path)
    assert out == "[]\n"


def test_import_alone_loads_nothing_unused(tmp_path, startup):
    _, modules = fresh("import textmask", tmp_path)
    assert (modules - startup) & UNUSED == set()
