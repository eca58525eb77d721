"""What a command imports, each run in a fresh interpreter.

``mask`` and ``freq`` on a plain corpus load neither the report code nor
the JSON and gzip modules; those load on first use. Every module that
``python -c pass`` already loads is subtracted, since ``site`` differs
between hosts.
"""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules a plain-corpus, one-process mask or freq run has no use for.
UNUSED = {"textmask.analysis", "textmask.shard", "csv", "decimal", "json", "gzip"}

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


def cli(*argv):
    return f"from textmask.cli import main\nassert main({list(argv)!r}) == 0"


@pytest.fixture
def corpus(tmp_path):
    (tmp_path / "c.txt").write_text("a big dog runs\nthe cat sleeps\n\n", encoding="utf-8")
    (tmp_path / "t.freq").write_text("#total 6\ndog\t3\ncat\t2\na\t1\n", encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("argv", [
    ("mask", "--input", "c.txt", "--strategy", "frequency", "--freq-table", "t.freq",
     "--output", "m.txt", "--threads", "1"),
    ("mask", "--input", "c.txt", "--strategy", "syntax", "--output", "m.txt", "--threads", "1"),
    ("freq", "--input", "c.txt", "--output", "m.txt"),
], ids=["mask-frequency", "mask-syntax", "freq"])
def test_plain_corpus_loads_nothing_unused(corpus, startup, argv):
    out, modules = fresh(cli(*argv), corpus)
    assert out.startswith(("masked 3 captions", "wrote "))
    assert (modules - startup) & UNUSED == set()
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
