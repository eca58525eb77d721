"""The pipeline contract of ``mask``, as one property over ``cli.main``.

A corpus is drawn from hostile pieces (``\\r``, tabs, a byte-order mark,
empty lines, non-ASCII text, JSON escapes and lone surrogates, malformed
lines, undecodable bytes), with a format, ``.gz`` or not on either side,
a strategy, k, t, seed and epoch. It is masked at ``--threads 1`` and at
2 or 3, with blocks of ``BLOCK`` records and four CPUs patched in, so
that workers really start and blocks interleave.

The oracle is a reference model written here from the README's Formats
and Determinism sections, not from the code: split the raw bytes at
``\\n``, decode and parse each line, ``tokenize`` the caption, mask it
with ``apply_mask(..., seed=record_seed(seed, index, epoch))`` and render
the line. On a valid corpus every thread count writes the model's bytes.
On an invalid one every thread count exits 1, names the first bad record
the model finds, keeps the old output and leaves no temp file or child.
"""

import contextlib
import gzip
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, Phase, event, given, settings
from hypothesis import strategies as st

from textmask import shard
from textmask.cli import main
from textmask.freq import load_frequency_table
from textmask.maskers import STRATEGIES, MaskingConfig, apply_mask, record_seed
from textmask.postag import tag
from textmask.tokenizer import tokenize

BLOCK = 3
CPUS = 4
BOM = b"\xef\xbb\xbf"
OLD = b"old output\n"
TABLE = "#total 160\na\t50\nthe\t40\n.\t30\ndog\t20\nred\t10\ncafé\t6\nrunning\t3\n日本\t1\n"

# Caption pieces: words known to the table or not, punctuation, non-ASCII
# letters, Unicode whitespace (U+2028 and NEL included, which splitlines
# would break at) and a BOM, which is only dropped at the start of a file.
WORDS = ["a", "the", "dog", "Red", "café", "running", "日本", "naïve", "😀", "x1", ".", ",",
         "!?", "(", "\ufeff", "\x00"]
SPACES = [" ", "  ", "\t", "\r", "\u00a0", "\u2028", "\x85", "\x0c"]
captions = st.lists(st.one_of(st.sampled_from(WORDS), st.sampled_from(SPACES)),
                    max_size=10).map("".join)
# A tsv id ends at the first tab, so it holds none; a \r in one cannot be
# written back as tsv.
tsv_ids = st.sampled_from(["img1.jpg", "", "é", "id\r", " x "])
json_ids = st.one_of(st.none(), st.sampled_from(["a", "", "é", "a\tb", "a\nb", "a\rb"]),
                     st.integers(-10**20, 10**20))
endings = st.sampled_from([b"\n", b"\r\n"])


@st.composite
def good_lines(draw, format):
    """A line the README accepts in ``format``, without its ending."""
    caption = draw(captions)
    if format == "plain":
        return caption.encode("utf-8")
    if format == "tsv":
        return (draw(tsv_ids) + "\t" + caption).encode("utf-8")
    record_id = draw(json_ids)
    fields = {"caption": caption} if record_id is None else {"id": record_id, "caption": caption}
    text = json.dumps(fields, ensure_ascii=draw(st.booleans()))
    if draw(st.booleans()):
        # A caption written with an escaped surrogate pair and escaped whitespace.
        text = text.replace('"caption": "', '"caption": "\\ud83d\\ude00\\t\\r\\n\\u00e9 ', 1)
    return text.encode("utf-8")


@st.composite
def bad_lines(draw, format):
    """A line the README rejects in ``format``, without its ending."""
    shared = [b"\xff", b"ok \xc3", b"\xed\xa0\x80"]  # undecodable, cut short, encoded surrogate
    own = {
        "plain": [],
        "tsv": [b"", b"no tab here", b"\r"],
        "jsonl": [b"", b"{not json", b"[1]", b'"dog"', b'{"id": 1}', b'{"caption": null}',
                  b'{"caption": 5}', b'{"caption": "a", "id": true}',
                  b'{"caption": "a", "id": 1.5}', b'{"caption": "a", "id": [1]}',
                  b'{"caption": "a \\ud800 dog"}', b'{"id": "\\udfff", "caption": "a"}',
                  BOM + b'{"caption": "a"}'],
    }[format]
    return draw(st.sampled_from(shared + own))


@st.composite
def corpora(draw):
    format = draw(st.sampled_from(["plain", "tsv", "jsonl"]))
    lines = draw(st.lists(good_lines(format), max_size=4 * BLOCK + 2))
    for position, line in draw(st.lists(st.tuples(st.integers(0, len(lines)), bad_lines(format)),
                                        max_size=2)):
        lines.insert(position, line)
    data = b"".join(line + draw(endings) for line in lines)
    if lines and draw(st.booleans()):
        data = data.removesuffix(b"\n")  # a last line without its ending
    if draw(st.booleans()):
        data = BOM + data
    return format, data


def model(data, path, format, output_format, config):
    """What the README says ``mask`` does with ``data``: (output bytes,
    None), or (None, the start of stderr) for the first bad record."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # the last line's \n ends it; it starts no empty record
    out = []
    for index, raw in enumerate(lines):
        bad = (None, f"error: {path}:{index + 1}: ")
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            return bad
        if index == 0:
            line = line.removeprefix("\ufeff")
        line = line.removesuffix("\r")  # CRLF reads like LF; a lone \r stays
        if format == "plain":
            record_id, caption = str(index), line
        elif format == "tsv":
            record_id, tab, caption = line.partition("\t")
            if not tab:
                return bad
        else:
            try:
                obj = json.loads(line)
            except ValueError:
                return bad
            if not isinstance(obj, dict) or not isinstance(obj.get("caption"), str):
                return bad
            caption, record_id = obj["caption"], obj.get("id", index)
            if isinstance(record_id, bool) or not isinstance(record_id, (str, int)):
                return bad
            record_id = str(record_id)
            if any(0xD800 <= ord(c) <= 0xDFFF for c in caption + record_id):
                return bad
        tokens = tokenize(caption)
        tags = tag(tokens) if config.strategy == "syntax" else None
        kept = " ".join(apply_mask(tokens, config, tags=tags,
                                   seed=record_seed(config.seed, index, config.epoch)).kept)
        if output_format == "plain":
            out.append(kept)
        elif output_format == "tsv":
            if any(c in record_id for c in "\t\n\r"):
                return None, f"error: record {index}: id "
            out.append(f"{record_id}\t{kept}")
        else:
            out.append(json.dumps({"id": record_id, "caption": kept}, ensure_ascii=False))
    return "".join(line + "\n" for line in out).encode("utf-8"), None


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "t.freq"
    path.write_text(TABLE, encoding="utf-8")
    return str(path)


@pytest.fixture
def sharding(monkeypatch):
    """Blocks of BLOCK records and CPUS CPUs; returns the list of forks."""
    monkeypatch.setattr(shard, "B", BLOCK)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(CPUS)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: CPUS)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def run(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


# Every example forks: 300 take about 10 s on 2 vCPUs. Hypothesis's explain
# phase re-runs a failing example many more times, so it is left out.
@settings(max_examples=300, phases=[Phase.generate, Phase.shrink], derandomize=True,
          deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(corpus=corpora(), output_format=st.sampled_from(["plain", "tsv", "jsonl"]),
       gz_in=st.booleans(), gz_out=st.booleans(), strategy=st.sampled_from(STRATEGIES),
       k=st.integers(1, 5), t=st.sampled_from([1e-6, 0.02, 0.3]),
       seed=st.integers(-2**70, 2**70), epoch=st.integers(0, 3), threads=st.integers(2, 3))
def test_mask_contract(table_path, sharding, corpus, output_format, gz_in, gz_out, strategy,
                       k, t, seed, epoch, threads):
    format, data = corpus
    config = MaskingConfig(strategy, k=k, t=t, seed=seed, epoch=epoch,
                           freq_table=load_frequency_table(table_path)
                           if strategy in ("frequency", "swclip") else None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c." + format + (".gz" if gz_in else ""))
        with open(path, "wb") as fh:
            fh.write(gzip.compress(data) if gz_in else data)
        out = os.path.join(tmp, "m" + (".gz" if gz_out else ""))
        expected, error = model(data, path, format, output_format, config)
        event("valid" if error is None else "invalid")
        names = sorted([os.path.basename(path), os.path.basename(out)])
        ends = []
        for workers in (1, threads):
            with open(out, "wb") as fh:
                fh.write(OLD)
            del sharding[:]
            ends.append(run("mask", "--input", path, "--format", format, "--strategy", strategy,
                            "--k", str(k), "--t", str(t), "--seed", str(seed), "--epoch",
                            str(epoch), "--freq-table", table_path, "--output", out,
                            "--output-format", output_format, "--threads", str(workers)))
            assert len(sharding) == (0 if workers == 1 else min(workers, CPUS))
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)  # every worker was reaped
            assert sorted(os.listdir(tmp)) == names
            with open(out, "rb") as fh:
                written = fh.read()
            if error is None:
                assert (gzip.decompress(written) if gz_out else written) == expected
            else:
                assert written == OLD
        assert ends[0] == ends[1]
        code, stdout, stderr = ends[0]
        if error is None:
            records = expected.count(b"\n")
            assert (code, stdout, stderr) == (0, f"masked {records} captions -> {out}\n", "")
        else:
            assert (code, stdout) == (1, "") and stderr.startswith(error), (stderr, error)
