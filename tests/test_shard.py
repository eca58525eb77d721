"""`mask --threads N` across forked workers, run in-process through `cli.main`.

``shard.B`` is patched small so that a corpus of 150 records
spans many blocks and every worker sends many frames, and the CPU count
is patched so that N workers really start on any machine.
"""

import gzip
import itertools
import json
import os
import random
import sys
import threading
import time
import zlib

import pytest

from textmask import cli, shard
from textmask.cli import main
from textmask.maskers import STRATEGIES

BLOCK = 7
RECORDS = 150  # > 3 * 3 blocks of 7, plus a short last block

# The CPUs this process may really use, read before any test patches them.
REAL_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
needs_pinning = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(REAL_CPUS) < 2,
    reason="needs os.sched_setaffinity and 2 CPUs")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Blocks of BLOCK records and 4 CPUs; returns a setter for the CPU count.

    Only the forked workers pin, so a made-up CPU set reaches no further
    than a worker's own affinity (a set the kernel refuses leaves that
    worker unpinned); the ``needs_pinning`` tests pin for real."""
    monkeypatch.setattr(shard, "B", BLOCK)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    set_cpus(4)
    return set_cpus


@pytest.fixture
def forks(monkeypatch):
    """Count the calls to ``os.fork`` made by this process."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def corpus(tmp_path, capsys):
    """A tsv corpus with ids, and its frequency table."""
    rng = random.Random(11)
    vocab = ["a", "red", "dog", "runs", "the", "big", "cat", "sleeps", "on", "mat", ".", "é"]
    path = tmp_path / "c.tsv"
    path.write_text("".join(f"img{i:04d}.jpg\t" + " ".join(rng.choices(vocab, k=rng.randint(0, 14)))
                            + "\n" for i in range(RECORDS)), encoding="utf-8")
    table = tmp_path / "c.freq"
    assert run(capsys, "freq", "--input", str(path), "--format", "tsv",
               "--output", str(table))[0] == 0
    return path, table


def mask(capsys, corpus, strategy, output, threads, *extra):
    path, table = corpus
    return run(capsys, "mask", "--input", str(path), "--format", "tsv", "--strategy", strategy,
               "--k", "4", "--seed", "9", "--epoch", "1", "--freq-table", str(table),
               "--output", str(output), "--threads", str(threads), *extra)


def read(path):
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("suffix,output_format", [(".txt", "plain"), (".tsv", "tsv"),
                                                  (".jsonl.gz", "jsonl")])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("workers", [2, 3])
def test_output_equals_one_process(tmp_path, capsys, corpus, cpus, forks, workers, strategy,
                                   suffix, output_format):
    outputs = []
    for threads in (1, workers):
        out = tmp_path / f"m{threads}{suffix}"
        code, stdout, _ = mask(capsys, corpus, strategy, out, threads,
                               "--output-format", output_format)
        assert code == 0
        assert stdout == f"masked {RECORDS} captions -> {out}\n"
        outputs.append(read(out))
    assert len(forks) == workers
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == RECORDS
    assert_no_children()


@pytest.mark.parametrize("records", [0, 1, BLOCK, 2 * BLOCK, 3 * BLOCK, 3 * BLOCK + 1])
def test_block_boundaries(tmp_path, capsys, cpus, forks, records):
    """Corpora that end on, just after, or before a block boundary."""
    path = tmp_path / "c.txt"
    path.write_text("".join(f"caption {i} words here\n" for i in range(records)), encoding="utf-8")
    outputs = []
    for threads in (1, 3):
        out = tmp_path / f"m{threads}.txt"
        code, stdout, _ = run(capsys, "mask", "--input", str(path), "--strategy", "random",
                              "--k", "2", "--output", str(out), "--threads", str(threads))
        assert code == 0 and stdout == f"masked {records} captions -> {out}\n"
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == records
    assert_no_children()


def jsonl_corpus(tmp_path, bad_json=(), tsv_unsafe=()):
    lines = []
    for i in range(RECORDS):
        record_id = f"x\ty{i}" if i in tsv_unsafe else f"id{i}"
        lines.append(json.dumps({"id": record_id, "caption": f"caption number {i} of many"}))
    for i in bad_json:
        lines[i] = "{not json"
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# Record 10 is in block 1 (worker 1's for N = 2 and 3), 16 in block 2
# (worker 0's for N = 2, worker 2's for N = 3). A worker that
# read past the end of its block would meet a later bad line early and
# report it in place of an earlier bad record. Record 22 is in block 3
# and 30 in block 4 (worker 1's and 0's for N = 2): worker 0 skips line
# 23 unparsed and fails only at record 30, a block after the first error.
@pytest.mark.parametrize("bad_json,tsv_unsafe,message", [
    ((10,), (), ":11: invalid JSON"),
    ((), (10,), "error: record 10: id 'x\\ty10'"),
    ((16,), (), ":17: invalid JSON"),
    ((), (16,), "error: record 16: id 'x\\ty16'"),
    ((16,), (10,), "error: record 10: id"),
    ((10,), (16,), ":11: invalid JSON"),
    ((12,), (9,), "error: record 9: id"),
    ((18,), (16,), "error: record 16: id"),
    ((22,), (30,), ":23: invalid JSON"),
], ids=["json-block1", "tsv-block1", "json-block2", "tsv-block2",
        "tsv-before-json", "json-before-tsv", "both-in-block1", "both-in-block2",
        "json-block3-before-tsv-block4"])
@pytest.mark.parametrize("workers", [2, 3])
def test_first_error_in_input_order(tmp_path, capsys, cpus, workers, bad_json, tsv_unsafe,
                                    message):
    path = jsonl_corpus(tmp_path, bad_json, tsv_unsafe)
    out = tmp_path / "m.tsv"
    old = b"old output\n" * 5
    results = []
    for threads in (1, workers):
        out.write_bytes(old)
        code, stdout, err = run(capsys, "mask", "--input", str(path), "--format", "jsonl",
                                "--strategy", "truncation", "--output-format", "tsv",
                                "--output", str(out), "--threads", str(threads))
        results.append((code, stdout, err))
        assert out.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "m.tsv"]
        assert_no_children()
    assert results[0] == results[1]
    code, stdout, err = results[1]
    assert code == 1 and stdout == "" and message in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int digit limit")
@pytest.mark.parametrize("field", ["id", "score"])
@pytest.mark.parametrize("workers", [2, 3])
def test_integer_past_digit_limit_reported_like_one_process(tmp_path, capsys, cpus, workers,
                                                            field):
    """json.loads raises a plain ValueError for an integer of more than
    4300 digits; it is reported with its location, and the old output kept."""
    path = jsonl_corpus(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[10] = '{"%s": 1%s, "caption": "a dog"}' % (field, "0" * 5000)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "m.jsonl"
    results = []
    for threads in (1, workers):
        out.write_bytes(b"old\n")
        results.append(run(capsys, "mask", "--input", str(path), "--format", "jsonl",
                           "--strategy", "truncation", "--output", str(out),
                           "--threads", str(threads)))
        assert out.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "m.jsonl"]
        assert_no_children()
    assert results[0] == results[1]
    code, stdout, err = results[1]
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: {path}:11: invalid JSON: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("workers", [2, 3])
def test_compressed_output_equals_one_process(tmp_path, capsys, corpus, cpus, monkeypatch,
                                              workers):
    """A .gz output is the same bytes, gzip header included, on every run
    and for any --threads, however much time passes between runs."""
    ticks = itertools.count(1_000_000_000, 86_400)
    monkeypatch.setattr(time, "time", lambda: next(ticks))
    outputs = []
    for run_dir, threads in (("a", 1), ("b", 1), ("c", workers)):
        out = tmp_path / run_dir / "m.jsonl.gz"
        out.parent.mkdir()
        assert mask(capsys, corpus, "syntax", out, threads, "--output-format", "jsonl")[0] == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][10:18] == b"m.jsonl\0"  # the gzip header's FNAME


def test_threads_capped_at_cpu_count(tmp_path, capsys, corpus, cpus, forks):
    cpus(2)
    out = tmp_path / "m.txt"
    code, stdout, _ = mask(capsys, corpus, "frequency", out, 64)
    assert code == 0 and stdout.count("masked") == 1
    assert len(forks) == 2
    assert_no_children()


def test_cpu_count_used_without_affinity(tmp_path, capsys, corpus, cpus, forks, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert mask(capsys, corpus, "random", tmp_path / "m.txt", 64)[0] == 0
    assert len(forks) == 3


@pytest.mark.parametrize("threads", [1, 0, -3])
def test_one_or_fewer_threads_never_forks(tmp_path, capsys, corpus, cpus, forks, threads):
    """One thread masks in this process; fewer is a usage error."""
    if threads < 1:
        with pytest.raises(SystemExit) as exc:
            mask(capsys, corpus, "random", tmp_path / "m.txt", threads)
        assert exc.value.code == 2
    else:
        assert mask(capsys, corpus, "random", tmp_path / "m.txt", threads)[0] == 0
    assert forks == []


def test_serial_without_fork(tmp_path, capsys, corpus, cpus, monkeypatch):
    one, many = tmp_path / "one.txt", tmp_path / "many.txt"
    assert mask(capsys, corpus, "swclip", one, 1)[0] == 0
    monkeypatch.delattr(os, "fork")
    assert mask(capsys, corpus, "swclip", many, 4)[0] == 0
    assert one.read_bytes() == many.read_bytes()


def test_worker_that_dies_fails_the_run(tmp_path, capsys, corpus, cpus, monkeypatch):
    """A worker gone without its end-of-input frame is an error, not a short corpus."""
    monkeypatch.setattr(shard, "_serve", lambda *args: os._exit(0))
    out = tmp_path / "m.txt"
    out.write_bytes(b"old\n")
    code, stdout, err = mask(capsys, corpus, "random", out, 2)
    assert code == 1 and stdout == ""
    assert "error: mask worker" in err and "exited before sending block 0" in err
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.freq", "c.tsv", "m.txt"]
    assert_no_children()


def test_unwritable_output_forks_nothing(tmp_path, capsys, corpus, cpus, forks):
    """The output is opened before any worker starts, as in one process."""
    out = tmp_path / "missing" / "m.txt"
    code, stdout, err = mask(capsys, corpus, "random", out, 2)
    assert (code, stdout) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.freq", "c.tsv"]
    assert forks == []
    assert_no_children()


@pytest.mark.parametrize("workers", [2, 3])
def test_bad_gzip_trailer_reported_like_one_process(tmp_path, capsys, cpus, workers):
    """A gzip CRC error is raised at the end of the input, by whichever
    worker reads to it."""
    path = tmp_path / "c.txt.gz"
    data = bytearray(gzip.compress("".join(f"caption {i} words\n" for i in range(RECORDS))
                                   .encode("utf-8")))
    data[-8] ^= 0xFF
    path.write_bytes(bytes(data))
    out = tmp_path / "m.txt"
    results = []
    for threads in (1, workers):
        out.write_bytes(b"old\n")
        results.append(run(capsys, "mask", "--input", str(path), "--strategy", "random",
                           "--output", str(out), "--threads", str(threads)))
        assert out.read_bytes() == b"old\n"
        assert_no_children()
    assert results[0] == results[1]
    code, stdout, err = results[1]
    assert code == 1 and stdout == "" and err.startswith(f"error: {path}: CRC check failed")


def end_of(capsys, *argv):
    """How ``main(argv)`` ends: (code, stdout, stderr), or the exception it raises."""
    try:
        return run(capsys, *argv)
    except Exception as exc:
        capsys.readouterr()
        return type(exc), exc.args


def ends_like_one_process(tmp_path, capsys, workers, *argv):
    """``mask *argv`` over an old output, at --threads 1 and ``workers``:
    both keep the old output, leave no temp file or child, and end alike.
    Returns how they end."""
    out = tmp_path / "m.out"
    out.write_bytes(b"old\n")
    names = sorted(os.listdir(tmp_path))
    ends = []
    for threads in (1, workers):
        ends.append(end_of(capsys, "mask", *argv, "--output", str(out),
                           "--threads", str(threads)))
        assert out.read_bytes() == b"old\n"
        assert sorted(os.listdir(tmp_path)) == names
        assert_no_children()
    assert ends[0] == ends[1]
    return ends[1]


# Record 10 is in block 1, worker 1's for N = 2 and 3; record 16 is in
# block 2, worker 0's for N = 2 and worker 2's for N = 3.
@pytest.mark.parametrize("index", [10, 16])
@pytest.mark.parametrize("workers", [2, 3])
def test_any_exception_ends_like_one_process(tmp_path, capsys, cpus, monkeypatch, workers,
                                             index):
    """Not only the errors the CLI reports: a worker that fails sends
    nothing more, the caller masks the missing block itself, and ``main``
    raises what a one-process run raises."""
    real_seed = cli.record_seed

    def record_seed(seed, i, epoch=0):
        if i == index:
            raise KeyError(f"no seed for record {i}")
        return real_seed(seed, i, epoch)

    monkeypatch.setattr(cli, "record_seed", record_seed)
    path = jsonl_corpus(tmp_path)
    assert ends_like_one_process(tmp_path, capsys, workers, "--input", str(path), "--format",
                                 "jsonl", "--strategy", "random"
                                 ) == (KeyError, (f"no seed for record {index}",))


@pytest.mark.parametrize("suffix", ["", ".gz"], ids=["raw", "gz"])
@pytest.mark.parametrize("workers", [2, 3])
def test_invalid_utf8_in_a_worker_block(tmp_path, capsys, monkeypatch, cpus, workers, suffix):
    """Decoding fails at line 151, in a forked worker's block 1; the
    message names that line in every process."""
    monkeypatch.setattr(shard, "B", 100)
    path = tmp_path / ("c.txt" + suffix)
    lines = [f"caption {i:04d} ".ljust(63, "x").encode("ascii") + b"\n" for i in range(400)]
    lines[150] = b"\xff" + lines[150][1:]
    data = b"".join(lines)
    path.write_bytes(gzip.compress(data) if suffix else data)
    code, stdout, err = ends_like_one_process(tmp_path, capsys, workers, "--input", str(path),
                                              "--strategy", "random")
    assert (code, stdout, err) == (1, "", f"error: {path}:151: 'utf-8' codec can't decode "
                                          "byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("case", ["jsonl", "pretagged", "freq-table", "lexicon"])
@pytest.mark.parametrize("workers", [2, 3])
def test_first_bad_line_in_file_order_is_reported(tmp_path, capsys, cpus, workers, case):
    """Line 2 is malformed and line 3 undecodable, within the same 8 KiB
    of one file: every process reports line 2."""
    corpus, bad = str(jsonl_corpus(tmp_path)), str(tmp_path / "bad")
    line_1, line_2, message, argv = {
        "jsonl": (b'{"caption": "a dog"}', b"{not json",
                  "invalid JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)",
                  ["--input", bad, "--format", "jsonl", "--strategy", "truncation"]),
        "pretagged": (b"the/DT dog/NN", b"the/DT cat", "malformed word/TAG pair at index 1: 'cat'",
                      ["--input", bad, "--pretagged", "--strategy", "random"]),
        "freq-table": (b"#total 2", b"caption", "expected '<word>\\t<count>'",
                       ["--input", corpus, "--format", "jsonl", "--strategy", "frequency",
                        "--freq-table", bad]),
        "lexicon": (b"caption\tNN", b"number", "expected '<word>\\t<TAG>'",
                    ["--input", corpus, "--format", "jsonl", "--strategy", "syntax",
                     "--lexicon", bad]),
    }[case]
    with open(bad, "wb") as fh:
        fh.write(b"\n".join([line_1, line_2, b"\xff"] + [line_1] * RECORDS) + b"\n")
    assert ends_like_one_process(tmp_path, capsys, workers, *argv) == (
        1, "", f"error: {bad}:2: {message}\n")


@pytest.mark.parametrize("field", ["caption", "id"])
def test_lone_surrogate_in_a_worker_block(tmp_path, capsys, cpus, field):
    """Record 10 is in block 1, a forked worker's: it fails on read with
    its line named, as in one process, not when its output is encoded."""
    path = jsonl_corpus(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[10] = lines[10].replace(f'"{field}": "', f'"{field}": "\\ud800', 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert ends_like_one_process(tmp_path, capsys, 2, "--input", str(path), "--format", "jsonl",
                                 "--strategy", "truncation") == (
        1, "", f"error: {path}:11: '{field}' holds a lone surrogate: 'utf-8' codec can't "
               "encode character '\\ud800' in position 0: surrogates not allowed\n")


@pytest.mark.parametrize("workers", [2, 3])
def test_malformed_pretagged_caption_in_a_worker_block(tmp_path, capsys, cpus, workers):
    """Record 10 is in block 1, a forked worker's; the message names its line."""
    path = tmp_path / "c.txt"
    lines = [f"caption/NN {i}/CD" for i in range(RECORDS)]
    lines[10] = "the/DT cat"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code, stdout, err = ends_like_one_process(tmp_path, capsys, workers, "--input", str(path),
                                              "--pretagged", "--strategy", "random")
    assert (code, stdout, err) == (
        1, "", f"error: {path}:11: malformed word/TAG pair at index 1: 'cat'\n")


@pytest.mark.parametrize("workers", [2, 3])
def test_deeply_nested_json_in_a_worker_block(tmp_path, capsys, cpus, workers):
    path = jsonl_corpus(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[10] = "[" * 100_000 + "]" * 100_000
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, stdout, err = ends_like_one_process(tmp_path, capsys, workers, "--input", str(path),
                                              "--format", "jsonl", "--strategy", "truncation")
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: {path}:11: invalid JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize("workers", [2, 3])
def test_gzip_input_cut_short_in_a_worker_block(tmp_path, capsys, cpus, workers):
    """The stream ends, with no final block or trailer, inside record 10."""
    text = "".join(f"caption {i} words\n" for i in range(RECORDS)).encode("utf-8")
    compressor = zlib.compressobj(wbits=31)
    path = tmp_path / "c.txt.gz"
    path.write_bytes(compressor.compress(text[:text.index(b"caption 10 ") + 5])
                     + compressor.flush(zlib.Z_SYNC_FLUSH))
    code, stdout, err = ends_like_one_process(tmp_path, capsys, workers, "--input", str(path),
                                              "--strategy", "random")
    assert (code, stdout) == (1, "")
    assert err == (f"error: {path}: Compressed file ended before the end-of-stream marker "
                   "was reached\n")


def _feed(path, data):
    def write():
        with open(path, "wb") as fh:
            fh.write(data)

    threading.Thread(target=write, daemon=True).start()


@pytest.mark.parametrize("kind", ["fifo", "pipe"])
def test_stream_input_runs_in_one_process(tmp_path, capsys, corpus, cpus, forks, kind):
    """Every worker opens the input itself, so a FIFO or a pipe (as in
    ``--input <(zcat big.gz)``) would be split between them: a stream is
    masked in one process, with the output of a regular-file run."""
    if kind == "pipe" and not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    path, table = corpus
    one, many = tmp_path / "one.tsv", tmp_path / "many.tsv"
    assert mask(capsys, corpus, "frequency", one, 1)[0] == 0
    if kind == "fifo":
        stream = tmp_path / "in.fifo"
        os.mkfifo(stream)
        _feed(stream, path.read_bytes())
    else:
        read_fd, write_fd = os.pipe()
        stream = f"/dev/fd/{read_fd}"
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(path.read_bytes())
    try:
        assert mask(capsys, (stream, table), "frequency", many, 2)[0] == 0
    finally:
        if kind == "pipe":
            os.close(read_fd)
    assert forks == []
    assert one.read_bytes() == many.read_bytes()


def test_cpus_dealt_round_robin(monkeypatch):
    """One set per worker, capped at the CPUs this process may use; empty
    sets (unpinned workers) where the CPUs cannot be read or pinned."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7, 0, 2, 5, 3}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert shard._cpu_sets(1) == [{0, 2, 3, 5, 7}]
    assert shard._cpu_sets(2) == [{0, 3, 7}, {2, 5}]
    assert shard._cpu_sets(5) == shard._cpu_sets(64) == [{0}, {2}, {3}, {5}, {7}]
    monkeypatch.delattr(os, "sched_setaffinity")
    assert shard._cpu_sets(2) == [set(), set()]
    assert shard._cpu_sets(64) == [set()] * 5
    monkeypatch.delattr(os, "sched_getaffinity")
    assert shard._cpu_sets(64) == [set()] * 8
    assert shard._cpu_sets(3) == [set()] * 3


@needs_pinning
def test_workers_run_on_disjoint_cpus(tmp_path, capsys, corpus, monkeypatch):
    """Each masked record logs ``pid cpus`` from whichever process masks it."""
    monkeypatch.setattr(shard, "B", BLOCK)
    log = tmp_path / "affinity.log"
    real_seed = cli.record_seed

    def record_seed(seed, i, epoch=0):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {' '.join(map(str, sorted(os.sched_getaffinity(0))))}\n")
        return real_seed(seed, i, epoch)

    monkeypatch.setattr(cli, "record_seed", record_seed)
    assert mask(capsys, corpus, "frequency", tmp_path / "m.txt", 2)[0] == 0
    by_pid = {}
    for entry in log.read_text(encoding="utf-8").splitlines():
        pid, *cpus = map(int, entry.split())
        by_pid.setdefault(pid, set()).add(frozenset(cpus))
    assert len(by_pid) == 2 and os.getpid() not in by_pid
    assert all(len(sets) == 1 for sets in by_pid.values())
    first, second = (sets.pop() for sets in by_pid.values())
    assert first and second and not first & second
    assert first | second == REAL_CPUS
    assert os.sched_getaffinity(0) == REAL_CPUS


@needs_pinning
@pytest.mark.parametrize("ending", ["clean", "bad-block-0", "bad-block-1", "interrupt"])
def test_caller_affinity_never_set(tmp_path, capsys, monkeypatch, ending):
    """The caller only merges: it never pins itself, on a clean run, on a
    bad record in block 0 or 1, or on Ctrl-C while it merges."""
    monkeypatch.setattr(shard, "B", BLOCK)
    caller = os.getpid()
    pinned = []
    real_set = os.sched_setaffinity

    def set_affinity(pid, cpus):
        if os.getpid() == caller:
            pinned.append(set(cpus))
        real_set(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", set_affinity)
    bad_record = {"bad-block-0": 3, "bad-block-1": BLOCK + 3}.get(ending)
    path = jsonl_corpus(tmp_path, bad_json=() if bad_record is None else (bad_record,))
    out = tmp_path / "m.txt"
    out.write_bytes(b"old\n")
    argv = ("mask", "--input", str(path), "--format", "jsonl", "--strategy", "random",
            "--output", str(out), "--threads", "2")
    if ending == "interrupt":
        real_receive = shard._receive
        frames = []

        def receive(reader):
            frames.append(reader)
            if len(frames) == 2:  # block 0 is already written to the temp file
                raise KeyboardInterrupt
            return real_receive(reader)

        monkeypatch.setattr(shard, "_receive", receive)
        with pytest.raises(KeyboardInterrupt):
            run(capsys, *argv)
        assert out.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "m.txt"]
    else:
        code, _, err = run(capsys, *argv)
        assert code == (0 if bad_record is None else 1)
        assert bad_record is None or f":{bad_record + 1}: invalid JSON" in err
    assert pinned == []
    assert os.sched_getaffinity(0) == REAL_CPUS
    assert_no_children()


@pytest.mark.parametrize("pinning", ["fails", "missing"])
@pytest.mark.parametrize("workers", [2, 3])
def test_unpinned_output_equals_one_process(tmp_path, capsys, corpus, cpus, forks, monkeypatch,
                                            workers, pinning):
    one, many = tmp_path / "one.txt", tmp_path / "many.txt"
    assert mask(capsys, corpus, "frequency", one, 1)[0] == 0
    log = tmp_path / "pins.log"
    if pinning == "fails":
        def refuse(pid, cpus):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    code, stdout, _ = mask(capsys, corpus, "frequency", many, workers)
    assert code == 0 and stdout == f"masked {RECORDS} captions -> {many}\n"
    assert len(forks) == workers
    tried = log.read_text(encoding="utf-8").split() if log.exists() else []
    assert len(tried) == len(set(tried)) == (workers if pinning == "fails" else 0)
    assert str(os.getpid()) not in tried  # each worker tried once, the caller never
    assert one.read_bytes() == many.read_bytes()
    assert_no_children()
