"""`mask --threads N` across forked workers, run in-process through `cli.main`.

``shard.B`` is patched small so that a corpus of 150 records
spans many blocks and every worker sends many frames, and the CPU count
is patched so that N workers really start on any machine.
"""

import gzip
import io
import json
import os
import random
import threading

import pytest

from textmask import shard
from textmask.cli import main
from textmask.maskers import STRATEGIES

BLOCK = 7
RECORDS = 150  # > 3 * 3 blocks of 7, plus a short last block


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Blocks of BLOCK records and 4 CPUs; returns a setter for the CPU count."""
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
    assert len(forks) == workers - 1
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


# Record 10 is in block 1 (child-owned for N = 2 and 3), 16 in block 2
# (the parent's for N = 2, the second child's for N = 3). A worker that
# read past the end of its block would meet a later bad line early and
# report it in place of an earlier bad record.
@pytest.mark.parametrize("bad_json,tsv_unsafe,message", [
    ((10,), (), ":11: invalid JSON"),
    ((), (10,), "error: record 10: id 'x\\ty10'"),
    ((16,), (), ":17: invalid JSON"),
    ((), (16,), "error: record 16: id 'x\\ty16'"),
    ((16,), (10,), "error: record 10: id"),
    ((10,), (16,), ":11: invalid JSON"),
    ((12,), (9,), "error: record 9: id"),
    ((18,), (16,), "error: record 16: id"),
], ids=["json-block1", "tsv-block1", "json-block2", "tsv-block2",
        "tsv-before-json", "json-before-tsv", "both-in-block1", "both-in-block2"])
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


def test_threads_capped_at_cpu_count(tmp_path, capsys, corpus, cpus, forks):
    cpus(2)
    out = tmp_path / "m.txt"
    code, stdout, _ = mask(capsys, corpus, "frequency", out, 64)
    assert code == 0 and stdout.count("masked") == 1
    assert len(forks) == 1
    assert_no_children()


def test_cpu_count_used_without_affinity(tmp_path, capsys, corpus, cpus, forks, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert mask(capsys, corpus, "random", tmp_path / "m.txt", 64)[0] == 0
    assert len(forks) == 2


@pytest.mark.parametrize("threads", [1, 0, -3])
def test_one_or_fewer_threads_never_forks(tmp_path, capsys, corpus, cpus, forks, threads):
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
    assert "error: mask worker" in err and "exited before sending block 1" in err
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.freq", "c.tsv", "m.txt"]
    assert_no_children()


@pytest.mark.parametrize("exc,error", [
    (ValueError("bad"), ValueError("bad")),
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
     ValueError("'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")),
    (FileNotFoundError(2, "gone"), ValueError("[Errno 2] gone")),
    (gzip.BadGzipFile("CRC check failed 0x1 != 0x2"), ValueError("CRC check failed 0x1 != 0x2")),
    (KeyError("k"), RuntimeError("mask worker failed with KeyError: 'k'")),
    (KeyboardInterrupt(), RuntimeError("mask worker failed with KeyboardInterrupt: ")),
], ids=["ValueError", "UnicodeDecodeError", "FileNotFoundError", "BadGzipFile", "KeyError",
        "KeyboardInterrupt"])
def test_error_frame_keeps_the_message(exc, error):
    """What the CLI reports as ``error: <message>`` (ValueError, OSError and
    their subclasses, builtin or not) comes back as a ValueError with the
    same message; anything else as a RuntimeError naming its type."""
    with pytest.raises(type(error)) as raised:
        shard._receive(1, io.BytesIO(shard._error_frame(exc)), 0)
    assert type(raised.value) is type(error) and str(raised.value) == str(error)


@pytest.mark.parametrize("workers", [2, 3])
def test_bad_gzip_trailer_reported_like_one_process(tmp_path, capsys, cpus, workers):
    """A gzip CRC error is raised at the end of the input, by whichever
    worker reads to it: with 2 workers a forked one owns the last block."""
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
    assert code == 1 and stdout == "" and err.startswith("error: CRC check failed")


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
