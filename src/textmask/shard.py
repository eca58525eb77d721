"""Mask a corpus across forked worker processes, byte-identical to one process.

Records are dealt out in blocks of ``B``: record ``i`` belongs to worker
``(i // B) % workers``. Worker 0 is the calling process; the others are
forked from it. Every worker reads the whole input itself and masks only
the records it owns. A forked worker sends each finished block to the
caller as one frame over its own pipe, and the caller writes blocks 0, 1,
2, ... to the output file, masking its own blocks in turn, so the output
is the serial output and no process holds more than about one block of it.

A frame is a header (kind, records, payload bytes) and a payload. A data
frame carries the block's output lines as UTF-8; one holding fewer than
``B`` records is the worker's last, so an empty one marks the end of the
input. An error frame is the worker's last. Its kind says whether the
error is one the CLI reports as ``error: <message>`` (a ValueError or
OSError, subclasses included), which the caller raises as a ValueError
with the same message, or another failure, raised as a RuntimeError.
A worker that fails sends it in place of the block it was working on,
and since every worker reaches the records of other workers' blocks
only after its own earlier blocks, the caller meets the first bad record
in input order first and raises its error there, as ``write_masked``
would.

Workers are forked, not spawned: they inherit the frequency table, tag
memo and config already built, and nothing is pickled. The input must be
a regular file, since every worker opens and reads it from the start.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import signal
import struct
import sys
from typing import IO, Callable, Iterator

from .corpus_io import CaptionRecord, format_record, open_text_write
from .maskers import MaskedOutput

# Records per block. One block of jsonl output (about 100 bytes a record
# at the default k) fits in a 64 KiB pipe buffer, so a worker can finish
# its next block while the caller is still writing earlier ones.
B = 256

_HEADER = struct.Struct("<BII")
_DATA, _ERROR, _FAILURE = 0, 1, 2

Pairs = Iterator[tuple[CaptionRecord, MaskedOutput]]


def write_sharded(
    pairs_for: Callable[[Callable[[int], bool]], Pairs],
    path: str,
    format: str,
    workers: int,
) -> int:
    """Write what ``write_masked(pairs_for(lambda i: True), path, format)``
    writes, with the masking spread over ``workers`` processes.

    ``pairs_for(owns)`` must yield the masked pairs of exactly the records
    whose index satisfies ``owns``, in input order; each worker calls it
    once. Returns the number of records written.
    """
    children: list[tuple[int, IO[bytes]]] = []
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                inherited = [read_fd] + [reader.fileno() for _, reader in children]
                _serve(pairs_for, format, worker, workers, write_fd, inherited)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))

        own = pairs_for(_owner(0, workers))
        written = 0
        with open_text_write(path) as fh:
            for block in itertools.count():
                worker = block % workers
                if worker == 0:
                    lines = _block_lines(own, format)
                    records, text = len(lines), "".join(lines)
                else:
                    records, text = _receive(*children[worker - 1], block)
                fh.write(text)
                written += records
                if records < B:
                    return written
    finally:
        for _, reader in children:
            reader.close()
        for pid, _ in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _owner(worker: int, workers: int) -> Callable[[int], bool]:
    return lambda index: index // B % workers == worker


def _block_lines(pairs: Pairs, format: str) -> list[str]:
    """The output lines of the next ``B`` pairs, without reading past them."""
    return [format_record(record, output, format)
            for record, output in itertools.islice(pairs, B)]


def _serve(pairs_for, format: str, worker: int, workers: int, write_fd: int,
           inherited: list[int]) -> None:
    """A forked worker's whole life: close the read ends it inherited, send
    its blocks, then leave via ``os._exit``, never returning to the caller."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(write_fd, "wb") as out:
            try:
                pairs = pairs_for(_owner(worker, workers))
                while True:
                    lines = _block_lines(pairs, format)
                    data = "".join(lines).encode("utf-8")
                    out.write(_HEADER.pack(_DATA, len(lines), len(data)) + data)
                    out.flush()
                    if len(lines) < B:
                        break
                status = 0
            except BaseException as exc:
                out.write(_error_frame(exc))
    finally:
        os._exit(status)


def _error_frame(exc: BaseException) -> bytes:
    if isinstance(exc, (ValueError, OSError)):
        kind, text = _ERROR, str(exc)
    else:
        kind, text = _FAILURE, f"{type(exc).__name__}: {exc}"
    data = text.encode("utf-8", "replace")
    return _HEADER.pack(kind, 0, len(data)) + data


def _receive(pid: int, reader: IO[bytes], block: int) -> tuple[int, str]:
    """Read one frame: (records, text) of a data frame; an error frame raises."""
    kind, records, size = _HEADER.unpack(_read(pid, reader, block, _HEADER.size))
    payload = _read(pid, reader, block, size).decode("utf-8")
    if kind == _DATA:
        return records, payload
    if kind == _ERROR:
        raise ValueError(payload)
    raise RuntimeError(f"mask worker failed with {payload}")


def _read(pid: int, reader: IO[bytes], block: int, size: int) -> bytes:
    data = reader.read(size)
    if len(data) != size:
        raise ChildProcessError(f"mask worker {pid} exited before sending block {block}")
    return data
