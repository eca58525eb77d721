"""Mask a corpus across forked worker processes, byte-identical to one process.

This module alone decides how ``mask --threads N`` runs. It masks in the
calling process where ``os.fork`` is missing, where the input is not a
regular file (every worker opens and reads it from the start, so a pipe,
FIFO or device would be split between them), or where the CPUs this
process may use (its affinity, else ``os.cpu_count()``) leave room for
one worker only. Otherwise it forks ``min(N, CPUs)`` workers.

Records are dealt out in blocks of ``B``: record ``i`` belongs to worker
``(i // B) % workers``. The calling process opens the output, then forks
all ``workers`` workers, then merges; it masks nothing itself, so an
unwritable output fails before any worker starts. Every worker decodes
the whole input itself, parses and masks only the records it owns and
sends each finished block to the caller as one frame over its own pipe.
The caller writes blocks 0, 1, 2, ... to the output file, so the output
is the serial output and no process holds more than about one block of it.

A frame is a header (records, payload bytes) and a payload, the block's
output lines as UTF-8. One holding fewer than ``B`` records is the
worker's last, so an empty one marks the end of the input. A worker that
fails sends nothing more and exits. When a worker's frame for block
``b`` is missing or cut short, the caller masks block ``b`` itself. Every
earlier block is written by then, so the first bad record in input order
is in block ``b`` or later, and masking the block raises what
``write_masked`` raises on it, whatever its type. If the block masks
cleanly, the worker died of something else: a ``ChildProcessError``. The
caller's lines never stand in for a worker's.

Workers are forked, not spawned: they inherit the frequency table, tag
memo and config already built, and nothing is pickled.

Each worker runs on its own share of the CPUs this process may use: the
sorted CPUs are dealt round-robin into one set per worker, and each
worker restricts itself to its set. Left unpinned, the scheduler tends
to wake a process on the CPU of the process that woke it, so on a small
machine two processes trading frames over a pipe share one CPU and run
no faster than one. Pinning is best effort: where the platform lacks
``os.sched_setaffinity`` or a call fails, the workers run unpinned. Only
the workers pin; the caller's own CPU affinity is never touched. A
pinned worker cannot leave a CPU that other work keeps busy, so with one
CPU per worker a busy neighbour slows the whole run.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import signal
import struct
import sys
from typing import IO, Callable, Iterator

from .corpus_io import CaptionRecord, line_formatter, open_text_write, write_masked
from .maskers import MaskedOutput

# Records per block. One block of jsonl output (about 100 bytes a record
# at the default k) fits in a 64 KiB pipe buffer, so a worker can finish
# its next block while the caller is still writing earlier ones.
B = 256

_HEADER = struct.Struct("<II")

Pairs = Iterator[tuple[CaptionRecord, MaskedOutput]]
Line = Callable[[CaptionRecord, MaskedOutput], str]


def write_sharded(
    pairs_for: Callable[[Callable[[int], bool] | None], Pairs],
    path: str,
    format: str,
    threads: int,
    input_path: str,
) -> int:
    """Write what ``write_masked(pairs_for(None), path, format)`` writes,
    with the masking spread over up to ``threads`` forked processes that
    read ``input_path``, or done in this process where they cannot run.

    ``pairs_for(owns)`` must yield the masked pairs of exactly the records
    whose index satisfies ``owns`` (every record for None), in input
    order; each worker calls it once. Returns the number of records written.
    """
    cpu_sets = _cpu_sets(threads)
    # isfile also accepts a symlink to a regular file.
    if len(cpu_sets) < 2 or not hasattr(os, "fork") or not os.path.isfile(input_path):
        return write_masked(pairs_for(None), path, format)
    workers = len(cpu_sets)
    line = line_formatter(format)
    children: list[tuple[int, IO[bytes]]] = []
    sys.stdout.flush()
    sys.stderr.flush()
    # The workers inherit this writer and must never flush or close it (a
    # .gz header would be written twice); they leave by os._exit.
    with open_text_write(path) as fh:
        try:
            for worker in range(workers):
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:
                    inherited = [read_fd] + [reader.fileno() for _, reader in children]
                    _serve(pairs_for, line, worker, workers, write_fd, inherited,
                           cpu_sets[worker])
                os.close(write_fd)
                children.append((pid, os.fdopen(read_fd, "rb")))

            for block in itertools.count():
                pid, reader = children[block % workers]
                frame = _receive(reader)
                if frame is None:
                    # A bad record in this block raises here as in one process.
                    _block_lines(pairs_for(lambda i: i // B == block), line)
                    raise ChildProcessError(
                        f"mask worker {pid} exited before sending block {block}")
                records, text = frame
                fh.write(text)
                if records < B:
                    # Every earlier block held B records.
                    return block * B + records
        finally:
            for _, reader in children:
                reader.close()
            for pid, _ in children:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)


def _cpu_sets(threads: int) -> list[set[int]]:
    """One CPU set per worker, for ``threads`` workers capped at the CPUs
    this process may use: those CPUs dealt round-robin, or empty sets
    (run unpinned) where they cannot be read or pinned."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    workers = min(threads, len(cpus) or os.cpu_count() or 1)
    pin = cpus and hasattr(os, "sched_setaffinity")
    return [set(cpus[worker::workers]) if pin else set() for worker in range(workers)]


def _block_lines(pairs: Pairs, line: Line) -> list[str]:
    """The output lines of the next ``B`` pairs, without reading past them."""
    return [line(record, output) for record, output in itertools.islice(pairs, B)]


def _serve(pairs_for, line: Line, worker: int, workers: int, write_fd: int,
           inherited: list[int], cpus: set[int]) -> None:
    """A forked worker's whole life: close the read ends it inherited, pin
    itself to ``cpus`` unless empty, send its blocks, then leave via
    ``os._exit``, never returning to the caller. On any error it stops
    sending; the caller finds its frame missing."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        if cpus:
            with contextlib.suppress(OSError):  # best effort: run unpinned
                os.sched_setaffinity(0, cpus)
        with os.fdopen(write_fd, "wb") as out:
            pairs = pairs_for(lambda index: index // B % workers == worker)
            while True:
                lines = _block_lines(pairs, line)
                data = "".join(lines).encode("utf-8")
                out.write(_HEADER.pack(len(lines), len(data)) + data)
                out.flush()
                if len(lines) < B:
                    break
        status = 0
    finally:
        os._exit(status)


def _receive(reader: IO[bytes]) -> tuple[int, str] | None:
    """The next frame's (records, text), or None if it is missing or cut short."""
    header = reader.read(_HEADER.size)
    if len(header) == _HEADER.size:
        records, size = _HEADER.unpack(header)
        payload = reader.read(size)
        if len(payload) == size:
            return records, payload.decode("utf-8")
    return None
