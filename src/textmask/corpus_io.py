"""Stream caption corpora in and masked corpora out.

Formats:
    plain   one caption per line; record id is the 0-based line index
    tsv     "<id>\\t<caption>" per line
    jsonl   one JSON object per line with "caption" (required) and "id"

Everything is UTF-8; a ``.gz`` suffix gets transparent gzip handling.
Lines end at ``\n`` (a trailing ``\r`` is dropped, so CRLF files read the
same); a lone ``\r`` stays inside its line. Output order always matches
input order, so image/text pairings are never disturbed; empty masked
captions are still emitted. Output files appear only once complete.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .maskers import MaskedOutput

FORMATS = ("plain", "tsv", "jsonl")


@dataclass
class CaptionRecord:
    index: int
    id: str
    text: str


def _open_text(path: str, mode: str, gz: bool) -> IO[str]:
    # newline="\n": lines end at \n only, so a lone \r stays inside its line.
    # compresslevel=6 is the gzip tool's default; gzip.open's 9 is slower
    # for a few percent smaller files.
    if gz:
        return gzip.open(path, mode + "t", compresslevel=6, encoding="utf-8", newline="\n")
    return open(path, mode, encoding="utf-8", newline="\n")


def open_text_read(path: str) -> IO[str]:
    return _open_text(path, "r", str(path).endswith(".gz"))


@contextlib.contextmanager
def open_text_write(path: str) -> Iterator[IO[str]]:
    """Write ``path`` as a whole or not at all.

    A missing path or regular file is written to ``<path>.<pid>.tmp`` and
    moved into place when the block exits cleanly; on error the temp file
    is removed and the old file is left as it was. A symlink, device or
    pipe is written through in place.
    """
    gz = str(path).endswith(".gz")
    if os.path.lexists(path) and (os.path.islink(path) or not os.path.isfile(path)):
        with _open_text(path, "w", gz) as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = _open_text(tmp, "x", gz)
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(tmp)
        raise
    # Unlink the old file rather than rename over it: ext4 flushes a file
    # that replaces an existing one to disk at once, blocking the writer.
    if os.path.lexists(path):
        os.unlink(path)
    os.rename(tmp, path)


def _check_format(format: str) -> None:
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format {format!r}; expected one of {FORMATS}")


def read_corpus(path: str, format: str = "plain") -> Iterator[CaptionRecord]:
    """Yield records in file order with dense 0-based indices."""
    _check_format(format)
    with open_text_read(path) as fh:
        for index, line in enumerate(fh):
            line = line.rstrip("\r\n")
            if format == "plain":
                yield CaptionRecord(index, str(index), line)
            elif format == "tsv":
                record_id, sep, text = line.partition("\t")
                if not sep:
                    raise ValueError(f"{path}:{index + 1}: expected '<id>\\t<caption>'")
                yield CaptionRecord(index, record_id, text)
            else:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{index + 1}: invalid JSON: {exc}") from None
                if not isinstance(obj, dict) or "caption" not in obj:
                    raise ValueError(f"{path}:{index + 1}: missing 'caption' field")
                record_id = str(obj["id"]) if "id" in obj else str(index)
                yield CaptionRecord(index, record_id, str(obj["caption"]))


def format_record(record: CaptionRecord, output: MaskedOutput, format: str = "plain") -> str:
    """One output line, ``\n`` included: the kept tokens joined by single
    spaces, with the record id for tsv and jsonl.

    A tsv id holding a tab or line break is a ValueError, since it would
    split its record.
    """
    text = output.text()
    if format == "plain":
        return text + "\n"
    if format == "tsv":
        if any(c in record.id for c in "\t\n\r"):
            raise ValueError(f"record {record.index}: id {record.id!r} contains a tab "
                             "or line break and cannot be written as tsv")
        return f"{record.id}\t{text}\n"
    return json.dumps({"id": record.id, "caption": text}, ensure_ascii=False) + "\n"


def write_masked(
    pairs: Iterable[tuple[CaptionRecord, MaskedOutput]],
    path: str,
    format: str = "plain",
) -> int:
    """Write masked captions, one ``format_record`` line per record.

    Returns the number of records written. One output record per input
    record, in input order.
    """
    _check_format(format)
    written = 0
    with open_text_write(path) as fh:
        for record, output in pairs:
            fh.write(format_record(record, output, format))
            written += 1
    return written
