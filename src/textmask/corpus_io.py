"""Stream caption corpora in and masked corpora out.

Formats:
    plain   one caption per line; record id is the 0-based line index
    tsv     "<id>\\t<caption>" per line
    jsonl   one JSON object per line with "caption" (required) and "id"

Everything is UTF-8; a ``.gz`` suffix gets transparent gzip handling.
Output order always matches input order, whatever the processing
parallelism, so image/text pairings are never disturbed; empty masked
captions are still emitted.
"""

from __future__ import annotations

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


def open_text_read(path: str) -> IO[str]:
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def open_text_write(path: str) -> IO[str]:
    # Unlink an old regular file rather than truncate it: ext4 flushes a
    # truncated-and-rewritten file to disk on close, blocking the writer.
    if os.path.isfile(path) and not os.path.islink(path):
        os.unlink(path)
    if str(path).endswith(".gz"):
        return gzip.open(path, "wt", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _check_format(format: str) -> None:
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format {format!r}; expected one of {FORMATS}")


def read_corpus(path: str, format: str = "plain") -> Iterator[CaptionRecord]:
    """Yield records in file order with dense 0-based indices."""
    _check_format(format)
    with open_text_read(path) as fh:
        for index, line in enumerate(fh):
            line = line.rstrip("\n")
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


def write_masked(
    pairs: Iterable[tuple[CaptionRecord, MaskedOutput]],
    path: str,
    format: str = "plain",
) -> int:
    """Write masked captions (kept tokens joined by single spaces).

    Returns the number of records written. One output record per input
    record, in input order.
    """
    _check_format(format)
    written = 0
    with open_text_write(path) as fh:
        for record, output in pairs:
            text = output.text()
            if format == "plain":
                fh.write(text + "\n")
            elif format == "tsv":
                fh.write(f"{record.id}\t{text}\n")
            else:
                fh.write(json.dumps({"id": record.id, "caption": text}, ensure_ascii=False) + "\n")
            written += 1
    return written
