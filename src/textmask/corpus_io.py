"""Stream caption corpora in and masked corpora out.

Formats:
    plain   one caption per line; record id is the 0-based line index
    tsv     "<id>\\t<caption>" per line
    jsonl   one JSON object per line with "caption" (required, a string) and
            "id" (optional, a string or an integer)

Everything is UTF-8, and a byte-order mark at the start of a file is
dropped on read; a ``.gz`` suffix gets transparent gzip handling. Every
input file, corpus, frequency table or lexicon, is read by ``read_lines``,
one line at a time, so an undecodable or damaged one fails with an error
naming it (and the line, for undecodable bytes), and the first bad line in
file order is the one reported, whatever is wrong with it. A ``.gz``
output's header names the output file and carries no time stamp, so the
same output is the same bytes on every run.
Lines end at ``\n`` (a trailing ``\r`` is dropped, so CRLF files read the
same); a lone ``\r`` stays inside its line. Output order always matches
input order, so image/text pairings are never disturbed; empty masked
captions are still emitted. Output files appear only once complete.
"""

from __future__ import annotations

import contextlib
import io
import os
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator

from ._record import Record

if TYPE_CHECKING:
    from .maskers import MaskedOutput

FORMATS = ("plain", "tsv", "jsonl")


class CaptionRecord(Record):
    __slots__ = __match_args__ = ("index", "id", "text")

    def __init__(self, index: int, id: str, text: str) -> None:
        self.index = index
        self.id = id
        self.text = text


# gzip and json are imported only by the code that needs them, so a plain
# corpus never loads them. Lines are split on the raw bytes and each is
# decoded on its own: lines end at \n only, so a lone \r stays inside its
# line, and a UTF-8 sequence never holds a \n byte, so a line fails to
# decode exactly where the whole file would.


def read_lines(path: str) -> Iterator[str]:
    """The lines of ``path`` as UTF-8 (gunzipped for ``.gz``), a BOM at the
    start of line 1 dropped. Undecodable bytes are a ValueError naming
    ``path`` and the line, the position counted from the start of that
    line, and a ``.gz`` file cut short, corrupt or with a bad trailer (gzip
    raises EOFError, zlib.error or BadGzipFile) is a ``gzip.BadGzipFile``
    (an OSError) naming ``path``. Each error is raised when the line it is
    in is reached, so the first bad line of a file fails first."""
    damage: tuple[type[Exception], ...] = ()
    if str(path).endswith(".gz"):
        import gzip
        import zlib

        damage = (EOFError, zlib.error, gzip.BadGzipFile)
        # GzipFile's own readline is Python code; a BufferedReader's is not.
        raw: IO[bytes] = io.BufferedReader(gzip.GzipFile(path))
    else:
        raw = open(path, "rb")
    with raw:
        try:
            for number, line in enumerate(raw, 1):
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
                yield text if number > 1 else text.removeprefix("\ufeff")
        except damage as exc:
            raise gzip.BadGzipFile(f"{path}: {exc}") from None


def _text_writer(raw: IO[bytes], path: str) -> IO[str]:
    """UTF-8 text written to ``raw``, gzipped when ``path`` ends in .gz.

    The gzip header names ``path`` even when ``raw`` is a temp file, and
    its MTIME is 0 (no time stamp). compresslevel=6 is the gzip tool's
    default; gzip.open's 9 is slower for a few percent smaller files.
    Closing the writer does not close a gzipped ``raw``; the caller does.
    """
    if str(path).endswith(".gz"):
        import gzip

        raw = gzip.GzipFile(filename=path, mode="wb", fileobj=raw, compresslevel=6, mtime=0)
    return io.TextIOWrapper(raw, encoding="utf-8", newline="\n")


@contextlib.contextmanager
def open_text_write(path: str) -> Iterator[IO[str]]:
    """Write ``path`` as a whole or not at all.

    A missing path or regular file is written to ``<path>.<pid>.tmp`` and
    moved into place when the block exits cleanly; on error the temp file
    is removed and the old file is left as it was. A symlink, device or
    pipe is written through in place.
    """
    if os.path.lexists(path) and (os.path.islink(path) or not os.path.isfile(path)):
        with open(path, "wb") as raw, _text_writer(raw, path) as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    # Opened before the cleanup below: a temp file this call did not create is not removed.
    try:
        raw = open(tmp, "xb")
    except FileExistsError:
        raise
    except OSError as exc:
        # Name the output asked for, not the temp file beside it.
        exc.filename = path
        raise
    try:
        with raw, _text_writer(raw, path) as fh:
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


def read_corpus(path: str, format: str = "plain",
                owns: Callable[[int], bool] | None = None) -> Iterator[CaptionRecord]:
    """Yield records in file order with dense 0-based indices.

    With ``owns``, only the records whose index it accepts: every line is
    still decoded, but a line it rejects is never parsed, so a malformed
    one raises nothing.
    """
    _check_format(format)
    if format == "jsonl":
        import json
    for index, line in enumerate(read_lines(path)):
        if owns is not None and not owns(index):
            continue
        line = line.rstrip("\r\n")
        if format == "plain":
            yield CaptionRecord(index, str(index), line)
        elif format == "tsv":
            record_id, sep, text = line.partition("\t")
            if not sep:
                raise ValueError(f"{path}:{index + 1}: expected '<id>\\t<caption>'")
            yield CaptionRecord(index, record_id, text)
        else:
            # A JSONDecodeError, an int past Python's digit limit, or
            # nesting too deep for the decoder (RecursionError).
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}:{index + 1}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict) or "caption" not in obj:
                raise ValueError(f"{path}:{index + 1}: missing 'caption' field")
            caption = obj["caption"]
            if not isinstance(caption, str):
                raise ValueError(f"{path}:{index + 1}: 'caption' must be a JSON string, "
                                 f"got {json.dumps(caption)[:40]}")
            record_id = obj.get("id", index)
            if not isinstance(record_id, (str, int)) or isinstance(record_id, bool):
                raise ValueError(f"{path}:{index + 1}: 'id' must be a JSON string or "
                                 f"integer, got {json.dumps(record_id)[:40]}")
            if "\\" in line:
                # A decoded line holds no lone surrogate, but a \u escape can
                # make one, and no UTF-8 output can hold it.
                for field, value in (("caption", caption), ("id", str(record_id))):
                    try:
                        value.encode("utf-8")
                    except UnicodeEncodeError as exc:
                        raise ValueError(f"{path}:{index + 1}: {field!r} holds a lone "
                                         f"surrogate: {exc}") from None
            yield CaptionRecord(index, str(record_id), caption)


def line_formatter(format: str) -> Callable[[CaptionRecord, MaskedOutput], str]:
    """The function that renders one masked record as its output line,
    ``\n`` included: the kept tokens joined by single spaces, with the
    record id for tsv and jsonl. Pick it once per stream.

    A tsv id holding a tab or line break is a ValueError, since it would
    split its record.
    """
    _check_format(format)
    if format == "plain":
        return lambda record, output: output.text() + "\n"
    if format == "tsv":
        return _tsv_line
    # json.dumps({"id": ..., "caption": ...}, ensure_ascii=False) writes
    # these bytes, but builds a new JSONEncoder on every call.
    from json.encoder import encode_basestring as quote

    return lambda record, output: (
        '{"id": ' + quote(record.id) + ', "caption": ' + quote(output.text()) + "}\n")


def _tsv_line(record: CaptionRecord, output: MaskedOutput) -> str:
    if any(c in record.id for c in "\t\n\r"):
        raise ValueError(f"record {record.index}: id {record.id!r} contains a tab "
                         "or line break and cannot be written as tsv")
    return f"{record.id}\t{output.text()}\n"


def write_masked(
    pairs: Iterable[tuple[CaptionRecord, MaskedOutput]],
    path: str,
    format: str = "plain",
) -> int:
    """Write masked captions, one ``line_formatter(format)`` line per record.

    Returns the number of records written. One output record per input
    record, in input order.
    """
    line = line_formatter(format)
    written = 0
    with open_text_write(path) as fh:
        for record, output in pairs:
            fh.write(line(record, output))
            written += 1
    return written
