import gzip
import itertools
import json
import os
import re
import stat
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from textmask.corpus_io import (
    FORMATS,
    CaptionRecord,
    open_text_write,
    read_corpus,
    read_lines,
    write_masked,
)
from textmask.freq import load_frequency_table
from textmask.maskers import mask_truncation
from textmask.postag import load_lexicon_file


def records_of(path, format):
    return list(read_corpus(str(path), format))


def flip_byte(data, i):
    """``data`` with the bits of byte ``i`` inverted."""
    return data[:i] + bytes([data[i] ^ 0xFF]) + data[i:][1:]


class TestReadCorpus:
    def test_plain(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\nc\n", encoding="utf-8")
        recs = records_of(path, "plain")
        assert [(r.index, r.id, r.text) for r in recs] == [(0, "0", "a b"), (1, "1", "c")]

    def test_tsv(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x1\thello world\n", encoding="utf-8")
        (rec,) = records_of(path, "tsv")
        assert (rec.id, rec.text) == ("x1", "hello world")

    def test_jsonl(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"7","caption":"dog"}\n', encoding="utf-8")
        (rec,) = records_of(path, "jsonl")
        assert (rec.id, rec.text) == ("7", "dog")

    def test_jsonl_missing_id_defaults_to_line_index(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"caption":"dog"}\n', encoding="utf-8")
        (rec,) = records_of(path, "jsonl")
        assert rec.id == "0"

    def test_jsonl_missing_caption_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"7"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            records_of(path, "jsonl")

    @pytest.mark.parametrize("caption", ["null", "12", '["a", "b"]', "{}"])
    def test_jsonl_non_string_caption_rejected(self, tmp_path, caption):
        path = tmp_path / "c.jsonl"
        path.write_text('{"caption":"ok"}\n{"id":7,"caption":%s}\n' % caption,
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"c\.jsonl:2: 'caption' must be a JSON string"):
            records_of(path, "jsonl")

    def test_jsonl_integer_id_kept_as_text(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":7,"caption":"dog"}\n', encoding="utf-8")
        (rec,) = records_of(path, "jsonl")
        assert (rec.id, rec.text) == ("7", "dog")

    @pytest.mark.parametrize("record_id", ["null", "true", '{"a": 1}', "1e3", "[1]"])
    def test_jsonl_id_neither_string_nor_integer_rejected(self, tmp_path, record_id):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"x","caption":"ok"}\n{"id":%s,"caption":"dog"}\n' % record_id,
                        encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"c\.jsonl:2: 'id' must be a JSON string or integer"):
            records_of(path, "jsonl")

    def test_jsonl_bad_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"caption":"ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            records_of(path, "jsonl")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no int digit limit")
    @pytest.mark.parametrize("field", ["id", "score"])
    def test_jsonl_integer_past_digit_limit_names_line(self, tmp_path, field):
        """json.loads raises a plain ValueError, not JSONDecodeError, for it."""
        path = tmp_path / "c.jsonl"
        path.write_text('{"caption": "ok"}\n{"%s": 1%s, "caption": "a dog"}\n'
                        % (field, "0" * 5000), encoding="utf-8")
        with pytest.raises(ValueError, match=r"c\.jsonl:2: invalid JSON: Exceeds the limit"):
            records_of(path, "jsonl")

    @pytest.mark.parametrize("escaped,text", [
        ("a \\ud83d\\ude00 dog", "a \U0001f600 dog"), ("a\\\\ud800", "a\\ud800"),
        ("a\\ndog", "a\ndog"),
    ], ids=["surrogate-pair", "escaped-backslash", "newline"])
    def test_jsonl_escapes_that_make_no_lone_surrogate_are_kept(self, tmp_path, escaped, text):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "%s", "caption": "%s"}\n' % (escaped, escaped), encoding="utf-8")
        assert records_of(path, "jsonl") == [CaptionRecord(0, text, text)]

    @pytest.mark.parametrize("field,record_id,caption", [
        ("caption", "k", "\\udfff\\ud800"), ("id", "x\\ud83d", "a")], ids=["caption", "id"])
    def test_jsonl_lone_surrogate_names_line(self, tmp_path, field, record_id, caption):
        path = tmp_path / "c.jsonl"
        path.write_text('{"caption": "ok"}\n{"id": "%s", "caption": "%s"}\n'
                        % (record_id, caption), encoding="utf-8")
        with pytest.raises(ValueError, match=rf"c\.jsonl:2: '{field}' holds a lone surrogate: "
                                             "'utf-8' codec can't encode character"):
            records_of(path, "jsonl")

    def test_tsv_missing_tab_names_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("id1\tok\nbroken\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            records_of(path, "tsv")

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "c.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("a\nb\n")
        assert [r.text for r in records_of(path, "plain")] == ["a", "b"]

    @pytest.mark.parametrize("data,reason", [
        (gzip.compress(b"a dog\n" * 100)[:-12], "Compressed file ended before the end-of-stream"),
        # a deflate block of the reserved type 3
        (gzip.compress(b"")[:10] + b"\x07" + bytes(8), "Error -3 while decompressing data"),
        # the trailer's CRC-32 with its first byte flipped
        (flip_byte(gzip.compress(b"a dog\n" * 100), -8), "CRC check failed"),
    ], ids=["cut-short", "corrupt", "bad-crc"])
    def test_bad_gzip_names_path(self, tmp_path, data, reason):
        """gzip raises EOFError or zlib.error, which are neither ValueError nor
        OSError, or a BadGzipFile that does not name the file."""
        path = tmp_path / "c.txt.gz"
        path.write_bytes(data)
        with pytest.raises(gzip.BadGzipFile, match=f"^{re.escape(str(path))}: {reason}"):
            records_of(path, "plain")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            records_of(tmp_path / "x", "xml")

    def test_empty_plain_lines_are_records(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a\n\nb\n", encoding="utf-8")
        assert [r.text for r in records_of(path, "plain")] == ["a", "", "b"]


class TestReadCorpusOwns:
    LINES = {
        "plain": ["a dog", "", "the cat", "x\ty", "a bird"],
        "tsv": ["k0\ta dog", "k1\t", "k2\tthe cat", "k3\tx", "k4\ta bird"],
        "jsonl": ['{"id": "k0", "caption": "a dog"}', '{"caption": ""}', '{"id": 9, '
                  '"caption": "the cat"}', '{"id": "k3", "caption": "x"}', '{"caption": "bird"}'],
    }

    @pytest.mark.parametrize("format", FORMATS)
    @pytest.mark.parametrize("suffix", ["", ".gz"], ids=["raw", "gz"])
    def test_only_owned_records_with_their_index_and_id(self, tmp_path, format, suffix):
        path = tmp_path / ("c" + suffix)
        data = "".join(line + "\n" for line in self.LINES[format]).encode("utf-8")
        path.write_bytes(gzip.compress(data) if suffix else data)
        every = list(read_corpus(str(path), format))
        for owns in (lambda i: i % 2 == 1, lambda i: i in (0, 4), lambda i: False):
            assert list(read_corpus(str(path), format, owns)) == [
                r for r in every if owns(r.index)]
        assert list(read_corpus(str(path), format, lambda i: True)) == every

    @pytest.mark.parametrize("format,bad", [
        ("jsonl", "{not json"), ("jsonl", '{"id": "k"}'), ("jsonl", '{"caption": 3}'),
        ("jsonl", '{"id": null, "caption": "a"}'), ("jsonl", "[" * 100_000),
        ("tsv", "no tab here"),
    ], ids=["bad-json", "no-caption", "caption-type", "id-type", "too-deep", "tsv-no-tab"])
    def test_malformed_line_outside_owns_raises_nothing(self, tmp_path, format, bad):
        path = tmp_path / "c"
        lines = self.LINES[format][:]
        lines[2] = bad
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        kept = list(read_corpus(str(path), format, lambda i: i != 2))
        assert [r.index for r in kept] == [0, 1, 3, 4]
        with pytest.raises(ValueError, match=r"^.*c:3: "):
            list(read_corpus(str(path), format, lambda i: i == 2))

    def test_undecodable_line_outside_owns_still_raises(self, tmp_path):
        """Every line is decoded, owned or not."""
        path = tmp_path / "c"
        path.write_bytes(b"a dog\n\xff\nthe cat\n")
        with pytest.raises(ValueError, match=r"c:2: 'utf-8' codec"):
            list(read_corpus(str(path), "plain", lambda i: i == 0))


class TestReadLines:
    @pytest.mark.parametrize("suffix", ["", ".gz"], ids=["raw", "gz"])
    def test_lines_keep_their_ends(self, tmp_path, suffix):
        path = tmp_path / ("c.txt" + suffix)
        data = "\ufeffa\r\nb\rc\n\nd".encode("utf-8")
        path.write_bytes(gzip.compress(data) if suffix else data)
        assert list(read_lines(str(path))) == ["a\r\n", "b\rc\n", "\n", "d"]

    @pytest.mark.parametrize("suffix", ["", ".gz"], ids=["raw", "gz"])
    def test_undecodable_bytes_name_the_path(self, tmp_path, suffix):
        """The bad byte is 12 KB in, on line 2001; the position counts from
        the start of its line."""
        path = tmp_path / ("c.txt" + suffix)
        data = b"a dog\n" * 2000 + b"a \xff dog\n" + b"a cat\n" * 10
        path.write_bytes(gzip.compress(data) if suffix else data)
        with pytest.raises(ValueError) as exc:
            records_of(path, "plain")
        assert str(exc.value) == (f"{path}:2001: 'utf-8' codec can't decode byte 0xff "
                                  "in position 2: invalid start byte")

    def test_undecodable_gz_cut_short_inside_the_bad_line_names_the_path(self, tmp_path):
        """The cut comes before the bad line ends, so that line is never
        complete: the gzip damage is the first error, and it names the file."""
        data = b"".join(b"%05d " % i for i in range(8000))
        data = data[:8100] + b"\xff" + data[8101:] + b"\n"
        path = tmp_path / "c.txt.gz"
        path.write_bytes(gzip.compress(data)[:-100])
        with pytest.raises(gzip.BadGzipFile, match=f"^{re.escape(str(path))}: Compressed file "
                                                   "ended before the end-of-stream marker "
                                                   "was reached$"):
            list(read_lines(str(path)))

    @pytest.mark.parametrize("load", [load_frequency_table, load_lexicon_file])
    def test_undecodable_table_or_lexicon_names_the_path(self, tmp_path, load):
        """Line 1 is valid, so the undecodable line 2 is the first error."""
        path = tmp_path / "t"
        line_1 = b"#total 1\n" if load is load_frequency_table else b"cat\tNN\n"
        path.write_bytes(line_1 + b"\xffdog\t1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: 'utf-8' codec "
                                             "can't decode byte 0xff in position 0"):
            load(str(path))

    @pytest.mark.parametrize("suffix", ["", ".gz"], ids=["raw", "gz"])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.lists(st.sampled_from([b"a", b"\n", b"\xc3\xa9", b"\xc3", b"\xa9",
                                          b"\xff", b"\xef\xbb\xbf", b"\xe2\x80", b"x" * 3000]),
                         max_size=12).map(b"".join))
    def test_undecodable_line_matches_whole_file_decode(self, tmp_path, suffix, data):
        """Oracle: decoding the whole file at once fails at the same byte,
        for the same reason, as the line and in-line position reported."""
        path = tmp_path / ("c.txt" + suffix)
        path.write_bytes(gzip.compress(data) if suffix else data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            start = data.rfind(b"\n", 0, exc.start) + 1
            in_line = UnicodeDecodeError("utf-8", data[start:], exc.start - start,
                                         exc.end - start, exc.reason)
            line = data.count(b"\n", 0, start) + 1
            with pytest.raises(ValueError) as error:
                list(read_lines(str(path)))
            assert str(error.value) == f"{path}:{line}: {in_line}"
        else:
            assert "".join(read_lines(str(path))) == text.removeprefix("\ufeff")


class TestWriteMasked:
    def pairs(self, texts, k=2):
        out = []
        for i, text in enumerate(texts):
            rec = CaptionRecord(i, str(i + 1), text)
            out.append((rec, mask_truncation(text.split(), k)))
        return out

    def test_tsv_line_format(self, tmp_path):
        path = str(tmp_path / "out.tsv")
        rec = CaptionRecord(0, "1", "a b c")
        write_masked([(rec, mask_truncation(["a", "b", "c"], 2))], path, "tsv")
        assert Path(path).read_text(encoding="utf-8") == "1\ta b\n"

    def test_empty_kept_still_emitted(self, tmp_path):
        path = str(tmp_path / "out.tsv")
        rec = CaptionRecord(0, "9", "")
        write_masked([(rec, mask_truncation([], 2))], path, "tsv")
        assert Path(path).read_text(encoding="utf-8") == "9\t\n"

    def test_record_count_preserved(self, tmp_path):
        path = str(tmp_path / "out.txt")
        n = write_masked(self.pairs(["a b c", "", "d"]), path, "plain")
        assert n == 3
        assert Path(path).read_text(encoding="utf-8") == "a b\n\nd\n"

    def test_jsonl_output(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        write_masked(self.pairs(["hello world again"]), path, "jsonl")
        with open(path, encoding="utf-8") as fh:
            obj = json.loads(fh.readline())
        assert obj == {"id": "1", "caption": "hello world"}

    def test_round_trip_plain(self, tmp_path):
        texts = ["a b c", "d e", "f"]
        path = str(tmp_path / "out.txt")
        write_masked(self.pairs(texts, k=99), path, "plain")
        assert [r.text for r in read_corpus(path, "plain")] == texts

    def test_round_trip_gzip_tsv(self, tmp_path):
        texts = ["a b c", "d e"]
        path = str(tmp_path / "out.tsv.gz")
        write_masked(self.pairs(texts, k=99), path, "tsv")
        back = list(read_corpus(path, "tsv"))
        assert [r.text for r in back] == texts
        assert [r.id for r in back] == ["1", "2"]


class TestOpenTextWrite:
    def test_overwrite_replaces_file_instead_of_truncating(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\nlonger old content\n", encoding="utf-8")
        old = tmp_path / "old.txt"
        os.link(path, old)
        with open_text_write(str(path)) as fh:
            fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert old.read_text(encoding="utf-8") == "old\nlonger old content\n"

    def test_overwrite_gzip(self, tmp_path):
        path = tmp_path / "out.txt.gz"
        path.write_bytes(b"not gzip")
        with open_text_write(str(path)) as fh:
            fh.write("new\n")
        assert gzip.decompress(path.read_bytes()) == b"new\n"

    def test_symlink_target_written_through(self, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        with open_text_write(str(link)) as fh:
            fh.write("new\n")
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == "new\n"

    def test_device_target_written_in_place(self):
        with open_text_write(os.devnull) as fh:
            fh.write("discarded\n")
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


def gzip_header(path):
    """(MTIME, FNAME) from the header of the gzip file at ``path``."""
    data = path.read_bytes()
    assert data[:4] == b"\x1f\x8b\x08\x08"  # deflate, FNAME only
    return int.from_bytes(data[4:8], "little"), data[10:data.index(b"\0", 10)].decode()


@pytest.fixture
def clock(monkeypatch):
    """A wall clock a day further on at every reading."""
    ticks = itertools.count(1_000_000_000, 86_400)
    monkeypatch.setattr(time, "time", lambda: next(ticks))


class TestGzipHeader:
    def write(self, path, text="a dog\n"):
        with open_text_write(str(path)) as fh:
            fh.write(text)

    def test_header_names_the_output_without_time_stamp(self, tmp_path):
        path = tmp_path / "t1.txt.gz"
        self.write(path)
        assert gzip_header(path) == (0, "t1.txt")
        assert gzip.decompress(path.read_bytes()) == b"a dog\n"
        assert os.listdir(tmp_path) == ["t1.txt.gz"]

    def test_two_writes_give_identical_bytes(self, tmp_path, clock):
        path = tmp_path / "out.jsonl.gz"
        self.write(path)
        first = path.read_bytes()
        self.write(path)
        assert path.read_bytes() == first

    def test_symlink_written_through_names_the_link(self, tmp_path):
        real = tmp_path / "real.bin"
        real.write_bytes(b"")
        link = tmp_path / "link.txt.gz"
        link.symlink_to(real)
        self.write(link)
        assert link.is_symlink()
        assert gzip_header(real) == (0, "link.txt")
        assert gzip.decompress(real.read_bytes()) == b"a dog\n"


class TestLineEndings:
    def test_lone_cr_stays_inside_its_record(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"a dog\rruns fast\nthe cat\n")
        recs = records_of(path, "plain")
        assert [(r.index, r.text) for r in recs] == [(0, "a dog\rruns fast"), (1, "the cat")]

    def test_lone_cr_stays_inside_its_record_gzip(self, tmp_path):
        path = tmp_path / "c.txt.gz"
        path.write_bytes(gzip.compress(b"a dog\rruns fast\nthe cat\n"))
        assert [r.text for r in records_of(path, "plain")] == ["a dog\rruns fast", "the cat"]

    @pytest.mark.parametrize("format, lines", [
        ("plain", ["a b", "", "c"]),
        ("tsv", ["x1\ta b", "x2\t", "x3\tc"]),
        ("jsonl", ['{"id": "x1", "caption": "a b"}', '{"caption": ""}']),
    ])
    def test_crlf_reads_like_lf(self, tmp_path, format, lines):
        lf, crlf = tmp_path / "lf", tmp_path / "crlf.gz"
        lf.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        crlf.write_bytes(gzip.compress("".join(line + "\r\n" for line in lines).encode()))
        assert records_of(crlf, format) == records_of(lf, format)

    def test_crlf_frequency_table_with_blank_lines(self, tmp_path):
        path = tmp_path / "t.freq"
        path.write_bytes(b"#total 3\r\ndog\t2\r\n\r\ncat\t1\r\n\r\n")
        table = load_frequency_table(str(path))
        assert (table.counts, table.total) == ({"dog": 2, "cat": 1}, 3)

    def test_crlf_lexicon_with_blank_lines(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"Dog\tNN\r\n\r\nred\tJJ\r\n")
        assert load_lexicon_file(str(path)) == {"dog": "NN", "red": "JJ"}


class TestByteOrderMark:
    BOM = b"\xef\xbb\xbf"

    @pytest.mark.parametrize("format, body", [
        ("plain", b"hello world\nthe cat\n"),
        ("tsv", b"x1\thello world\nx2\tthe cat\n"),
        ("jsonl", b'{"id": "x1", "caption": "hello world"}\n{"caption": "the cat"}\n'),
    ], ids=["plain", "tsv", "jsonl"])
    @pytest.mark.parametrize("suffix", ["", ".gz"], ids=["raw", "gz"])
    def test_leading_bom_dropped(self, tmp_path, format, body, suffix):
        plain, bom = tmp_path / f"plain{suffix}", tmp_path / f"bom{suffix}"
        wrap = gzip.compress if suffix else bytes
        plain.write_bytes(wrap(body))
        bom.write_bytes(wrap(self.BOM + body))
        assert records_of(bom, format) == records_of(plain, format)

    def test_bom_after_first_line_stays_text(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(self.BOM + b"a\n" + self.BOM + b"b\n")
        assert [r.text for r in records_of(path, "plain")] == ["a", "\ufeffb"]

    def test_frequency_table_and_lexicon_with_bom(self, tmp_path):
        table_path, lexicon_path = tmp_path / "t.freq", tmp_path / "lex.tsv"
        table_path.write_bytes(self.BOM + b"#total 3\ndog\t2\ncat\t1\n")
        lexicon_path.write_bytes(self.BOM + b"Dog\tNN\n")
        table = load_frequency_table(str(table_path))
        assert (table.counts, table.total) == ({"dog": 2, "cat": 1}, 3)
        assert load_lexicon_file(str(lexicon_path)) == {"dog": "NN"}


class TestTsvIds:
    @pytest.mark.parametrize("bad_id", ["x\ty", "x\ny", "x\ry", "x\r\n"])
    def test_unsafe_id_rejected_naming_record(self, tmp_path, bad_id):
        path = str(tmp_path / "out.tsv")
        pairs = [
            (CaptionRecord(0, "ok", "a b"), mask_truncation(["a", "b"], 2)),
            (CaptionRecord(1, bad_id, "c"), mask_truncation(["c"], 2)),
        ]
        with pytest.raises(ValueError, match=f"record 1: id {re.escape(repr(bad_id))}"):
            write_masked(pairs, path, "tsv")
        assert not os.path.exists(path)

    def test_same_ids_fine_in_jsonl(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        rec = CaptionRecord(0, "x\ty", "a b")
        write_masked([(rec, mask_truncation(["a", "b"], 2))], path, "jsonl")
        assert json.loads(Path(path).read_text(encoding="utf-8"))["id"] == "x\ty"


class TestAtomicWrite:
    def fail_midway(self, path):
        with pytest.raises(RuntimeError, match="midway"):
            with open_text_write(str(path)) as fh:
                fh.write("partial\n" * 5000)
                raise RuntimeError("midway")

    def test_error_keeps_old_file_and_removes_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        self.fail_midway(path)
        assert path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_error_does_not_create_missing_path(self, tmp_path):
        self.fail_midway(tmp_path / "out.txt.gz")
        assert os.listdir(tmp_path) == []

    def test_old_file_stays_until_block_exits(self, tmp_path):
        path = tmp_path / "out.txt.gz"
        path.write_bytes(gzip.compress(b"old\n"))
        with open_text_write(str(path)) as fh:
            fh.write("new\n")
            fh.flush()
            assert gzip.decompress(path.read_bytes()) == b"old\n"
            temp = tmp_path / f"out.txt.gz.{os.getpid()}.tmp"
            assert temp.exists()
        assert not temp.exists()
        assert gzip.decompress(path.read_bytes()) == b"new\n"

    def test_failed_temp_open_names_the_path_unless_the_temp_exists(self, tmp_path):
        """A missing directory names the output; a stale temp file is named
        itself, and kept, since this call did not create it."""
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as exc:
            with open_text_write(str(path)):
                pass
        assert exc.value.filename == str(path)
        temp = tmp_path / f"out.txt.{os.getpid()}.tmp"
        temp.write_text("stale\n", encoding="utf-8")
        with pytest.raises(FileExistsError) as exc:
            with open_text_write(str(tmp_path / "out.txt")):
                pass
        assert exc.value.filename == str(temp)
        assert os.listdir(tmp_path) == [temp.name]

    def test_new_file_gets_umask_permissions(self, tmp_path):
        path = tmp_path / "out.txt"
        old_umask = os.umask(0o027)
        try:
            with open_text_write(str(path)) as fh:
                fh.write("new\n")
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_write_masked_error_mid_stream_keeps_old_output(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")

        def pairs():
            for i in range(3000):
                if i == 2500:
                    raise ValueError("bad record 2500")
                yield CaptionRecord(i, str(i), "a b"), mask_truncation(["a", "b"], 2)

        with pytest.raises(ValueError, match="bad record 2500"):
            write_masked(pairs(), str(path), "plain")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]
