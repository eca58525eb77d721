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

from textmask.corpus_io import CaptionRecord, open_text_write, read_corpus, write_masked
from textmask.freq import load_frequency_table
from textmask.maskers import mask_truncation
from textmask.postag import load_lexicon_file


def records_of(path, format):
    return list(read_corpus(str(path), format))


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
    ], ids=["cut-short", "corrupt"])
    def test_bad_gzip_names_path(self, tmp_path, data, reason):
        """gzip raises EOFError or zlib.error, which are neither ValueError nor OSError."""
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
