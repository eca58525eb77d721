import gzip
import json
import os

import pytest

from textmask.corpus_io import CaptionRecord, open_text_write, read_corpus, write_masked
from textmask.maskers import mask_truncation


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

    def test_jsonl_bad_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"caption":"ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
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
        assert open(path, encoding="utf-8").read() == "1\ta b\n"

    def test_empty_kept_still_emitted(self, tmp_path):
        path = str(tmp_path / "out.tsv")
        rec = CaptionRecord(0, "9", "")
        write_masked([(rec, mask_truncation([], 2))], path, "tsv")
        assert open(path, encoding="utf-8").read() == "9\t\n"

    def test_record_count_preserved(self, tmp_path):
        path = str(tmp_path / "out.txt")
        n = write_masked(self.pairs(["a b c", "", "d"]), path, "plain")
        assert n == 3
        assert open(path, encoding="utf-8").read() == "a b\n\nd\n"

    def test_jsonl_output(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        write_masked(self.pairs(["hello world again"]), path, "jsonl")
        obj = json.loads(open(path, encoding="utf-8").readline())
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
