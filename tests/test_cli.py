import csv
import gzip
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import pytest

from textmask import analysis
from textmask.cli import (
    _analyze_corpus,
    _decode_tags,
    _DecodedTags,
    _load_lexicon_arg,
    build_parser,
    main,
    prepare_record,
)
from textmask.freq import DEFAULT_THRESHOLD
from textmask.maskers import STRATEGIES, MaskingConfig

SRC = Path(__file__).resolve().parent.parent / "src"

CAPTION = (
    "Walk of the happy young couple and Siberian dog. "
    "The handsome man is hugging the smiling red head girl"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gzip_cut_short(data):
    """A gzip stream of ``data`` with no final block or trailer: reading it
    yields all of ``data``, then fails."""
    compressor = zlib.compressobj(wbits=31)
    return compressor.compress(data) + compressor.flush(zlib.Z_SYNC_FLUSH)


def write_corpus(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


@pytest.fixture
def toy_corpus(tmp_path):
    rng = random.Random(17)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    lines = [" ".join(rng.choices(vocab, k=12)) for _ in range(200)]
    return write_corpus(tmp_path / "toy.txt", lines)


class TestFreqCommand:
    def test_counts(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", ["a b a", "b .", "a"])
        out_path = str(tmp_path / "t.freq")
        code, _, _ = run(capsys, "freq", "--input", corpus, "--output", out_path)
        assert code == 0
        content = Path(out_path).read_text(encoding="utf-8")
        assert content == "#total 6\na\t3\nb\t2\n.\t1\n"

    def test_empty_corpus_fails(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", [])
        code, _, err = run(capsys, "freq", "--input", corpus, "--output", str(tmp_path / "t"))
        assert code == 1
        assert "empty corpus" in err

    def test_rerun_byte_identical(self, tmp_path, capsys, toy_corpus):
        out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t2")
        run(capsys, "freq", "--input", toy_corpus, "--output", out1)
        run(capsys, "freq", "--input", toy_corpus, "--output", out2)
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_pretagged_counts_words_not_tags(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", ["a/DT dog/NN runs/VBZ ./."])
        out_path = str(tmp_path / "t.freq")
        code, _, _ = run(capsys, "freq", "--input", corpus, "--pretagged", "--output", out_path)
        assert code == 0
        content = Path(out_path).read_text(encoding="utf-8")
        assert content == "#total 4\n.\t1\na\t1\ndog\t1\nruns\t1\n"


class TestMaskCommand:
    def test_truncation_reference_caption(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", [CAPTION])
        out_path = str(tmp_path / "m.txt")
        code, _, _ = run(capsys, "mask", "--input", corpus, "--strategy", "truncation",
                         "--k", "6", "--output", out_path)
        assert code == 0
        assert Path(out_path).read_text(encoding="utf-8") == "walk of the happy young couple\n"

    def test_same_command_twice_identical(self, tmp_path, capsys, toy_corpus):
        outs = []
        for name in ("m1", "m2"):
            out_path = str(tmp_path / name)
            run(capsys, "mask", "--input", toy_corpus, "--strategy", "random",
                "--k", "4", "--seed", "5", "--output", out_path)
            outs.append(Path(out_path).read_bytes())
        assert outs[0] == outs[1]

    def test_epoch_changes_random_not_truncation(self, tmp_path, capsys, toy_corpus):
        results = {}
        for strategy in ("random", "truncation"):
            outs = []
            for epoch in ("0", "1"):
                out_path = str(tmp_path / f"{strategy}{epoch}")
                run(capsys, "mask", "--input", toy_corpus, "--strategy", strategy,
                    "--k", "4", "--seed", "5", "--epoch", epoch, "--output", out_path)
                outs.append(Path(out_path).read_bytes())
            results[strategy] = outs[0] == outs[1]
        assert not results["random"]
        assert results["truncation"]

    def test_threads_byte_identical(self, tmp_path, capsys, toy_corpus):
        freq_path = str(tmp_path / "t.freq")
        run(capsys, "freq", "--input", toy_corpus, "--output", freq_path)
        outs = []
        for threads in ("1", "8"):
            out_path = str(tmp_path / f"thr{threads}")
            run(capsys, "mask", "--input", toy_corpus, "--strategy", "frequency",
                "--k", "4", "--seed", "3", "--freq-table", freq_path,
                "--threads", threads, "--output", out_path)
            outs.append(Path(out_path).read_bytes())
        assert outs[0] == outs[1]

    def test_missing_freq_table_is_usage_error(self, tmp_path, capsys, toy_corpus):
        with pytest.raises(SystemExit) as exc:
            main(["mask", "--input", toy_corpus, "--strategy", "frequency",
                  "--output", str(tmp_path / "m")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: textmask mask ")
        assert "textmask mask: error: --freq-table is required for strategy 'frequency'" in err

    def test_empty_freq_table_fails(self, tmp_path, capsys, toy_corpus):
        """A table that counts nothing would leave every word unknown, so
        frequency masking would silently turn uniform."""
        table = tmp_path / "e.freq"
        table.write_text("#total 0\n", encoding="utf-8")
        out = tmp_path / "m.txt"
        out.write_bytes(b"old\n")
        code, stdout, err = run(capsys, "mask", "--input", toy_corpus, "--strategy", "frequency",
                                "--freq-table", str(table), "--k", "2", "--output", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: {table}: ") and "empty" in err
        assert out.read_bytes() == b"old\n"

    def test_tsv_format_preserves_ids(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.tsv", ["k9\tsome caption words here"])
        out_path = str(tmp_path / "m.tsv")
        run(capsys, "mask", "--input", corpus, "--format", "tsv",
            "--strategy", "truncation", "--k", "2", "--output", out_path)
        assert Path(out_path).read_text(encoding="utf-8") == "k9\tsome caption\n"

    def test_pretagged_syntax(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt",
                              ["Dog/NN runs/VBZ fast/RB and/CC big/JJ cat/NN naps/VBZ"])
        out_path = str(tmp_path / "m.txt")
        run(capsys, "mask", "--input", corpus, "--strategy", "syntax", "--pretagged",
            "--k", "3", "--output", out_path)
        assert Path(out_path).read_text(encoding="utf-8") == "dog big cat\n"

    def test_syntax_with_lexicon_file(self, tmp_path, capsys):
        lex_path = tmp_path / "lex.tsv"
        lex_path.write_text("shiny\tJJ\nbarks\tVBZ\n", encoding="utf-8")
        corpus = write_corpus(tmp_path / "c.txt", ["the shiny dog barks loudly today"])
        out_path = str(tmp_path / "m.txt")
        run(capsys, "mask", "--input", corpus, "--strategy", "syntax",
            "--lexicon", str(lex_path), "--k", "2", "--output", out_path)
        # a user lexicon replaces the built-in one entirely, so "the" falls
        # to the noun fallback; earliest nouns win
        assert Path(out_path).read_text(encoding="utf-8") == "the dog\n"


class TestDemoCommand:
    def make_table(self, tmp_path, content="#total 4\na\t3\nb\t1\n"):
        path = tmp_path / "t.freq"
        path.write_text(content, encoding="utf-8")
        return str(path)

    def rows(self, out):
        rows = {}
        for line in out.splitlines():
            if " : " in line:
                name, _, text = line.partition(" : ")
                rows[name.strip()] = text
        return rows

    def test_two_word_probabilities(self, tmp_path, capsys):
        # P(a) = 1 - sqrt((1/16)/(3/4)) = 1 - sqrt(1/12); P(b) = 1 - sqrt(1/4)
        table = self.make_table(tmp_path)
        code, out, _ = run(capsys, "demo", "--caption", "a b", "--k", "1",
                           "--t", "0.0625", "--freq-table", table)
        assert code == 0
        assert "a                0.711325" in out
        assert "b                0.500000" in out

    def test_all_strategies_echo_short_caption(self, tmp_path, capsys):
        # words unknown to the table have P = 0, so even swclip keeps them
        table = self.make_table(tmp_path)
        _, out, _ = run(capsys, "demo", "--caption", "Rare Words Here", "--k", "8",
                        "--freq-table", table)
        rows = self.rows(out)
        for strategy in ("truncation", "random", "block", "syntax", "frequency", "swclip"):
            assert rows[strategy] == "rare words here"

    def test_truncation_row_for_reference_caption(self, tmp_path, capsys):
        table = self.make_table(tmp_path)
        _, out, _ = run(capsys, "demo", "--caption", CAPTION, "--k", "6",
                        "--freq-table", table)
        assert self.rows(out)["truncation"] == "walk of the happy young couple"

    def test_unknown_words_marked(self, tmp_path, capsys):
        table = self.make_table(tmp_path)
        _, out, _ = run(capsys, "demo", "--caption", "a zebra", "--k", "1",
                        "--freq-table", table)
        assert "[not in table]" in out


class TestAnalyzeBudget:
    def test_default_rows(self, tmp_path, capsys):
        csv_path = str(tmp_path / "b.csv")
        code, out, _ = run(capsys, "analyze", "budget", "--output", csv_path)
        assert code == 0
        lines = Path(csv_path).read_text(encoding="utf-8").strip().splitlines()
        assert lines == [
            "image_tokens,text_tokens,total,percentage",
            "196,32,228,100.00",
            "49,32,81,35.53",
            "49,16,65,28.51",
            "49,8,57,25.00",
            "49,6,55,24.12",
            "49,4,53,23.25",
        ]

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "analyze", "budget",
                           "--image-mask-ratio", "0.5", "--text-keep", "16")
        assert code == 0
        assert [line.split() for line in out.splitlines()] == [
            ["image_tokens", "text_tokens", "total", "percentage"], ["98", "16", "114", "50.00"]]

    @pytest.mark.parametrize("patches", ["-228", "-10"])
    def test_negative_image_patches_fails(self, tmp_path, capsys, patches):
        csv_path = tmp_path / "b.csv"
        code, out, err = run(capsys, "analyze", "budget", "--image-patches", patches,
                             "--text-context", "228", "--output", str(csv_path))
        assert code == 1
        assert err == f"error: image_patches must be >= 0, got {patches}\n"
        assert out == "" and not csv_path.exists()


    def test_standard_sweep_short_context_fails(self, tmp_path, capsys):
        csv_path = tmp_path / "b.csv"
        code, out, err = run(capsys, "analyze", "budget", "--text-context", "16",
                             "--output", str(csv_path))
        assert code == 1
        assert err.startswith("error: text_context must be >= 32 for the standard sweep")
        assert "text_keep" not in err
        assert out == "" and not csv_path.exists()

    def test_single_row_short_context_still_works(self, capsys):
        code, out, _ = run(capsys, "analyze", "budget", "--text-keep", "8",
                           "--text-context", "16")
        assert code == 0 and out.splitlines()[1].split() == ["49", "8", "57", "26.89"]


class TestAnalyzeStats:
    def test_two_record_corpus(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", ["a b", "a b c d"])
        csv_path = str(tmp_path / "s.csv")
        code, out, _ = run(capsys, "analyze", "stats", "--input", corpus,
                           "--output", csv_path)
        assert code == 0
        assert [line.split() for line in out.splitlines()[:2]] == [
            ["sample_count", "total_words", "mean_length", "std_length"],
            ["2", "6", "3.000000", "1.000000"]]
        lines = Path(csv_path).read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "sample_count,total_words,mean_length,std_length"
        assert lines[1] == "2,6,3.000000,1.000000"


class TestAnalyzeDist:
    def test_csv_shape_on_zipf_corpus(self, tmp_path, capsys, zipf_corpus):
        corpus = write_corpus(tmp_path / "z.txt", [" ".join(t) for t in zipf_corpus[:1500]])
        csv_path = str(tmp_path / "d.csv")
        code, _, _ = run(capsys, "analyze", "dist", "--input", corpus,
                         "--strategies", "truncation,random,block,frequency",
                         "--k", "6", "--top-n", "50", "--output", csv_path)
        assert code == 0
        lines = Path(csv_path).read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "rank,word,before,after_truncation,after_random,after_block,after_frequency"
        assert len(lines) == 51  # header + 50 rows
        assert all(len(line.split(",")) == 7 for line in lines)

    def test_recount_oracle(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", ["a a b", "a b c"])
        csv_path = str(tmp_path / "d.csv")
        run(capsys, "analyze", "dist", "--input", corpus, "--strategies", "truncation",
            "--k", "2", "--top-n", "3", "--output", csv_path)
        lines = Path(csv_path).read_text(encoding="utf-8").strip().splitlines()
        # truncation keeps [a,a] and [a,b]
        assert lines[1] == "1,a,3,3"
        assert lines[2] == "2,b,2,1"
        assert lines[3] == "3,c,1,0"


class TestAnalyzePos:
    def test_pretagged_shares(self, tmp_path, capsys):
        corpus = write_corpus(
            tmp_path / "c.txt",
            ["dog/NN big/JJ runs/VB the/DT cat/NN naps/VB", "a/DT b/NN c/NN d/JJ e/VB f/IN"],
        )
        csv_path = str(tmp_path / "p.csv")
        code, out, _ = run(capsys, "analyze", "pos", "--input", corpus, "--pretagged",
                           "--strategies", "truncation,syntax", "--k", "3",
                           "--output", csv_path)
        assert code == 0
        lines = Path(csv_path).read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "strategy,NN,JJ,VB,OTHER,total"
        # before: 4 NN, 2 JJ, 3 VB, 3 OTHER of 12
        assert lines[1] == "before,33.33,16.67,25.00,25.00,12"
        # syntax keeps per caption: [dog,big,cat] and [b,c,d] -> 4 NN, 2 JJ
        assert lines[3] == "syntax,66.67,33.33,0.00,0.00,6"


class TestTagsPerCommand:
    def test_lexicon_tags_do_not_leak_between_runs(self, tmp_path, capsys):
        lex_path = tmp_path / "lex.tsv"
        lex_path.write_text("dog\tJJ\n", encoding="utf-8")
        corpus = write_corpus(tmp_path / "c.txt", ["dog", "dog"])

        def pos_row(*extra):
            csv_path = str(tmp_path / "p.csv")
            code, _, _ = run(capsys, "analyze", "pos", "--input", corpus,
                             "--strategies", "truncation", "--output", csv_path, *extra)
            assert code == 0
            return Path(csv_path).read_text(encoding="utf-8").splitlines()[1]

        # in both orders: the lexicon run tags dog JJ, the default run NN
        for _ in range(2):
            assert pos_row("--lexicon", str(lex_path)) == "before,0.00,100.00,0.00,0.00,2"
            assert pos_row() == "before,100.00,0.00,0.00,0.00,2"


class TestAnalyzeSlots:
    def test_swclip_below_full(self, tmp_path, capsys, zipf_corpus):
        corpus = write_corpus(tmp_path / "z.txt", [" ".join(t) for t in zipf_corpus[:800]])
        csv_path = str(tmp_path / "s.csv")
        code, out, _ = run(capsys, "analyze", "slots", "--input", corpus,
                           "--strategies", "truncation,random,frequency,swclip",
                           "--k", "6", "--output", csv_path)
        assert code == 0
        lines = Path(csv_path).read_text(encoding="utf-8").strip().splitlines()
        values = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
        assert values["truncation"] == 1.0
        assert values["random"] == 1.0
        assert values["frequency"] == 1.0
        assert values["swclip"] < 1.0


class TestAnalyzeStdoutIsTheCsv:
    """Each report's stdout is its CSV: one line a row, the cells in order,
    each column starting at the same place on every line."""

    @pytest.mark.parametrize("argv", [
        ("dist", "--pretagged", "--k", "3", "--top-n", "6"),
        ("pos", "--pretagged", "--k", "3"),
        ("slots", "--pretagged", "--k", "3"),
        ("stats", "--pretagged"),
        ("budget",),
        ("budget", "--image-mask-ratio", "0.5", "--text-keep", "16"),
    ], ids=["dist", "pos", "slots", "stats", "budget-sweep", "budget-single-row"])
    def test_stdout_matches_csv(self, tmp_path, capsys, argv):
        # "a,b" is a word with a comma in it, so its CSV cell is quoted.
        corpus = write_corpus(tmp_path / "c.txt", [
            "the/DT a,b/NN dog/NN runs/VB fast/RB ./.",
            "a,b/NN big/JJ a,b/NN cat/NN naps/VB",
        ])
        args = ["analyze", *argv]
        if argv[0] != "budget":
            args[2:2] = ["--input", corpus]
        csv_path = tmp_path / "r.csv"
        code, table, _ = run(capsys, *args)
        assert code == 0
        code, out, _ = run(capsys, *args, "--output", str(csv_path))
        assert code == 0
        assert out == f"{table}wrote {csv_path}\n"

        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        lines = table.splitlines()
        assert [line.split() for line in lines] == rows
        if argv[0] == "dist":
            assert '"a,b"' in csv_path.read_text(encoding="utf-8")
            assert ["1", "a,b"] == rows[1][:2]
        starts = [[m.start() for m in re.finditer(r"\S+", line)] for line in lines]
        assert all(s == starts[0] for s in starts)
        assert not any(line.endswith(" ") for line in lines)


class TestErrorHandling:
    @pytest.mark.parametrize("command,flag,value,message", [
        (command, flag, value, message)
        for command in ("mask", "demo", "dist", "pos", "slots")
        for flag, value, message in (("--k", "0", "must be at least 1, got 0"),
                                     ("--t", "2", "threshold must be in (0, 1), got 2.0"),
                                     ("--t", "nan", "threshold must be in (0, 1), got nan"))
    ] + [("dist", "--top-n", "0", "must be at least 1, got 0")])
    def test_analyze_checks_arguments_before_reading_input(self, tmp_path, capsys, monkeypatch,
                                                           command, flag, value, message):
        """A bad flag value is a usage error of every command that takes the
        flag, raised before the corpus (bad JSON on line 2) or the table
        (missing) is opened and before anything is printed or written."""
        monkeypatch.chdir(tmp_path)
        write_corpus(tmp_path / "c.jsonl", ['{"id": "1", "caption": "a dog"}', "{not json"])
        corpus = ["--input", "c.jsonl", "--format", "jsonl", "--output", "out"]
        argv, prog = {
            "mask": (["mask", "--strategy", "truncation"] + corpus, "mask"),
            "demo": (["demo", "--caption", "a dog", "--freq-table", "missing.freq"], "demo"),
        }.get(command, (["analyze", command] + corpus, f"analyze {command}"))
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: textmask {prog} ")
        assert err.splitlines()[-1] == f"textmask {prog}: error: argument {flag}: {message}"
        assert os.listdir(tmp_path) == ["c.jsonl"]

    @pytest.mark.parametrize("command", [
        ["analyze", "dist"],
        ["analyze", "slots", "--strategies", "truncation"],
    ], ids=["dist", "slots-truncation"])
    def test_given_freq_table_is_read_before_the_corpus(self, tmp_path, capsys, monkeypatch,
                                                       command):
        """``analyze`` reads a given table first, as ``mask`` does, even when
        no chosen strategy uses it: a missing one is reported, not the bad
        JSON on line 2 and not a clean exit."""
        monkeypatch.chdir(tmp_path)
        write_corpus(tmp_path / "b.jsonl", ['{"id": "1", "caption": "a dog"}', "{not json"])
        corpus = ["--input", "b.jsonl", "--format", "jsonl", "--freq-table", "missing.freq"]
        mask = run(capsys, "mask", "--strategy", "truncation", "--output", "m.txt", *corpus)
        assert mask == (1, "", "error: [Errno 2] No such file or directory: 'missing.freq'\n")
        assert run(capsys, *command, *corpus) == mask
        assert os.listdir(tmp_path) == ["b.jsonl"]

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "freq", "--input", str(tmp_path / "nope.txt"),
                           "--output", str(tmp_path / "t"))
        assert code == 1
        assert "nope.txt" in err

    def test_unknown_strategy_in_analyze(self, tmp_path, capsys, toy_corpus):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "dist", "--input", toy_corpus, "--strategies", "bogus"])
        assert exc.value.code == 2


class TestPretaggedExcludesLexicon:
    """Pre-tagged captions skip the tagger, so a lexicon given with them
    would be read and ignored; the pair is a usage error instead, found
    before the lexicon file is opened (a malformed one fails the same way)."""

    @pytest.mark.parametrize("lexicon", ["dog\tJJ\n", "no tab here\n"], ids=["valid", "malformed"])
    @pytest.mark.parametrize("command", [
        ["mask", "--strategy", "syntax", "--output", "m.txt"],
        ["demo", "--caption", "dog/NN runs/VBZ big/JJ cat/NN", "--freq-table", "t.freq"],
        ["analyze", "dist"],
        ["analyze", "pos"],
        ["analyze", "slots"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_usage_error(self, tmp_path, capsys, monkeypatch, command, lexicon):
        monkeypatch.chdir(tmp_path)
        write_corpus(tmp_path / "c.txt", ["dog/NN runs/VBZ big/JJ cat/NN"])
        (tmp_path / "t.freq").write_text("#total 1\ndog\t1\n", encoding="utf-8")
        (tmp_path / "lex.tsv").write_text(lexicon, encoding="utf-8")
        argv = command + ["--pretagged", "--lexicon", "lex.tsv", "--k", "2"]
        if command[0] != "demo":
            argv += ["--input", "c.txt"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--lexicon" in err.splitlines()[-1] and "--pretagged" in err.splitlines()[-1]
        assert not (tmp_path / "m.txt").exists()


class TestLineEndingsCli:
    def test_lone_cr_keeps_record_count(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"a dog\rruns fast\nthe cat\n")
        out = tmp_path / "m.txt"
        code, stdout, _ = run(capsys, "mask", "--input", str(corpus), "--strategy", "truncation",
                              "--k", "3", "--output", str(out))
        assert code == 0 and "masked 2 captions" in stdout
        assert out.read_text(encoding="utf-8") == "a dog runs\nthe cat\n"

    @pytest.mark.parametrize("strategy", ["frequency", "syntax", "random"])
    def test_crlf_corpus_masks_like_its_lf_twin(self, tmp_path, capsys, toy_corpus, strategy):
        lf = Path(toy_corpus).read_bytes()
        crlf = tmp_path / "toy_crlf.txt.gz"
        crlf.write_bytes(gzip.compress(lf.replace(b"\n", b"\r\n")))
        outputs = []
        for name, corpus in (("lf", toy_corpus), ("crlf", str(crlf))):
            table = str(tmp_path / f"{name}.freq")
            out = tmp_path / f"{name}.out"
            assert run(capsys, "freq", "--input", corpus, "--output", table)[0] == 0
            assert run(capsys, "mask", "--input", corpus, "--strategy", strategy,
                       "--freq-table", table, "--output", str(out))[0] == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 200


class TestByteOrderMarkCli:
    BOM = b"\xef\xbb\xbf"

    @pytest.mark.parametrize("format, body", [
        ("plain", b"hello world\nthe hello cat\n"),
        ("jsonl", b'{"id": "a", "caption": "hello world"}\n{"caption": "the hello cat"}\n'),
    ], ids=["plain", "jsonl"])
    def test_bom_corpus_masks_like_its_twin(self, tmp_path, capsys, format, body):
        outputs = []
        for name, data in (("plain", body), ("bom", self.BOM + body)):
            corpus = tmp_path / f"{name}.in"
            corpus.write_bytes(data)
            table = str(tmp_path / f"{name}.freq")
            out = tmp_path / f"{name}.out"
            assert run(capsys, "freq", "--input", str(corpus), "--format", format,
                       "--output", table)[0] == 0
            assert run(capsys, "mask", "--input", str(corpus), "--format", format,
                       "--strategy", "frequency", "--freq-table", table, "--k", "2",
                       "--output", str(out))[0] == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and b"\xef\xbb\xbf" not in outputs[1]

    def test_freq_on_bom_corpus_counts_the_word(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(self.BOM + b"hello world\nhello\n")
        out_path = tmp_path / "t.freq"
        code, _, _ = run(capsys, "freq", "--input", str(corpus), "--output", str(out_path))
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == "#total 3\nhello\t2\nworld\t1\n"


class TestOutputSafety:
    def test_unsafe_tsv_id_fails(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "x1", "caption": "a cat"}\n'
                          '{"id": "x\\ty", "caption": "a dog"}\n', encoding="utf-8")
        out = tmp_path / "m.tsv"
        code, _, err = run(capsys, "mask", "--input", str(corpus), "--format", "jsonl",
                           "--strategy", "truncation", "--output-format", "tsv",
                           "--output", str(out))
        assert code == 1
        assert "error: record 1: id 'x\\ty'" in err
        assert not out.exists()

    def test_mid_stream_error_keeps_old_output(self, tmp_path, capsys):
        lines = [json.dumps({"id": str(i), "caption": f"caption number {i}"}) for i in range(3000)]
        lines[2500] = "{not json"
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "m.jsonl"
        out.write_text("old\n" * 3000, encoding="utf-8")
        code, _, err = run(capsys, "mask", "--input", str(corpus), "--format", "jsonl",
                           "--strategy", "truncation", "--output", str(out))
        assert code == 1 and ":2501: invalid JSON" in err
        assert out.read_text(encoding="utf-8") == "old\n" * 3000
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "m.jsonl"]


    @pytest.mark.parametrize("command", ["mask", "freq", "stats", "freq-table", "lexicon"])
    def test_gzip_input_cut_short(self, tmp_path, capsys, toy_corpus, command):
        """gzip raises EOFError there; it is reported naming the file, exit 1."""
        bad = tmp_path / "bad.gz"
        out = tmp_path / "out"
        out.write_bytes(b"old\n")
        table = tmp_path / "t.freq"
        assert run(capsys, "freq", "--input", toy_corpus, "--output", str(table))[0] == 0
        data = {"freq-table": table.read_bytes(), "lexicon": b"alpha\tNN\nbeta\tVB\n"}
        bad.write_bytes(gzip_cut_short(data.get(command, b"a dog\n" * 100)))
        mask = ["mask", "--strategy", "frequency", "--output", str(out)]
        argv = {
            "mask": mask + ["--input", str(bad), "--freq-table", str(table)],
            "freq": ["freq", "--input", str(bad), "--output", str(out)],
            "stats": ["analyze", "stats", "--input", str(bad), "--output", str(out)],
            "freq-table": mask + ["--input", toy_corpus, "--freq-table", str(bad)],
            "lexicon": mask + ["--input", toy_corpus, "--freq-table", str(table),
                               "--lexicon", str(bad)],
        }[command]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == (f"error: {bad}: Compressed file ended before the end-of-stream "
                       "marker was reached\n")
        assert out.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.gz", "out", "t.freq",
                                                              "toy.txt"]

    @pytest.mark.parametrize("command", [
        ["mask", "--strategy", "truncation", "--input", "{toy}"],
        ["mask", "--strategy", "truncation", "--threads", "2", "--input", "{toy}"],
        ["freq", "--input", "{toy}"],
        ["analyze", "slots", "--strategies", "truncation", "--input", "{toy}"],
        ["analyze", "dist", "--strategies", "truncation", "--input", "{toy}"],
        ["analyze", "pos", "--strategies", "truncation", "--input", "{toy}"],
        ["analyze", "stats", "--input", "{toy}"],
        ["analyze", "budget"],
        ["mask", "--strategy", "truncation", "--input", "{missing}"],
        ["analyze", "slots", "--strategies", "truncation", "--input", "{missing}"],
    ], ids=["mask", "mask-threads-2", "freq", "analyze-slots", "analyze-dist", "analyze-pos",
            "analyze-stats", "analyze-budget", "mask-missing-input",
            "analyze-slots-missing-input"])
    def test_unwritable_output_names_the_output(self, tmp_path, capsys, toy_corpus, command):
        """The error names --output, not the temp file written beside it.
        ``mask`` and ``analyze`` open --output before they read any input,
        so they print no report and blame no input."""
        out = tmp_path / "missing" / "out"
        argv = [arg.format(toy=toy_corpus, missing=tmp_path / "no-input") for arg in command]
        code, stdout, err = run(capsys, *argv, "--output", str(out))
        assert (code, stdout) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert sorted(os.listdir(tmp_path)) == ["toy.txt"]

    @pytest.mark.parametrize("caption", ["null", "12", '["a", "b"]', "{}"])
    def test_non_string_caption_fails(self, tmp_path, capsys, caption):
        lines = [json.dumps({"id": str(i), "caption": f"caption number {i}"}) for i in range(50)]
        lines[40] = '{"id": "40", "caption": %s}' % caption
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "m.jsonl"
        out.write_text("old\n", encoding="utf-8")
        code, _, err = run(capsys, "mask", "--input", str(corpus), "--format", "jsonl",
                           "--strategy", "truncation", "--output", str(out))
        assert code == 1 and ":41: 'caption' must be a JSON string" in err
        assert out.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "m.jsonl"]


    @pytest.mark.parametrize("record_id", ["null", "true", '{"a": 1}', "1e3", "[1]"])
    def test_bad_id_fails(self, tmp_path, capsys, record_id):
        lines = [json.dumps({"id": str(i), "caption": f"caption number {i}"}) for i in range(50)]
        lines[40] = '{"id": %s, "caption": "a dog"}' % record_id
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "m.jsonl"
        out.write_text("old\n", encoding="utf-8")
        code, _, err = run(capsys, "mask", "--input", str(corpus), "--format", "jsonl",
                           "--strategy", "truncation", "--output", str(out))
        assert code == 1 and ":41: 'id' must be a JSON string or integer" in err
        assert out.read_text(encoding="utf-8") == "old\n"


class TestInputLocations:
    """An input error names the file, and the line where it is known."""

    @pytest.mark.parametrize("command", ["corpus", "corpus-gz", "freq-table", "lexicon"])
    def test_undecodable_bytes_name_the_file(self, tmp_path, capsys, toy_corpus, command):
        out = tmp_path / "out"
        out.write_bytes(b"old\n")
        table = tmp_path / "t.freq"
        assert run(capsys, "freq", "--input", toy_corpus, "--output", str(table))[0] == 0
        data = {"freq-table": table.read_bytes(), "lexicon": b"alpha\tNN\nbeta\tVB\n"}
        data = data.get(command, b"a dog\n" * 100)
        data = data[:-3] + b"\xff" + data[-2:]
        bad = tmp_path / ("bad.gz" if command == "corpus-gz" else "bad")
        bad.write_bytes(gzip.compress(data) if command == "corpus-gz" else data)
        mask = ["mask", "--strategy", "frequency", "--output", str(out)]
        argv = {
            "corpus": mask + ["--input", str(bad), "--freq-table", str(table)],
            "corpus-gz": mask + ["--input", str(bad), "--freq-table", str(table)],
            "freq-table": mask + ["--input", toy_corpus, "--freq-table", str(bad)],
            "lexicon": mask + ["--input", toy_corpus, "--freq-table", str(table),
                               "--lexicon", str(bad)],
        }[command]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        line = data.count(b"\n", 0, data.index(b"\xff")) + 1
        assert err.startswith(f"error: {bad}:{line}: 'utf-8' codec can't decode byte 0xff "
                              "in position ")
        assert out.read_bytes() == b"old\n"

    @pytest.mark.parametrize("command", [
        ["mask", "--strategy", "truncation", "--output", "m.txt"],
        ["freq", "--output", "t.freq"],
        ["analyze", "stats"],
        ["analyze", "dist", "--strategies", "truncation"],
        ["analyze", "pos", "--strategies", "truncation"],
        ["analyze", "slots", "--strategies", "truncation"],
    ], ids=["mask", "freq", "stats", "dist", "pos", "slots"])
    def test_malformed_pretagged_caption_names_its_line(self, tmp_path, capsys, monkeypatch,
                                                        command):
        monkeypatch.chdir(tmp_path)
        lines = [f"the/DT cat/NN {i}/CD" for i in range(3001)]
        lines[2500] = "the/DT cat"
        corpus = write_corpus(tmp_path / "p.txt", lines)
        code, stdout, err = run(capsys, *command, "--input", corpus, "--pretagged")
        assert (code, stdout) == (1, "")
        assert err == f"error: {corpus}:2501: malformed word/TAG pair at index 1: 'cat'\n"

    @pytest.mark.parametrize("command", [
        ["mask", "--strategy", "truncation", "--output", "m.jsonl"],
        ["freq", "--output", "t.freq"],
        ["analyze", "dist", "--strategies", "truncation", "--output", "r.csv"],
        ["analyze", "pos", "--strategies", "truncation", "--output", "r.csv"],
        ["analyze", "slots", "--strategies", "truncation", "--output", "r.csv"],
    ], ids=["mask", "freq", "dist", "pos", "slots"])
    def test_lone_surrogate_fails_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                    command):
        """No UTF-8 output can hold a lone surrogate, so it is refused on
        read, before anything is printed or written."""
        monkeypatch.chdir(tmp_path)
        lines = [json.dumps({"id": i, "caption": f"a dog number {i}"}) for i in range(600)]
        lines[300] = '{"id": 300, "caption": "a dog \\udfff"}'
        corpus = write_corpus(tmp_path / "c.jsonl", lines)
        code, stdout, err = run(capsys, *command, "--input", corpus, "--format", "jsonl")
        assert (code, stdout) == (1, "")
        assert err == (f"error: {corpus}:301: 'caption' holds a lone surrogate: 'utf-8' codec "
                       "can't encode character '\\udfff' in position 6: surrogates not allowed\n")
        assert os.listdir(tmp_path) == ["c.jsonl"]


class TestUsageErrors:
    @pytest.mark.parametrize("threads", ["0", "-1"], ids=["zero", "negative"])
    def test_threads_below_one(self, tmp_path, capsys, toy_corpus, threads):
        with pytest.raises(SystemExit) as exc:
            main(["mask", "--input", toy_corpus, "--strategy", "truncation",
                  "--output", str(tmp_path / "m.txt"), "--threads", threads])
        assert exc.value.code == 2
        assert "argument --threads: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("report", ["dist", "pos", "slots"])
    def test_strategy_named_twice(self, tmp_path, capsys, toy_corpus, report):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", report, "--input", toy_corpus, "--strategies",
                  "random,truncation, random", "--output", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: textmask analyze {report} ")
        assert "argument --strategies: strategy 'random' is named twice" in err
        assert not (tmp_path / "r.csv").exists()


class TestEnvironmentIgnored:
    """A run is a function of its arguments and input: the TEXTMASK_*
    variables that once replaced the --k, --t, --seed and --threads
    defaults, bad values included, change nothing."""

    ENV = {"TEXTMASK_K": "abc", "TEXTMASK_T": "tiny", "TEXTMASK_SEED": "7",
           "TEXTMASK_THREADS": "0"}

    def outputs(self, capsys, monkeypatch, workdir, corpus, table):
        """(exit code, stdout, stderr) of each command and the bytes it wrote,
        run in ``workdir`` with relative output paths, so stdout is comparable."""
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        results = []
        for threads in ("1", "2"):
            out = f"m{threads}.txt"
            results.append(run(capsys, "mask", "--input", corpus, "--strategy", "frequency",
                               "--freq-table", table, "--threads", threads, "--output", out))
            results.append(Path(out).read_bytes())
        results.append(run(capsys, "demo", "--caption", CAPTION, "--freq-table", table))
        results.append(run(capsys, "analyze", "slots", "--input", corpus,
                           "--output", "slots.csv"))
        results.append(Path("slots.csv").read_bytes())
        return results

    def test_outputs_equal_a_clean_environment(self, tmp_path, capsys, monkeypatch, toy_corpus):
        for name in [name for name in os.environ if name.startswith("TEXTMASK_")]:
            monkeypatch.delenv(name)
        table = str(tmp_path / "t.freq")
        assert run(capsys, "freq", "--input", toy_corpus, "--output", table)[0] == 0
        clean = self.outputs(capsys, monkeypatch, tmp_path / "clean", toy_corpus, table)
        for name, value in self.ENV.items():
            monkeypatch.setenv(name, value)
        with_env = self.outputs(capsys, monkeypatch, tmp_path / "env", toy_corpus, table)
        assert [r[0] for r in with_env if isinstance(r, tuple)] == [0, 0, 0, 0]
        assert with_env == clean


class TestHelp:
    def help_text(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("report", ["dist", "pos", "slots"])
    def test_every_comparison_report_explains_strategies(self, capsys, report):
        assert "comma-separated strategies to compare" in self.help_text(
            capsys, "analyze", report)

    def test_help_states_the_library_defaults(self, capsys):
        # argparse wraps help lines, so compare with whitespace collapsed.
        budget = " ".join(self.help_text(capsys, "analyze", "budget").split())
        assert f"unmasked (default: {analysis.BASELINE_IMAGE_PATCHES})" in budget
        assert f"text tokens per sample, unmasked (default: {analysis.BASELINE_TEXT_CONTEXT})" \
            in budget
        dist = " ".join(self.help_text(capsys, "analyze", "dist").split())
        assert "original count (default: 50)" in dist
        assert f"per caption (default: {MaskingConfig.k})" in dist
        assert f"(default: {DEFAULT_THRESHOLD})" in dist
        assert f"run seed (default: {MaskingConfig.seed})" in dist


class TestModuleEntrypoint:
    """``python -m textmask``, the way the benchmark launches every command."""

    def argv_env(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return [sys.executable, "-m", "textmask", *argv], env

    def textmask(self, cwd, *argv):
        argv, env = self.argv_env(*argv)
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              encoding="utf-8")

    def test_success_exits_zero(self, tmp_path):
        result = self.textmask(tmp_path, "analyze", "budget")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines()[0].split() == [
            "image_tokens", "text_tokens", "total", "percentage"]

    def test_missing_input_file_exits_one(self, tmp_path):
        result = self.textmask(tmp_path, "freq", "--input", "nope.txt", "--output", "t.freq")
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert "nope.txt" in result.stderr

    def test_usage_error_exits_two(self, tmp_path, toy_corpus):
        result = self.textmask(tmp_path, "mask", "--input", toy_corpus, "--strategy",
                               "truncation", "--output", "m.txt", "--threads", "0")
        assert result.returncode == 2
        assert result.stderr.startswith("usage: textmask mask ")
        assert "argument --threads: must be at least 1" in result.stderr
        assert not (tmp_path / "m.txt").exists()

    def test_closed_stdout_is_not_an_error(self, tmp_path):
        # 6000 ranked words print far more than a pipe holds, so the command
        # is still printing when its reader goes, as under ``| head -1``.
        corpus = write_corpus(tmp_path / "c.txt", [f"a{i} b{i} c{i}" for i in range(2000)])
        argv, env = self.argv_env("analyze", "dist", "--input", corpus, "--strategies",
                                  "truncation", "--top-n", "6000")
        with subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().split()[:2] == [b"rank", b"word"]
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait() == 1


class TestAnalyzeMemory:
    def test_peak_memory_flat_in_number_of_strategies(self, tmp_path, capsys, zipf_corpus):
        corpus = write_corpus(tmp_path / "z.txt", [" ".join(t) for t in zipf_corpus[:3000]])

        def peak(strategies):
            tracemalloc.start()
            try:
                assert main(["analyze", "pos", "--input", corpus, "--strategies", strategies]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        main(["analyze", "pos", "--input", corpus, "--strategies", ",".join(STRATEGIES)])
        two = peak("truncation,frequency")
        six = peak(",".join(STRATEGIES))
        assert six <= 1.2 * two, f"six strategies peak {six} B vs two {two} B"

    @pytest.mark.parametrize("lines,extra", [
        (["the big dog", "a big dog", "the dog sleeps"], []),
        (["the/DT big/JJ dog/NN", "a/DT big/JJ dog/NN", "the/DT dog/NN sleeps/VBZ"],
         ["--pretagged"]),
    ])
    def test_prepared_corpus_holds_one_string_per_word_type(self, tmp_path, lines, extra):
        corpus = write_corpus(tmp_path / "c.txt", lines)
        args = build_parser().parse_args(["analyze", "pos", "--input", corpus, *extra])
        token_tuples, _, _ = _analyze_corpus(args)
        held = {}
        for tokens in token_tuples:
            for token in tokens:
                assert held.setdefault(token, token) is token
        assert sum(len(tokens) for tokens in token_tuples) == 9 and len(held) == 5

    @pytest.mark.parametrize("extra,tagged", [
        (["pos"], True),
        (["pos", "--pretagged"], True),
        (["dist", "--strategies", "truncation,frequency"], False),
        (["slots", "--strategies", "syntax"], True),
    ])
    def test_prepared_corpus_holds_exact_size_sequences(self, tmp_path, extra, tagged):
        # Long captions, so a list grown by append would have spare slots.
        words = ["the", "big", "dog", "runs", "far", "and", "a", "cat", "sleeps", "in",
                 "the", "warm", "sun", "today"]
        if "--pretagged" in extra:
            words = [f"{w}/NN" for w in words]
        corpus = write_corpus(tmp_path / "c.txt",
                              [" ".join(words[:n]) for n in (1, 5, 11, 14)] + [""])
        args = build_parser().parse_args(["analyze", extra[0], "--input", corpus, *extra[1:]])
        token_tuples, tag_codes, _ = _analyze_corpus(args)
        assert [len(tokens) for tokens in token_tuples] == [1, 5, 11, 14, 0]
        if tagged:
            assert [type(codes) for codes in tag_codes] == [bytes] * 5
            assert [len(codes) for codes in tag_codes] == [1, 5, 11, 14, 0]
        else:
            assert tag_codes == [None] * 5
        for seq in token_tuples:
            assert sys.getsizeof(seq) == sys.getsizeof(tuple(seq))

    @pytest.mark.parametrize("lines,extra", [
        (["the big dog runs", "", "a famous red bus, parked!", "dog's (big) café"], []),
        (["the/DT big/JJ dog/NNS runs/VBZ", "", "a/DT red/JJR bus/NN ,/, parked/VBN",
          "dog's/NNP (big)/-LRB- café/FW"], ["--pretagged"]),
        (["the big dog runs", "", "a famous red bus, parked!", "dog's (big) café"],
         ["--lexicon", "lex.tsv"]),
    ], ids=["plain", "pretagged", "lexicon"])
    def test_tag_codes_decode_to_the_prepared_tags(self, tmp_path, monkeypatch, lines, extra):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "lex.tsv").write_text("dog\tJJ\nruns\tNN\nbus\tVBD\nthe\tNN\n",
                                         encoding="utf-8")
        corpus = write_corpus(tmp_path / "c.txt", lines)
        args = build_parser().parse_args(["analyze", "pos", "--input", corpus, *extra])
        _, tag_codes, _ = _analyze_corpus(args)
        lexicon = _load_lexicon_arg(args)
        expected = [prepare_record(line, args.pretagged, lexicon, want_tags=True)[1]
                    for line in lines]
        assert [_decode_tags(codes) for codes in tag_codes] == expected
        view = _DecodedTags(tag_codes)
        assert len(view) == len(lines)
        assert list(view) == [view[r] for r in range(len(lines))] == expected
