"""Output checks for the benchmark's textmask commands.

Each check returns a list of problems; an empty list means the output is
correct. A command whose output has any problem counts as failed.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
from pathlib import Path

from workloads import STRATEGIES, Command, Corpus

POS_CATEGORIES = ("NN", "JJ", "VB", "OTHER")
MAX_PROBLEMS = 5


def content(path: Path) -> bytes:
    """File bytes, decompressed for ``.gz``: the gzip header carries a
    write time, so only the payload is comparable between runs."""
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as fh:
            return fh.read()
    return path.read_bytes()


def digest(path: Path) -> str:
    return hashlib.sha256(content(path)).hexdigest()


def _is_subsequence(kept: list[str], tokens: list[str]) -> bool:
    it = iter(tokens)
    return all(tok in it for tok in kept)


def _masked_records(path: Path, fmt: str) -> list[tuple[str | None, str]]:
    lines = content(path).decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    if fmt == "plain":
        return [(None, line) for line in lines]
    records = []
    for line in lines:
        obj = json.loads(line)
        records.append((obj["id"], obj["caption"]))
    return records


def check_masked(corpus: Corpus, tokens: list[list[str]], path: Path, strategy: str, k: int) -> list[str]:
    """One record per input record, in order, ids kept; each caption a
    subsequence of its input tokens holding min(n, k) of them (at most k
    for swclip)."""
    try:
        records = _masked_records(path, corpus.format)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    problems = []
    if len(records) != len(corpus.captions):
        problems.append(f"{path.name}: {len(records)} records, expected {len(corpus.captions)}")
    for i, ((record_id, text), want_id, toks) in enumerate(zip(records, corpus.ids, tokens)):
        if record_id is not None and record_id != want_id:
            problems.append(f"{path.name}:{i + 1}: id {record_id!r}, expected {want_id!r}")
        kept = text.split(" ") if text else []
        if not _is_subsequence(kept, toks):
            problems.append(f"{path.name}:{i + 1}: not a subsequence of the input tokens")
        budget = min(len(toks), k)
        if len(kept) > budget or (strategy != "swclip" and len(kept) != budget):
            problems.append(f"{path.name}:{i + 1}: kept {len(kept)} tokens, budget {budget}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def check_table(path: Path, total_tokens: int) -> list[str]:
    """A '#total N' header whose N is the corpus token count and the sum
    of the word counts."""
    try:
        lines = content(path).decode("utf-8").splitlines()
        total = int(lines[0].removeprefix("#total "))
        counted = sum(int(line.rsplit("\t", 1)[1]) for line in lines[1:])
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    if total != counted or total != total_tokens:
        return [f"{path.name}: total {total}, counts sum {counted}, corpus has {total_tokens} tokens"]
    return []


def check_csv(path: Path, report: str, tokens: list[list[str]], k: int) -> list[str]:
    """Shape and invariants of an analyze CSV over all six strategies."""
    try:
        rows = list(csv.reader(io.StringIO(content(path).decode("utf-8"))))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    if not rows:
        return [f"{path.name}: empty"]
    header, body = rows[0], rows[1:]
    filled = sum(min(len(t), k) for t in tokens)
    try:
        if report == "dist":
            want = ["rank", "word", "before"] + [f"after_{s}" for s in STRATEGIES]
            if header != want or not body:
                return [f"{path.name}: header {header} or no rows"]
            for row in body:
                if any(int(after) > int(row[2]) for after in row[3:]):
                    return [f"{path.name}: {row[1]!r} counted more often after masking than before"]
            return []
        if report == "pos":
            if header != ["strategy", *POS_CATEGORIES, "total"] or \
                    [r[0] for r in body] != ["before", *STRATEGIES]:
                return [f"{path.name}: header {header} or rows {[r[0] for r in body]}"]
            totals = {r[0]: int(r[-1]) for r in body}
            wrong = [s for s in STRATEGIES if s != "swclip" and totals[s] != filled]
            if totals["before"] != sum(map(len, tokens)) or totals["swclip"] > filled or wrong:
                return [f"{path.name}: token totals {totals} (budget fill {filled})"]
            return []
        if report != "slots":
            return [f"{path.name}: unknown report {report!r}"]
        values = {r[0]: float(r[1]) for r in body}
        if header != ["strategy", "slot_utilization"] or list(values) != list(STRATEGIES):
            return [f"{path.name}: header {header} or rows {list(values)}"]
        if any(values[s] != 1.0 for s in STRATEGIES if s != "swclip") or not 0 <= values["swclip"] <= 1:
            return [f"{path.name}: slot utilization {values}"]
        return []
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{path.name}: malformed: {exc}"]


def check_output(cmd: Command, corpus: Corpus, tokens: list[list[str]], k: int) -> list[str]:
    if not cmd.output.is_file():
        return [f"{cmd.label}: no output {cmd.output.name}"]
    if cmd.kind == "masked":
        return check_masked(corpus, tokens, cmd.output, cmd.strategy, k)
    if cmd.kind == "table":
        return check_table(cmd.output, sum(map(len, tokens)))
    return check_csv(cmd.output, cmd.argv[1], tokens, k)


def check_pinned(name: str, got: str, pinned: dict[str, str]) -> list[str]:
    """An output must match its pinned digest; an output with no pin fails
    too, so a new output cannot slip past the oracle."""
    want = pinned.get(name)
    if want is None:
        return [f"{name}: no pinned digest"]
    if got != want:
        return [f"{name}: sha256 {got} differs from pinned {want}"]
    return []
