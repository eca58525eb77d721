"""Tests of the benchmark itself: inputs, output checks and the tracer."""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
if str(BENCH.parent / "src") not in sys.path:
    sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from textmask.tokenizer import tokenize  # noqa: E402

SMALL = {"mask-frequency": 300, "analyze-compare": 120, "prep-jsonl-gz": 300}


@pytest.fixture(scope="module", autouse=True)
def small_corpora():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "CAPTIONS", SMALL)
        yield


def small_job(tmp_path: Path, workload: str, seed: int = 0) -> workloads.Job:
    return workloads.prepare(workload, seed, tmp_path / workload, nproc=2)


def run_job(job: workloads.Job, tracer: tracing.Tracer | None = None) -> float:
    """Run the job's commands through ``cli.main``; return the sum of the
    commands' wall times, each timed around its ``run_command`` call."""
    for cmd in job.prebuild:
        assert tracing.run_command(cmd.argv, cmd.label) == 0
    wall = 0.0
    with tracing.instrumented(tracer) if tracer else contextlib.nullcontext():
        for cmd in job.commands:
            start = tracing.clock()
            assert tracing.run_command(cmd.argv, cmd.label, tracer) == 0
            wall += tracing.clock() - start
    return wall


def test_inputs_depend_only_on_seed(tmp_path):
    a = small_job(tmp_path / "a", "prep-jsonl-gz", seed=3)
    b = small_job(tmp_path / "b", "prep-jsonl-gz", seed=3)
    c = small_job(tmp_path / "c", "prep-jsonl-gz", seed=4)
    assert checks.content(a.corpus.path) == checks.content(b.corpus.path)
    assert checks.content(a.corpus.path) != checks.content(c.corpus.path)
    assert a.properties == b.properties
    assert 0.2 < a.properties["slow_path_chunk_share"] < 0.5
    plain = small_job(tmp_path, "mask-frequency")
    assert plain.properties["slow_path_chunk_share"] < 0.1


@pytest.fixture(scope="module")
def masked(tmp_path_factory, small_corpora):
    """A correct syntax-masked jsonl output and everything needed to check it."""
    job = small_job(tmp_path_factory.mktemp("masked"), "prep-jsonl-gz")
    run_job(job)
    cmd = next(c for c in job.commands if c.kind == "masked")
    lines = checks.content(cmd.output).decode("utf-8").splitlines(keepends=True)
    return job, [tokenize(t) for t in job.corpus.captions], cmd.output, lines


def rewrite(path: Path, lines: list[str]) -> Path:
    bad = path.with_name("bad.jsonl")
    bad.write_text("".join(lines), encoding="utf-8")
    return bad


def check(job, tokens, path):
    return checks.check_masked(job.corpus, tokens, path, "syntax", workloads.K)


def test_checker_accepts_correct_output(masked):
    job, tokens, output, _ = masked
    assert check(job, tokens, output) == []


def test_checker_rejects_truncated_output(masked):
    job, tokens, output, lines = masked
    problems = check(job, tokens, rewrite(output, lines[:-1]))
    assert problems and "records, expected" in problems[0]


def test_checker_rejects_reordered_output(masked):
    job, tokens, output, lines = masked
    problems = check(job, tokens, rewrite(output, [lines[1], lines[0]] + lines[2:]))
    assert any("expected" in p and "id" in p for p in problems)


def test_checker_rejects_over_budget_caption(masked):
    job, tokens, output, lines = masked
    i = next(i for i, t in enumerate(tokens) if len(t) > workloads.K)
    record = json.loads(lines[i])
    record["caption"] = " ".join(tokens[i][: workloads.K + 1])
    lines = lines[:i] + [json.dumps(record, ensure_ascii=False) + "\n"] + lines[i + 1:]
    problems = check(job, tokens, rewrite(output, lines))
    assert any("budget" in p for p in problems)


def test_checker_rejects_wrong_digest(masked):
    _, _, output, _ = masked
    got = checks.digest(output)
    assert checks.check_pinned(output.name, got, {output.name: got}) == []
    assert checks.check_pinned(output.name, got, {output.name: "0" * 64})
    assert checks.check_pinned(output.name, got, {})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_self_times_add_up(tmp_path, workload):
    job = small_job(tmp_path, workload)
    run_job(job)
    untraced = {c.output.name: checks.digest(c.output) for c in job.commands}
    tracer = tracing.Tracer()
    traced_wall = run_job(job, tracer)
    assert {c.output.name: checks.digest(c.output) for c in job.commands} == untraced
    for cmd in job.commands:
        assert checks.check_output(cmd, job.corpus, [tokenize(t) for t in job.corpus.captions],
                                   workloads.K) == []

    # Self times partition the command spans exactly, and add up to the
    # commands' wall time as timed around them; none is negative.
    spans = sum(s.end - s.start for s in tracer.spans)
    assert tracer.self_total() == pytest.approx(spans, abs=1e-6)
    assert tracer.self_total() == pytest.approx(traced_wall, rel=0.01)
    assert all(layer.self_s >= 0 for layer in tracer.layers.values())

    metrics = tracing.layer_metrics(tracer)
    n = len(job.corpus.captions)
    assert metrics["corpus_io.records_read"] == n * len(job.commands)
    if workload == "mask-frequency":
        assert metrics["maskers.apply_mask_calls"] == metrics["corpus_io.records_written"] == 2 * n
        assert metrics["postag.tag_s"] == 0 and metrics["freq.load_s"] > 0
        assert 0 < metrics["freq.unknown_token_ratio"] < 0.5
    elif workload == "analyze-compare":
        assert metrics["maskers.apply_mask_calls"] == 3 * n * len(workloads.STRATEGIES)
        assert metrics["analysis.distribution_report_s"] > 0 and metrics["cli.analyze_self_s"] > 0
        assert metrics["corpus_io.records_written"] == 0
    else:
        assert metrics["postag.tags"] == metrics["maskers.tokens_in"]
        assert metrics["freq.build_s"] > 0 and metrics["freq.save_s"] > 0
        assert metrics["maskers.slot_utilization"] == 1.0


def test_instrumentation_is_removed_after_the_block():
    from textmask import analysis, cli

    before = (cli.read_corpus, cli.apply_mask, analysis.distribution_report)
    with tracing.instrumented(tracing.Tracer()):
        assert cli.apply_mask is not before[1]
    assert (cli.read_corpus, cli.apply_mask, analysis.distribution_report) == before


def test_benchmark_json_lists_every_metric_with_its_unit():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    emitted = [*tracing.layer_metrics(tracing.Tracer()), "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.unit(n) for n in emitted}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mask-frequency",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
