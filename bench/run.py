"""textmask benchmark: seeded workloads, CLI jobs timed from outside.

    python3 bench/run.py --workload mask-frequency --seed 0 --seconds 20 --trace 0

Run from the repository root. It generates the workload's corpus from
``--seed`` under ``.bench_work/``, then:

* ``--trace 0`` runs each textmask command as a child process, one at a
  time, repeating the workload's job until ``--seconds`` have passed, and
  reports the end-to-end metrics (medians over the repeats);
* ``--trace 1`` runs the same job in this process through
  ``textmask.cli.main``, alternately untraced and traced, and reports the
  per-layer metrics (see ``tracing.py``) and the tracing overhead.

Every output is checked (``checks.py``). The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads
from tracing import clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINNED = BENCH / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 60
# Typical time of reference.py on a shared 2-core Intel Xeon VM, Python 3.11.
REFERENCE_S = 0.3
RATES = ("captions_per_s", "parallel_captions_per_s")

END_TO_END_UNITS = {
    "captions_per_s": "1/s",
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "parallel_captions_per_s": "1/s",
}
LAYER_UNITS = {"maskers.slot_utilization": "ratio", "freq.unknown_token_ratio": "ratio",
               "corpus_io.bytes_written": "bytes"}


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float


class Launcher:
    """Client of ``launcher.py``, the small process that starts commands."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stderr: Path) -> dict:
        request = {"argv": argv, "cwd": str(ROOT), "stderr": str(stderr), "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


class Bench:
    """One run: set-up, the timed repeats, and the bookkeeping of checks."""

    def __init__(self, job: workloads.Job, pinned: dict[str, str] | None, launcher: Launcher):
        self.job = job
        self.launcher = launcher
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self._tokens: dict[Path, list[list[str]]] = {}

    def tokens(self, path: Path) -> list[list[str]]:
        if path not in self._tokens:
            from textmask.tokenizer import tokenize

            self._tokens[path] = [tokenize(t) for t in self.job.inputs[path].captions]
        return self._tokens[path]

    def verify(self, cmd: workloads.Command, rc: int, same_as: workloads.Command | None = None) -> bool:
        """Count one attempted command; check its exit code and output.

        The first output of each file gets the full check (and the pinned
        digest, when this seed has pins); later repeats must reproduce it
        byte for byte. ``same_as`` names a command whose output this one
        must equal.
        """
        self.attempted += 1
        problems = [f"{cmd.label}: exit code {rc}"] if rc != 0 else []
        if not problems:
            got = checks.digest(cmd.output)
            want = self.digests.get((same_as or cmd).output.name)
            if want is None:
                problems = checks.check_output(cmd, self.job.inputs[cmd.corpus],
                                               self.tokens(cmd.corpus), workloads.K)
                if self.pinned is not None and cmd.corpus != self.job.one.path:
                    problems += checks.check_pinned(cmd.output.name, got, self.pinned)
                if not problems:
                    self.digests[cmd.output.name] = got
            elif got != want:
                problems = [f"{cmd.label}: output differs from {(same_as or cmd).label}'s first output"]
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems

    def child(self, cmd: workloads.Command, same_as: workloads.Command | None = None) -> Child:
        """Run ``cmd`` as a child process; time it and read its rusage."""
        err_path = cmd.output.with_name(cmd.output.name + ".stderr")
        result = self.launcher.run([sys.executable, "-m", "textmask", *cmd.argv], err_path)
        if not self.verify(cmd, result["rc"], same_as) and result["rc"] != 0:
            self.problems.append(err_path.read_text(errors="replace")[-2000:])
        return Child(result["wall_s"], result["cpu_s"], result["maxrss_kb"] / 1024)

    def reference(self) -> float:
        """Time one run of ``reference.py``."""
        result = self.launcher.run([sys.executable, str(BENCH / "reference.py")], WORK / "reference.stderr")
        if result["rc"] != 0:
            raise RuntimeError(f"reference.py exited with code {result['rc']}")
        return result["wall_s"]

    def run_untraced(self, seconds: float) -> dict[str, list[float]]:
        """Samples of every end-to-end metric, plus "reference_s"."""
        job = self.job
        for cmd in job.prebuild + [job.reference]:
            self.child(cmd)
        captions = len(job.corpus.captions)
        parallel_captions = len(job.inputs[job.parallel.corpus].captions)
        samples: dict[str, list[float]] = {name: [] for name in [*END_TO_END_UNITS, "reference_s"]}
        deadline = clock() + seconds
        while not samples["wall_s"] or (clock() < deadline and not self.failed):
            kids = [self.child(cmd) for cmd in job.commands]
            par = self.child(job.parallel, same_as=job.reference)
            # The set-up job runs once per repeat, so its samples span the run.
            samples["setup_s"].append(sum(self.child(cmd).wall for cmd in job.setup_commands))
            wall = sum(k.wall for k in kids)
            samples["wall_s"].append(wall)
            samples["captions_per_s"].append(captions * len(kids) / wall)
            samples["cpu_s"].append(sum(k.cpu for k in kids))
            samples["peak_rss_mb"].append(max(k.rss_mb for k in kids + [par]))
            samples["parallel_captions_per_s"].append(parallel_captions / par.wall)
            samples["reference_s"].append(self.reference())
        return samples

    def run_inprocess(self, tracer: tracing.Tracer | None) -> float:
        """One repeat of the job through ``cli.main``; returns its wall time.

        Traced, the repeat is a span and each command a child span of it.
        """
        wall = 0.0
        results = []
        with tracer.span("repeat", "bench.repeat") if tracer else contextlib.nullcontext() as parent:
            for cmd in self.job.commands:
                start = clock()
                try:
                    rc = tracing.run_command(cmd.argv, cmd.label, tracer, parent)
                except Exception:  # a crash fails this command; the run goes on
                    traceback.print_exc()
                    rc = -1
                wall += clock() - start
                results.append((cmd, rc))
        for cmd, rc in results:
            self.verify(cmd, rc)
        return wall

    def run_traced(self, seconds: float) -> tuple[dict[str, list[float]], list[tracing.Span]]:
        for cmd in self.job.prebuild:
            self.child(cmd)
        samples: dict[str, list[float]] = {}
        spans: list[tracing.Span] = []
        deadline = clock() + seconds
        repeat = 0
        while repeat == 0 or (clock() < deadline and not self.failed):
            tracer = tracing.Tracer()
            # Alternate which side goes first so drift cancels out.
            for traced in (repeat % 2 == 1, repeat % 2 == 0):
                if traced:
                    with tracing.instrumented(tracer):
                        traced_wall = self.run_inprocess(tracer)
                else:
                    untraced_wall = self.run_inprocess(None)
            for name, value in tracing.layer_metrics(tracer).items():
                samples.setdefault(name, []).append(value)
            samples.setdefault("trace.overhead_s", []).append(traced_wall - untraced_wall)
            spans += [dataclasses.replace(s, name=f"{repeat}:{s.name}") for s in tracer.spans]
            repeat += 1
        return samples, spans


def calibrated(medians: dict[str, float]) -> dict[str, float]:
    """End-to-end metrics at the reference speed: times multiplied, and
    rates divided, by ``REFERENCE_S`` over the run's median reference time."""
    scale = REFERENCE_S / medians["reference_s"]
    metrics = {}
    for name in END_TO_END_UNITS:
        value = medians[name]
        if name in RATES:
            value /= scale
        elif name != "peak_rss_mb":
            value *= scale
        metrics[name] = value
    return metrics


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "reference_s":
        return "s"
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def load_pinned(workload: str, seed: int) -> dict[str, str] | None:
    pins = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    return pins.get(str(seed), {}).get(workload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help=f"write this seed's output digests to {PINNED.name} instead of checking them")
    args = parser.parse_args(argv)
    if not (SRC / "textmask" / "cli.py").is_file():
        print(f"error: textmask sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The job is defined by its arguments alone, in this process and its children.
    for name in [name for name in os.environ if name.startswith("TEXTMASK_")]:
        del os.environ[name]

    nproc = len(os.sched_getaffinity(0))
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    launcher = Launcher()  # before the corpora exist, so it stays small
    try:
        job = workloads.prepare(args.workload, args.seed, workdir, nproc)
        bench = Bench(job, None if args.pin else load_pinned(args.workload, args.seed), launcher)
        if args.trace:
            samples, spans = bench.run_traced(args.seconds)
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps([dataclasses.asdict(s) for s in spans]))
        else:
            samples = bench.run_untraced(args.seconds)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.pin:
        if bench.failed:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        pins = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
        main_outputs = [c.output.name for c in job.prebuild + job.commands + [job.reference]]
        pins.setdefault(str(args.seed), {})[args.workload] = {
            name: bench.digests[name] for name in sorted(set(main_outputs))}
        PINNED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")

    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    medians = {name: statistics.median(values) for name, values in samples.items()}
    metrics = calibrated(medians) if "reference_s" in medians else medians
    # The measured medians, before calibration, with reference.py's own time.
    print(json.dumps({"workload": args.workload, "seed": args.seed, "nproc": nproc,
                      "inputs": job.properties, "raw_medians": medians}))
    print(f"{'metric':<32} {'value':>12} unit   {'raw median':>11}  n   raw min .. max")
    for name, values in samples.items():
        print(f"{name:<32} {metrics.get(name, medians[name]):>12.6g} {unit(name):<6} "
              f"{medians[name]:>11.6g} {len(values):>2}   {min(values):.6g} .. {max(values):.6g}")
    print(f"{'failed_ratio':<32} {bench.failed / bench.attempted:>12.6g} ratio  "
          f"{bench.failed} of {bench.attempted} commands failed")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
