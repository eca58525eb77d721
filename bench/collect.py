"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 1-10 [--trace 0|1] [--output FILE]

Run from the repository root. For each workload of ``BENCHMARK.json`` and
each seed it runs ``bench/run.py`` once for ``run_seconds`` and prints, per
metric, the median over seeds, the quartiles and the spread (quartile
distance as a share of the median) against the metric's bound, and the same
for the raw medians before calibration. ``--output`` saves the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    info = json.loads(proc.stdout.strip().splitlines()[0])
    result["inputs"] = info["inputs"]
    result["raw_medians"] = info["raw_medians"]
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:  # seeds outermost, so slow drift spreads over every workload
        for workload in names:
            result = run_once(workload, seed, seconds, args.trace)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} [{result['elapsed_s']:.1f}s]",
                  file=sys.stderr)

    summary = {"seeds": seeds, "trace": args.trace, "seconds": seconds, "workloads": {}}
    for workload, results in runs.items():
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
        raw = {name: summarize([r["raw_medians"][name] for r in results])
               for name in results[0]["raw_medians"]}
        summary["workloads"][workload] = {
            "inputs": results[0]["inputs"],
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "max_elapsed_s": max(r["elapsed_s"] for r in results),
            "metrics": metrics,
            "raw_medians": raw,
        }
        print(f"\n{workload}  (n={len(results)} seeds, correct={summary['workloads'][workload]['correct']}, "
              f"slowest run {summary['workloads'][workload]['max_elapsed_s']:.1f}s)")
        for name, m in metrics.items():
            bound = bounds.get(name)
            line = (f"  {name:<32} {m['median']:>12.6g} {m['unit']:<6} "
                    f"q1 {m['q1']:<10.6g} q3 {m['q3']:<10.6g} spread {m['spread']:6.1%}")
            if bound:
                line += f"  bound {bound:.0%}{'  WIDE' if m['spread'] > bound / 3 else ''}"
            print(line)
        if args.trace == 0:
            print("  raw medians, before calibration:")
            for name, m in raw.items():
                print(f"  {name:<32} {m['median']:>12.6g}        "
                      f"q1 {m['q1']:<10.6g} q3 {m['q3']:<10.6g} spread {m['spread']:6.1%}")
    if args.output:
        args.output.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
