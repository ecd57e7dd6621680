"""Steadiness evidence and the baseline record.

    python3 perfbench/steady.py --out perfbench/BENCH_baseline.json

(from the repository root).  For every workload it makes ``RUNS``
untraced runs, each with another seed, and reports for each end-to-end
metric the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (quartile distance over median) and whether the spread stays
within a third of the metric's bound.  It then makes two traced runs of
one seed per workload and checks that the count metrics repeat exactly.
The record keeps, with the numbers, why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
#: untraced runs per workload, each with another seed
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(argv)} failed its output gate:\n{proc.stdout}")
    return result


def summary(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values), "spread": spread,
            "within_third_of_bound": spread < bound / 3, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    record = {"commit": commit or None, "run_seconds": seconds,
              "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
              f"{platform.python_implementation()} {platform.python_version()}",
              "workloads": {}}
    for entry in spec["workloads"]:
        workload = entry["name"]
        results = [run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "bound": m["bound"], **summary(values, m["bound"])}
            print(workload, m["name"], json.dumps(metrics[m["name"]]), flush=True)
        entry_out = {"why": entry["why"], "end_to_end": metrics,
                     "attempted": [r["attempted"] for r in results]}
        first, second = (run(workload, 1, seconds, 1) for _ in range(2))
        layers = {name: [first["metrics"][name]["value"], second["metrics"][name]["value"]]
                  for name in first["metrics"]}
        units = {name: first["metrics"][name]["unit"] for name in layers}
        # every metric but the times is a count or a ratio of counts
        changed = sorted(name for name, (a, b) in layers.items()
                         if a != b and units[name] != "s")
        entry_out["per_layer"] = {name: {"unit": units[name], "two_traced_runs": pair}
                                  for name, pair in layers.items()}
        entry_out["counts_repeat_exactly"] = not changed
        print(workload, "counts that changed between traced runs:", changed, flush=True)
        record["workloads"][workload] = entry_out
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
