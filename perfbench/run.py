"""Benchmark entry point: run one workload, check its outputs, print its
metrics.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 36 --trace 0

Run it from the repository root.  It first compiles the bytecode of
``src/`` and of the benchmark.  Every pass is a fresh interpreter
(``worker.py``), so the library's caches start empty, as they do for a
user's session.  With ``--trace 0`` the first pass runs the workload's
fixed part and its ladder (``reach_d``); further passes repeat the fixed
part while the next one still fits in ``--seconds``.  ``wall_s`` and
``peak_rss_mb`` are medians over the passes.  With ``--trace 1`` the run
makes one untraced pass and one traced pass of the fixed part and
reports the per-layer metrics, including the tracing overhead (traced
minus untraced ``wall_s``).  Before each pass, a few set-up-only
interpreters time ``import ordspectra`` plus ``default_store()``;
``setup_s`` is the median over those and the passes.

Every time is in seconds at a fixed reference speed (``refclock.py``):
each pass times a fixed pure-Python loop every 50 ms and scales the
work between two samples by how fast the loop ran, so that the drift of
a shared machine's speed does not show in the metrics.  The plain
seconds are printed beside them (``raw_*``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when the workload ran, even if an output was wrong (then
``correct`` is false); it is not 0 when the run could not be made, for
example without the library's source under ``src/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKDIR

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
#: set-up-only interpreters before each pass, so that the samples span the run
SETUP_SAMPLES_PER_PASS = 3
MIN_PASSES = 2
#: a run must end within 180 s whatever its passes do
DEADLINE_S = 170


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} pass of {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def per_layer(spec: dict, workload: str, plain: dict, traced: dict) -> dict:
    """Traced pass's layer metrics, completed to the listed names."""
    layers = dict(traced["layers"])
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    if workload in ("frontier", "survey"):
        layers[f"{workload}.unverified_ranks"] = plain["unverified"]
    if workload == "oracle":
        layers["oracle.known_defects"] = traced["known_defects"]
        layers["oracle.gate_mismatches"] = len(plain["problems"]) + len(traced["problems"])
    names = {m["name"] for m in spec["per_layer"]}
    values = {name: 0 for name in names}
    for name, value in layers.items():
        if name not in names:  # a label the pinned outputs never showed
            name = name.rsplit(".", 1)[0] + ".other"
        if name in values:
            values[name] += value
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("frontier", "survey", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ordspectra" / "__init__.py").is_file():
        print(f"no ordspectra source under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = load_spec()
    WORKDIR.mkdir(exist_ok=True)
    # workers import from bytecode compiled here, so that setup_s and
    # peak_rss_mb do not depend on whether an earlier run left it behind
    for tree in (ROOT / "src", HERE):
        if not compileall.compile_dir(tree, quiet=1):
            raise WorkerFailed(f"{tree} does not compile")

    start = perf_counter()
    deadline = start + DEADLINE_S
    setup_runs, passes, durations = [], [], []
    while True:
        setup_runs += [run_worker(args.workload, args.seed, "setup", deadline)
                       for _ in range(SETUP_SAMPLES_PER_PASS)]
        began = perf_counter()
        mode = "fixed" if passes else "plain"
        passes.append(run_worker(args.workload, args.seed, mode, deadline))
        durations.append(perf_counter() - began)
        if args.trace or (len(passes) >= MIN_PASSES
                          and perf_counter() - start + durations[-1] > args.seconds):
            break
    runs = list(passes)
    if args.trace:
        runs.append(run_worker(args.workload, args.seed, "traced", deadline))
    setups = [run["setup_s"] for run in setup_runs + runs]
    raw_setups = [run["raw_setup_s"] for run in setup_runs + runs]

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    known = sum(run["known_defects"] for run in runs)
    problems = [p for run in runs for p in run["problems"]]
    for problem in problems:
        print(f"WRONG: {problem}")
    if args.trace:
        values = per_layer(spec, args.workload, passes[0], runs[-1])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(run["wall_s"] for run in passes),
            "reach_d": passes[0]["reach_d"],
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in passes),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(runs)} setup_samples={len(setups)} "
          f"elapsed_s={perf_counter() - start:.1f}")
    print(f"  raw_setup_s = {statistics.median(raw_setups)} s (plain seconds)")
    for run in passes:
        print(f"  pass: wall_s={run['wall_s']:.4f} raw_wall_s={run['raw_wall_s']:.4f} "
              f"reference_samples={run['reference_samples']} reach={run.get('reach')}")
    print(f"  error_rate = {(failed + known) / attempted:.4f} ratio "
          f"({failed} failed + {known} known defect of {attempted} operations)")
    for name in sorted(values):
        print(f"  {name} = {values[name]} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        sys.exit(1)
