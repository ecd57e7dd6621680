"""One pass of one workload in a fresh interpreter.

Usage (from the repository root; ``run.py`` starts it):

    python3 perfbench/worker.py --workload survey --seed 7 --mode plain

Modes: ``setup`` only times the set-up; ``plain`` runs the fixed part
and the ladder untraced; ``fixed`` runs the fixed part untraced;
``traced`` runs the fixed part with spans and counters installed.  The
set-up is timed in plain seconds and then converted, and everything
after it is timed, with ``refclock.RefClock``, in seconds at the
reference speed; ``raw_*`` values are plain seconds.  The last line of
standard output is one JSON object with the pass's numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def layer_metrics(tracer, wall: float) -> dict:
    from ordspectra import arith, sym_partitions
    from ordspectra import torus_spectra as ts

    self_s = tracer.self_times()
    counts = tracer.counts
    pm1 = ts._factored_pm1.cache_info()
    table = sym_partitions._TABLE
    emitted = counts["torus_spectra.divisors_emitted"]
    out = {
        "torus_spectra.union_s": self_s.get("torus_spectra.semisimple_orders_simple", 0.0)
        + self_s.get("torus_spectra.nr_semisimple_orders", 0.0),
        "torus_spectra.bound_s": self_s.get("torus_spectra.nr_semisimple_orders_bound", 0.0),
        "torus_spectra.tori": counts["torus_spectra.union_tori"],
        "torus_spectra.bound_tori": counts["torus_spectra.bound_tori"],
        "torus_spectra.smith_calls": counts["torus_spectra.smith_calls"],
        "torus_spectra.divisors_emitted": emitted,
        "torus_spectra.union_yield": (counts["torus_spectra.distinct_orders"] / emitted
                                      if emitted else 0.0),
        "torus_spectra.pm1_cache_hits": pm1.hits,
        "torus_spectra.pm1_cache_misses": pm1.misses,
        "arith.factored_pm1_s": self_s.get("arith.factored_qn_pm1", 0.0),
        "arith.prime_power_split_calls": counts["arith.prime_power_split_calls"],
        "arith.trial_divisions": arith.counters["trial_divisions"],
        "arith.rho_rounds": arith.counters["rho_rounds"],
        "sym_partitions.omicron_s": self_s.get("sym_partitions.omicron", 0.0),
        "sym_partitions.g2_s": self_s.get("sym_partitions.g2", 0.0),
        "sym_partitions.table_rows": len(table.rows),
        "sym_partitions.table_cells": sum(len(row) for row in table.rows),
        "bounds.epsilon_q_s": self_s.get("bounds.epsilon_q_lower", 0.0),
        "bounds.epsilon_q_calls": tracer.calls("bounds.epsilon_q_lower"),
        "bounds.epsilon_omega_s": self_s.get("bounds.epsilon_omega_lower", 0.0),
        "bounds.element_orders_upper_s": self_s.get("bounds.nr_element_orders_upper", 0.0),
        "class_numbers.lower_bound_s":
            self_s.get("class_numbers.class_number_lower_bound", 0.0),
        "lie_catalog.group_order_s": self_s.get("lie_catalog.group_order", 0.0),
        "survey.prime_powers_below_s": self_s.get("survey.prime_powers_below", 0.0),
        "survey.displays_s": self_s.get("survey.displays", 0.0),
        "cli.main_s": self_s.get("cli.main", 0.0),
        "cli.commands": tracer.calls("cli.main"),
        "data.default_store_s": self_s.get("data.default_store", 0.0),
        "data.load_data_s": self_s.get("data.load_data", 0.0),
        "oracle.build_s": self_s.get("oracle.build", 0.0),
        "oracle.closure_s": self_s.get("oracle.closure", 0.0),
        "oracle.classes_s": self_s.get("oracle.classes", 0.0),
        "oracle.orders_s": self_s.get("oracle.orders", 0.0),
        "oracle.aut_s": self_s.get("oracle.aut", 0.0),
        "oracle.generic_aut_s": self_s.get("oracle.generic_aut", 0.0),
        "oracle.generators": counts["oracle.generators"],
        "oracle.elements": counts["oracle.elements"],
        "oracle.closure_products": counts["oracle.closure_products"],
        "oracle.class_products": counts["oracle.class_products"],
        "oracle.build_failures": sum(n for outcome, n in
                                     tracer.outcomes("oracle.build").items()
                                     if outcome != "ok"),
        "trace.spans": len(tracer.spans),
        "trace.traced_wall_s": wall,
    }
    for outcome, n in tracer.outcomes("bounds.epsilon_q_lower").items():
        out[f"bounds.epsilon_q.{outcome}"] = n
    for kind in ("omega", "q-classical", "q-exceptional"):
        out[f"survey.exceptions_s.{kind}"] = self_s.get(f"survey.exceptions.{kind}", 0.0)
    for key, n in counts.items():
        if key.startswith("survey.candidates."):
            out[key] = n
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("frontier", "survey", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "fixed", "traced"))
    args = parser.parse_args()

    start = perf_counter()
    import ordspectra
    from ordspectra.data import default_store

    store = default_store()
    setup = perf_counter() - start
    if not Path(ordspectra.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ordspectra imported from {ordspectra.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # imported only now, so that its imports are not in the set-up time
    import refclock

    clock = refclock.RefClock()
    clock.start()
    result = {"setup_s": clock.to_reference(setup), "raw_setup_s": setup}
    if args.mode == "setup":
        clock.stop()
        print(json.dumps(result))
        return 0

    import workloads
    from ordspectra import arith

    expected = workloads.load_expected()
    gate = workloads.Gate()
    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer(clock.now)
        tracing.install_probes(tracer)
    arith.reset_counters()
    ladder = args.mode == "plain"
    if args.workload == "frontier":
        result.update(workloads.run_frontier(args.seed, gate, expected, ladder, clock))
    elif args.workload == "survey":
        result.update(workloads.run_survey(args.seed, gate, expected, ladder, clock))
    else:
        result.update(workloads.run_oracle(args.seed, gate, expected, ladder, clock, store))
    clock.stop()
    result["reference_samples"] = len(clock.samples)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, result["wall_s"])
        tracer.write(workloads.WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl")
    result.update(attempted=gate.attempted, failed=gate.failed,
                  known_defects=gate.known_defects, unverified=gate.unverified,
                  problems=gate.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
