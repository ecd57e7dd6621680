"""Write ``expected.json``: the outputs every workload is gated against.

The pinned values are the outputs of the library at the commit that
introduced the benchmark, for every input a seed can pick.  Regenerate
them only when an output is meant to change, and say so in the change:

    python3 perfbench/pin.py

(run from the repository root; it takes a few minutes).  Frontier and
ladder counts are pinned well past the ranks the baseline reaches, so a
faster library is still checked; each frontier ladder also records
``fixed_d``, the last rank of its fixed part, chosen three ranks below the
baseline reach.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import workloads as w  # noqa: E402

#: a rank is pinned while it takes at most this long on the pinning machine
PIN_LIMIT_S = 4.0


def pin_frontier() -> dict:
    from ordspectra import lie_catalog
    from ordspectra import torus_spectra as ts

    out = {}
    for family, qs in w.FRONTIER_Q.items():
        for Q in qs:
            counts, reach = {}, None
            for d in range(w.first_rank(family), w.MAX_RANK + 1):
                start = perf_counter()
                counts[str(d)] = ts.nr_semisimple_orders(lie_catalog.make_spec(family, d, Q))
                elapsed = perf_counter() - start
                if reach is None and elapsed > w.FRONTIER_BUDGET_S:
                    reach = d - 1
                if elapsed > PIN_LIMIT_S:
                    break
            out[f"{family}/{Q}"] = {"fixed_d": reach - 3, "counts": counts}
            print("frontier", family, Q, "reach", reach, "pinned to", d, flush=True)
    return out


def cli_out(argv: list[str]) -> str:
    code, out, err = w.run_cli(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err}")
    return out


def pin_survey() -> dict:
    commands = [["sym", "omicron", "--n", str(n)] for n in w.SYM_OMICRON_N]
    commands += [["sym", "constants", "--max", str(m), "--argmax"]
                 for m in w.SYM_CONSTANTS_MAX]
    commands += [["survey", "general2", "--d", str(d)] for d in w.GENERAL2_D]
    commands += [["survey", "classical1", "--d", str(d), "--type", str(t)]
                 for d in w.CLASSICAL1_D for t in (1, 2, 3, 4)]
    commands += [["survey", "classical2", "--d", str(d), "--q", str(q)]
                 for d in w.CLASSICAL2_D for q in w.CLASSICAL2_Q]
    for levels, choices in (("2,1", w.EPSILON_Q_21), ("1,1", w.EPSILON_Q_11)):
        commands += [["lie", "epsilon-q", "--family", f, "--d", str(d), "--q", str(Q),
                      "--levels", levels] for f, d, Q in choices]
    commands += [["lie", "spectrum", "--family", f, "--d", str(d), "--q", str(Q),
                  "--semisimple"] for f, d, Q in w.SPECTRUM]
    cli = {" ".join(argv): cli_out(argv) for argv in commands}
    print("survey commands", len(cli), flush=True)

    exceptions = {kind: {} for kind in w.EXCEPTION_KINDS}
    keys = {**w.Q0_CUTOFFS, **w.Q0_EXCEPTIONAL}
    with tempfile.TemporaryDirectory() as tmp:
        q0_path = Path(tmp) / "q0.dat"
        for key, cutoffs in keys.items():
            for cutoff in cutoffs:
                w.write_q0(q0_path, {key: cutoff})
                for kind in w.EXCEPTION_KINDS:
                    out = cli_out(["survey", "exceptions", kind, "--q0", str(q0_path),
                                   "--config", str(w.MONSTER_DAT)])
                    exceptions[kind][f"{key}:{cutoff}"] = out.splitlines()
    print("survey exception keys", len(exceptions["omega"]), flush=True)

    oord = {}
    for family, Q in w.SURVEY_LADDER_Q.items():
        values = {}
        for d in range(w.first_rank(family), w.MAX_RANK + 1):
            start = perf_counter()
            values[str(d)] = cli_out(w.oord_command(family, d, Q))
            if perf_counter() - start > PIN_LIMIT_S:
                break
        oord[f"{family}/{Q}"] = values
        print("oord", family, Q, "pinned to", d, flush=True)
    return {"cli": cli, "exceptions": exceptions, "oord": oord}


def pin_oracle() -> dict:
    from ordspectra import oracle
    from ordspectra.errors import DomainError

    groups = {}
    for (kind, n, q), catalog in w.ORACLE_GROUPS.items():
        name = w.group_key(kind, n, q)
        try:
            group = oracle.build_classical(kind, n, q)
        except DomainError as exc:
            print("oracle", name, "fails:", exc, flush=True)
            groups[name] = {"order": oracle.expected_order(kind, n, q)}
            continue
        groups[name] = {"order": group.order, "classes": group.conjugacy_class_count(),
                        "orders": list(group.element_orders().values)}
        if catalog is not None:
            groups[name]["aut"] = oracle.nr_aut_orbits(group)
    generic = {name: oracle.generic_nr_aut_orbits(w.build_tiny(name))
               for name in w.TINY_GROUPS}
    sym = {}
    for n in range(w.SYM_ORACLE_FIRST_N, w.SYM_ORACLE_MAX_N + 1):
        start = perf_counter()
        sym[str(n)] = len(oracle.sym_spectrum_oracle(n))
        if perf_counter() - start > PIN_LIMIT_S:
            break
    print("oracle sym spectrum pinned to", n, flush=True)
    return {"groups": groups, "generic_aut": generic, "sym_spectrum": sym}


def main() -> None:
    expected = {"survey": pin_survey(), "oracle": pin_oracle(), "frontier": pin_frontier()}
    with open(w.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
