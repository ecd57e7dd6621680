"""The three workloads: their inputs (drawn from the seed), their bodies
and the output gate.

Every workload has a fixed part and a budgeted ladder:

* the fixed part is the same work for every build of the library and
  about the same work for every seed, so its time (``wall_s``, read
  from ``refclock.RefClock`` in seconds at the reference speed), its peak
  memory and every count the traced run takes from it are comparable
  across commits;
* the ladder raises one size parameter until a single step exceeds a
  per-step budget; ``reach_d`` sums, over the ladders, the largest
  parameter that finished within it plus the fraction of the way to the
  next one at which the budget falls, in log time (``ladder_reach``), so
  it says how far exact computation gets in fixed time.

Each operation (a frontier rank, a CLI command, an oracle group) is
gated against values pinned in ``expected.json`` by the commit that
added the benchmark and, where one exists, against an independent
computation.  Seeds only pick among inputs whose outputs are pinned and
whose costs are close, and the ladders do not depend on them, so a
different seed changes the inputs but not the size of the work.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import resource
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
#: scratch files of a run (q0 tables, spans), under the repository root
WORKDIR = Path.cwd() / ".bench_work"

# -- frontier ---------------------------------------------------------------
#: the fixed part runs every (family, Q) below up to its pinned
#: ``fixed_d``; the ladders run the first Q of each family
FRONTIER_Q = {"A": (4, 5), "2A": (9, 16), "B": (3, 5), "C": (3, 4),
              "D": (2, 3), "2D": (9, 25)}
#: per-step budgets are in seconds at the reference speed (``refclock``)
FRONTIER_BUDGET_S = 0.5
MAX_RANK = 40

# -- survey -----------------------------------------------------------------
SYM_OMICRON_N = range(4500, 4600)
SYM_CONSTANTS_MAX = range(2000, 2100)
GENERAL2_D = range(3, 61)
CLASSICAL1_D = range(1, 61)
CLASSICAL2_D = range(1, 25)
CLASSICAL2_Q = (2, 3, 4, 5, 7, 8, 9)
#: q0 cutoffs per rank key; only the cheap low ranks vary with the seed
Q0_CUTOFFS = {**{k: (8, 9, 11, 13, 16) for k in range(1, 6)},
              **{k: (5,) for k in range(6, 12)},
              **{k: (4,) for k in range(12, 19)}}
Q0_EXCEPTIONAL = {"2B2": (32, 128, 512), "G2": (4, 5, 8), "2G2": (27, 243),
                  "3D4": (3, 4), "F4": (3, 4), "2F4": (8, 32), "E6": (3, 4),
                  "2E6": (3, 4), "E7": (3, 4), "E8": (3, 4)}
Q0_EXCEPTIONAL_KEYS = 3
EXCEPTION_KINDS = ("omega", "q-classical", "q-exceptional")
#: epsilon_q at levels (2, 1) needs seed class numbers, so A/2A groups
#: with a seed.dat entry; levels (1, 1) runs the per-torus bound path
EPSILON_Q_21 = ([("A", 1, q) for q in (4, 5, 7, 8, 9, 11, 13)]
                + [("A", 2, 2), ("A", 2, 3), ("A", 2, 4), ("A", 3, 2),
                   ("2A", 2, 9), ("2A", 2, 16), ("2A", 3, 4)])
EPSILON_Q_11 = [("B", 10, 3), ("C", 10, 3), ("D", 11, 2), ("2D", 10, 9),
                ("B", 9, 5), ("C", 9, 4), ("D", 10, 3), ("2D", 9, 25)]
SPECTRUM = [("A", 5, 3), ("2A", 5, 4), ("B", 4, 3), ("C", 4, 5),
            ("D", 5, 2), ("2D", 4, 9)]
#: level-1 element-order bound ladders (the per-torus divisor-count path)
SURVEY_LADDER_Q = {"B": 3, "C": 3, "D": 2, "2D": 9}
SURVEY_BUDGET_S = 0.25
MONSTER_DAT = Path("src/ordspectra/data/monster.dat")

# -- oracle -----------------------------------------------------------------
#: (kind, n, q) -> (catalog family, d, Q, seed.dat class-number key).
#: The large groups come first, in this order, so that the peak memory
#: is set the same way for every seed.
HEAVY_GROUPS = {
    ("PSU", 4, 2): ("2A", 3, 4, ("PSU", 4, 2)),
    ("PSp", 4, 3): ("C", 2, 3, ("B", 2, 3)),
    ("PSU", 3, 3): ("2A", 2, 9, ("PSU", 3, 3)),
    ("PSL", 3, 4): ("A", 2, 4, ("PSL", 3, 4)),
    ("PSL", 4, 2): ("A", 3, 2, ("PSL", 4, 2)),
    ("PSL", 3, 3): ("A", 2, 3, ("PSL", 3, 3)),
    ("GU", 3, 2): None,
}
#: the PSL(2, q) series, shuffled by the seed, plus one q the seed picks
#: from PSL2_EXTRA (no seed.dat entry: their class numbers are checked
#: against the closed form)
PSL2_Q = (4, 5, 7, 8, 9, 11, 13)
PSL2_EXTRA = (16, 17, 19)
ORACLE_GROUPS = {
    **HEAVY_GROUPS,
    **{("PSL", 2, q): ("A", 1, q, ("PSL", 2, q) if q in PSL2_Q else None)
       for q in PSL2_Q + PSL2_EXTRA},
}
#: a known oracle defect: the GU(3, 2) construction closes to order 162
KNOWN_DEFECT = (("GU", 3, 2), "gave order 162, expected 648")
TINY_GROUPS = ("Alt5", "Sym5", "PSL27")
SYM_ORACLE_FIRST_N = 30
SYM_ORACLE_MAX_N = 200
ORACLE_BUDGET_S = 0.25


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Gate:
    """Operation accounting: attempted, failed, known defects, and the
    description of every wrong or missing output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.problems: list[str] = []
        self.unverified = 0

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{what}: got {got!r}, expected {want!r}")

    @contextmanager
    def op(self, what: str):
        self.attempted += 1
        before = len(self.problems)
        try:
            yield
        except Exception as exc:  # one failed operation must not stop the run
            self.problems.append(f"{what}: raised {type(exc).__name__}: {exc}")
            traceback.print_exc()
        if len(self.problems) > before:
            self.failed += 1


def first_rank(family: str) -> int:
    return 2 if family in ("D", "2D") else 1


def timed_step(clock, budget: float, call):
    """(result, reference seconds) of one ladder step.  A step over the
    budget is timed once more and the faster time kept: on a shared
    machine one call can stall, and a stall would end the ladder early."""
    start = clock.now()
    result = call()
    elapsed = clock.now() - start
    if elapsed > budget:
        start = clock.now()
        call()
        elapsed = min(elapsed, clock.now() - start)
    return result, elapsed


def ladder_reach(times: dict[int, float], budget: float) -> float:
    """Where a ladder's step time reaches ``budget``.  ``times`` maps each
    parameter run, from the first, to its reference seconds (``inf`` for
    a failed step), and ends at the first step over budget unless the
    ladder hit its cap.  The result is the largest parameter within the
    budget plus the fraction of the way to the next one at which the
    budget falls, interpolating log time linearly; its whole part is the
    plain reach.  The fraction turns a step that lands near the budget
    from a jump of a whole rank into a small change."""
    ranks = sorted(times)
    over = [d for d in ranks if times[d] > budget]
    if not over:
        return float(ranks[-1])
    first_over = over[0]
    last = first_over - 1
    if last not in times or math.isinf(times[first_over]):
        return float(last)
    return last + math.log(budget / times[last]) / math.log(times[first_over] / times[last])


def fixed_part_result(clock, start: float, raw_start: float) -> dict:
    """Time (reference and plain seconds) and peak memory of a fixed part."""
    return {"wall_s": clock.now() - start, "raw_wall_s": clock.raw() - raw_start,
            "peak_rss_mb": peak_rss_mb()}


# ---------------------------------------------------------------------------
# frontier


def frontier_inputs(seed: int) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """(fixed-part (family, Q) in seeded order, ladders in seeded order)."""
    rng = random.Random(seed)
    fixed = [(family, Q) for family, qs in FRONTIER_Q.items() for Q in qs]
    rng.shuffle(fixed)
    ladders = [(family, qs[0]) for family, qs in FRONTIER_Q.items()]
    rng.shuffle(ladders)
    return fixed, ladders


def run_frontier(seed: int, gate: Gate, expected: dict, ladder: bool, clock) -> dict:
    from ordspectra import lie_catalog
    from ordspectra import torus_spectra as ts

    pins = expected["frontier"]
    fixed, ladders = frontier_inputs(seed)

    def step(family: str, Q: int, d: int, retry: bool) -> float:
        """Reference seconds of one rank (``inf`` if it failed).  Only a
        ladder rank is retried (``timed_step``); a fixed-part rank is one
        call, so that the fixed part is the same work in every pass."""
        spec = lie_catalog.make_spec(family, d, Q)
        pinned = pins[f"{family}/{Q}"]["counts"]
        with gate.op(f"frontier {family}_{d}({Q})"):
            count, elapsed = timed_step(clock, FRONTIER_BUDGET_S if retry else float("inf"),
                                        lambda: ts.nr_semisimple_orders(spec))
            if str(d) in pinned:
                gate.expect(f"nr_semisimple_orders {spec}", count, pinned[str(d)])
            else:
                gate.unverified += 1
                bound = ts.nr_semisimple_orders_bound(spec)
                if not 1 <= count <= bound:
                    gate.problems.append(f"nr_semisimple_orders {spec} = {count} "
                                         f"outside [1, level-1 bound {bound}]")
            return elapsed
        return float("inf")

    # the fixed part runs every rank up to fixed_d, one call each, even
    # past the budget, so that it is the same work in every pass
    times: dict[str, dict[int, float]] = {}
    start, raw_start = clock.now(), clock.raw()
    for family, Q in fixed:
        name = f"{family}/{Q}"
        times[name] = {}
        for d in range(first_rank(family), pins[name]["fixed_d"] + 1):
            times[name][d] = step(family, Q, d, retry=False)
    result = fixed_part_result(clock, start, raw_start)
    reach = {}
    if ladder:
        for family, Q in ladders:
            name = f"{family}/{Q}"
            steps = times[name]
            d = max(steps) + 1
            while d <= MAX_RANK and max(steps.values()) <= FRONTIER_BUDGET_S:
                steps[d] = step(family, Q, d, retry=True)
                d += 1
            reach[name] = ladder_reach(steps, FRONTIER_BUDGET_S)
    return {**result, "reach_d": sum(reach.values()),
            "reach": {name: round(r, 2) for name, r in reach.items()}}


# ---------------------------------------------------------------------------
# survey


def q0_table(rng: random.Random) -> dict:
    table = {k: rng.choice(cutoffs) for k, cutoffs in Q0_CUTOFFS.items()}
    for key in rng.sample(sorted(Q0_EXCEPTIONAL), Q0_EXCEPTIONAL_KEYS):
        table[key] = rng.choice(Q0_EXCEPTIONAL[key])
    return table


def survey_inputs(seed: int) -> tuple[list[list[str]], dict, list[tuple[str, int]]]:
    """(CLI commands of the fixed session, q0 table, bound ladders).
    Exception searches appear as ``["survey", "exceptions", kind]`` and
    get their file arguments when run."""
    rng = random.Random(seed)
    commands = [
        ["sym", "omicron", "--n", str(rng.choice(SYM_OMICRON_N))],
        ["sym", "constants", "--max", str(rng.choice(SYM_CONSTANTS_MAX)), "--argmax"],
    ]
    for d in rng.sample(GENERAL2_D, 2):
        commands.append(["survey", "general2", "--d", str(d)])
    for kind in (1, 2, 3, 4):
        commands.append(["survey", "classical1", "--d", str(rng.choice(CLASSICAL1_D)),
                         "--type", str(kind)])
    for _ in range(2):
        commands.append(["survey", "classical2", "--d", str(rng.choice(CLASSICAL2_D)),
                         "--q", str(rng.choice(CLASSICAL2_Q))])
    table = q0_table(rng)
    for kind in EXCEPTION_KINDS:
        commands.append(["survey", "exceptions", kind])
    for levels, choices in (("2,1", EPSILON_Q_21), ("1,1", EPSILON_Q_11)):
        for family, d, Q in rng.sample(choices, 2):
            commands.append(["lie", "epsilon-q", "--family", family, "--d", str(d),
                             "--q", str(Q), "--levels", levels])
    family, d, Q = rng.choice(SPECTRUM)
    commands.append(["lie", "spectrum", "--family", family, "--d", str(d),
                     "--q", str(Q), "--semisimple"])
    ladders = list(SURVEY_LADDER_Q.items())
    rng.shuffle(ladders)
    return commands, table, ladders


def oord_command(family: str, d: int, Q: int) -> list[str]:
    return ["lie", "oord-bound", "--family", family, "--d", str(d), "--q", str(Q),
            "--level", "1"]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from ordspectra import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def candidate_sort_key(line: str):
    fields = dict(part.split("=", 1) for part in line.split("  "))
    return fields["family"], int(fields["d"]), int(fields["Q"])


def expected_exceptions(pins: dict, kind: str, table: dict) -> str:
    lines = []
    for key, cutoff in table.items():
        lines.extend(pins[kind][f"{key}:{cutoff}"])
    lines.sort(key=candidate_sort_key)
    return "".join(line + "\n" for line in lines)


def write_q0(path: Path, table: dict) -> None:
    path.write_text("".join(f"q0 {key} {cutoff}\n" for key, cutoff in table.items()),
                    encoding="utf-8")


def run_survey(seed: int, gate: Gate, expected: dict, ladder: bool, clock) -> dict:
    pins = expected["survey"]
    commands, table, ladders = survey_inputs(seed)
    q0_path = WORKDIR / f"q0-{seed}-{os.getpid()}.dat"
    write_q0(q0_path, table)
    try:
        start, raw_start = clock.now(), clock.raw()
        for argv in commands:
            if argv[:2] == ["survey", "exceptions"]:
                want = expected_exceptions(pins["exceptions"], argv[2], table)
                argv = argv + ["--q0", str(q0_path), "--config", str(MONSTER_DAT)]
            else:
                want = pins["cli"][" ".join(argv)]
            with gate.op(" ".join(argv)):
                code, out, err = run_cli(argv)
                gate.expect(f"exit code of {' '.join(argv)}", code, 0)
                gate.expect(f"stdout of {' '.join(argv)}", out, want)
        result = fixed_part_result(clock, start, raw_start)
    finally:
        q0_path.unlink()
    reach = {}
    if ladder:
        for family, Q in ladders:
            name = f"{family}/{Q}"
            pinned = pins["oord"][name]
            steps: dict[int, float] = {}
            for d in range(first_rank(family), MAX_RANK + 1):
                argv = oord_command(family, d, Q)
                steps[d] = float("inf")
                with gate.op(" ".join(argv)):
                    (code, out, err), elapsed = timed_step(clock, SURVEY_BUDGET_S,
                                                           lambda: run_cli(argv))
                    gate.expect(f"exit code of {' '.join(argv)}", code, 0)
                    if str(d) in pinned:
                        gate.expect(f"stdout of {' '.join(argv)}", out, pinned[str(d)])
                    else:
                        gate.unverified += 1
                        if not out.strip().isdigit():
                            gate.problems.append(f"{' '.join(argv)}: not a count: {out!r}")
                    if code == 0:
                        steps[d] = elapsed
                if steps[d] > SURVEY_BUDGET_S:
                    break
            reach[name] = ladder_reach(steps, SURVEY_BUDGET_S)
    return {**result, "reach_d": sum(reach.values()),
            "reach": {name: round(r, 2) for name, r in reach.items()}}


# ---------------------------------------------------------------------------
# oracle


def oracle_inputs(seed: int) -> tuple[list[tuple[str, int, int]], list[str]]:
    rng = random.Random(seed)
    series = [("PSL", 2, q) for q in PSL2_Q + (rng.choice(PSL2_EXTRA),)]
    rng.shuffle(series)
    groups = list(HEAVY_GROUPS) + series
    tiny = list(TINY_GROUPS)
    rng.shuffle(tiny)
    return groups, tiny


def group_key(kind: str, n: int, q: int) -> str:
    return f"{kind}:{n}:{q}"


def check_group(gate: Gate, expected: dict, store, kind: str, n: int, q: int) -> None:
    from ordspectra import bounds, lie_catalog, oracle
    from ordspectra import torus_spectra as ts
    from ordspectra.errors import DomainError

    name = group_key(kind, n, q)
    pinned = expected["oracle"]["groups"][name]
    with gate.op(f"oracle {name}"):
        try:
            group = oracle.build_classical(kind, n, q)
        except DomainError as exc:
            if (kind, n, q) == KNOWN_DEFECT[0] and KNOWN_DEFECT[1] in str(exc):
                gate.known_defects += 1
                return
            raise
        gate.expect(f"|{name}|", group.order, pinned["order"])
        classes = group.conjugacy_class_count()
        orders = group.element_orders()
        if "classes" in pinned:  # absent for GU(3, 2), which never built
            gate.expect(f"k({name})", classes, pinned["classes"])
            gate.expect(f"orders of {name}", list(orders.values), pinned["orders"])
        p = group.meta["field"].p
        semisimple = oracle.semisimple_orders(group, p).values
        catalog = ORACLE_GROUPS[(kind, n, q)]
        if catalog is None:  # GU(3, 2): the ambient torus formula
            gate.expect(f"semisimple orders of {name} vs torus_spectra",
                        semisimple, ts.semisimple_orders_gu(n, q).values)
            return
        family, d, Q, label = catalog
        spec = lie_catalog.make_spec(family, d, Q)
        gate.expect(f"|{name}| vs group_order", group.order, lie_catalog.group_order(spec))
        gate.expect(f"semisimple orders of {name} vs torus_spectra",
                    semisimple, ts.semisimple_orders_simple(spec).values)
        if kind == "PSL" and n == 2:  # k(PSL(2, q)) = q + 1 (q even), (q + 5)/2 (q odd)
            gate.expect(f"k({name}) vs closed form", classes,
                        q + 1 if q % 2 == 0 else (q + 5) // 2)
        aut = oracle.nr_aut_orbits(group)
        gate.expect(f"Aut-orbits of {name}", aut, pinned["aut"])
        if label is not None:
            gate.expect(f"k({name}) vs seed.dat", classes, store.class_numbers.lookup(*label))
            lower = bounds.nr_aut_orbits_lower(spec, 2, store.class_numbers)
            if lower > aut:
                gate.problems.append(f"Aut-orbit lower bound {lower} exceeds {aut} for {name}")


def build_tiny(name: str):
    from ordspectra import oracle

    if name == "Alt5":
        return oracle.build_alternating(5)
    if name == "Sym5":
        return oracle.build_symmetric(5)
    return oracle.build_classical("PSL", 2, 7)


def run_oracle(seed: int, gate: Gate, expected: dict, ladder: bool, clock, store) -> dict:
    from ordspectra import oracle, sym_partitions

    groups, tiny = oracle_inputs(seed)
    start, raw_start = clock.now(), clock.raw()
    for kind, n, q in groups:
        check_group(gate, expected, store, kind, n, q)
    for name in tiny:
        with gate.op(f"generic Aut-orbits of {name}"):
            group = build_tiny(name)
            count = oracle.generic_nr_aut_orbits(group)
            gate.expect(f"generic Aut-orbits of {name}", count,
                        expected["oracle"]["generic_aut"][name])
            # Sym(5) is complete, so its Aut-orbits are its classes
            other = (group.conjugacy_class_count() if name == "Sym5"
                     else oracle.nr_aut_orbits(group))
            gate.expect(f"generic vs curated Aut-orbits of {name}", count, other)
    result = fixed_part_result(clock, start, raw_start)
    reach = 0.0
    if ladder:
        pinned = expected["oracle"]["sym_spectrum"]
        steps: dict[int, float] = {}
        for n in range(SYM_ORACLE_FIRST_N, SYM_ORACLE_MAX_N + 1):
            steps[n] = float("inf")
            with gate.op(f"sym_spectrum_oracle({n})"):
                spectrum, steps[n] = timed_step(clock, ORACLE_BUDGET_S,
                                                lambda: oracle.sym_spectrum_oracle(n))
                count = len(spectrum)
                gate.expect(f"sym_spectrum_oracle({n}) vs nr_element_orders_sym",
                            count, sym_partitions.nr_element_orders_sym(n))
                if str(n) in pinned:
                    gate.expect(f"sym_spectrum_oracle({n})", count, pinned[str(n)])
            if steps[n] > ORACLE_BUDGET_S:
                break
        reach = ladder_reach(steps, ORACLE_BUDGET_S)
    return {**result, "reach_d": reach, "reach": {"Sym": round(reach, 2)}}
