"""Command-line interface.

Output is a table by default (a bare value when there is only one);
``--json`` emits one JSON object per result with exact integers rendered
as decimal strings so consumers never overflow.  Availability messages
print verbatim on stderr with exit code 2; missing data exits 3; usage
errors exit 64.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds, survey, sym_partitions
from .class_numbers import EXACT_K_FAMILIES, class_number_exact, class_number_lower_bound
from .data import DataStore, default_store, load_data
from .errors import (
    DataMissing,
    DomainError,
    NotAvailable,
    OrdspectraError,
    OutOfScope,
)
from .lie_catalog import (
    EXCEPTIONAL_RANK,
    coxeter_number,
    group_order,
    log_log_group_order,
    make_spec,
    out_order,
    outdiag_order,
)
from .survey import UNDEFINED, Q0Table, make_thresholds
from .torus_spectra import (
    OrderSet,
    exceptional_semisimple,
    exceptional_spectrum,
    semisimple_orders_simple,
)

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_AVAILABILITY = 2
EXIT_DATA_MISSING = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _render_value(value, precision: int, as_json: bool = False):
    """The text form of a value, or with ``as_json`` its JSON form:
    Undefined is null, bools stay bools, floats are numbers and order sets
    lists, and the rest (exact integers included) strings."""
    if value is UNDEFINED:
        return None if as_json else "undefined"
    if isinstance(value, bool):
        return value if as_json else str(value)
    if isinstance(value, float):
        text = format(value, f".{precision}g")
        return float(text) if as_json else text
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, OrderSet):
        values = [str(v) for v in value.values]
        return values if as_json else ",".join(values)
    return str(value)


def _emit(rows: list[dict], args) -> None:
    precision = args.precision
    if args.json:
        for row in rows:
            print(json.dumps({k: _render_value(v, precision, True) for k, v in row.items()},
                             sort_keys=True))
        return
    if len(rows) == 1 and len(rows[0]) == 1:
        print(_render_value(next(iter(rows[0].values())), precision))
        return
    for row in rows:
        print("  ".join(f"{k}={_render_value(v, precision)}" for k, v in row.items()))


def _spec_from_args(args):
    d = getattr(args, "d", None)
    return make_spec(args.family, d, args.q)


def _parse_levels(text: str) -> tuple[int, int]:
    """The ``--levels`` argument type: a pair L1,L2 of integers."""
    try:
        l1, l2 = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"levels must be given as L1,L2 with integer levels, not {text!r}") from None
    return l1, l2


def _epsilon_rows(result) -> list[dict]:
    return [{
        "value": result.value,
        "omega_bound": result.omega_bound,
        "omicron_bound": result.omicron_bound,
        "loglog_order": result.loglog_order,
    }]


def _run_sym(args, store) -> list[dict]:
    if args.sym_cmd == "omicron":
        return [{"omicron": sym_partitions.nr_element_orders_sym(args.n)}]
    if args.sym_cmd == "r":
        return [{"r": sym_partitions.nr_coprime_prime_power_partitions(args.n)}]
    constants = sym_partitions.omicron_sym_constants(args.max)
    if args.argmax:
        best = max(constants, key=lambda kv: kv[1])
        return [{"argmax": best[0], "value": best[1]}]
    return [{"k": k, "c": c} for k, c in constants]


def _run_lie(args, store: DataStore) -> list[dict]:
    if args.lie_cmd == "coxeter":
        return [{"coxeter": coxeter_number(args.family, getattr(args, "d", None))}]
    if args.lie_cmd == "epsilon-q-fixed":
        result = bounds.epsilon_q_fixed_small_q(args.family, args.d,
                                                store.constants,
                                                store.class_numbers)
        return _epsilon_rows(result)
    spec = _spec_from_args(args)
    if args.lie_cmd == "order":
        return [{"order": group_order(spec)}]
    if args.lie_cmd == "loglog":
        return [{"loglog": log_log_group_order(spec)}]
    if args.lie_cmd == "out":
        return [{"out": out_order(spec)}]
    if args.lie_cmd == "outdiag":
        return [{"outdiag": outdiag_order(spec)}]
    if args.lie_cmd == "k":
        if args.level is None and spec.family in EXACT_K_FAMILIES:
            return [{"k": class_number_exact(spec, store.class_numbers)}]
        return [{"k_bound": class_number_lower_bound(
            spec, args.level, store.class_numbers)}]
    if args.lie_cmd == "omega-bound":
        return [{"omega_bound": bounds.nr_aut_orbits_lower(
            spec, args.level, store.class_numbers)}]
    if args.lie_cmd == "oord-bound":
        return [{"oord_bound": bounds.nr_element_orders_upper(
            spec, args.level, store.spectra)}]
    if args.lie_cmd == "epsilon-omega":
        result = bounds.epsilon_omega_lower(spec, args.level, store.class_numbers)
        return _epsilon_rows(result)
    if args.lie_cmd == "epsilon-q":
        result = bounds.epsilon_q_lower(spec, args.levels, store.class_numbers,
                                        store.spectra)
        return _epsilon_rows(result)
    if args.lie_cmd == "spectrum":
        if spec.family in EXCEPTIONAL_RANK:
            orders = (exceptional_semisimple(spec, store.spectra)
                      if args.semisimple
                      else exceptional_spectrum(spec, store.spectra))
        else:
            if not args.semisimple:
                raise NotAvailable(
                    "full spectra are available for exceptional families only; "
                    "pass --semisimple for classical families"
                )
            orders = semisimple_orders_simple(spec)
        return [{"orders": orders}]
    raise DomainError(f"unknown lie command {args.lie_cmd!r}")


def _run_survey(args, store: DataStore) -> list[dict]:
    if args.survey_cmd == "general2":
        return [{"value": survey.epsilon_omega_general2(args.d)}]
    if args.survey_cmd == "general3":
        q = (2, args.qsqrt_exponent) if args.qsqrt_exponent else args.q
        if q is None:
            raise DomainError("general3 needs --q or --qsqrt-exponent")
        return [{"value": survey.epsilon_omega_general3(args.d, q)}]
    if args.survey_cmd == "classical1":
        return [{"value": survey.epsilon_q_classical1(args.d, args.type)}]
    if args.survey_cmd == "classical2":
        return [{"value": survey.epsilon_q_classical2(args.d, args.q)}]
    if args.survey_cmd == "exceptions":
        q0_store = DataStore()
        load_data(args.q0, q0_store)
        load_data(args.config, store)
        thresholds = make_thresholds(store.constants)
        table = Q0Table(rows=dict(q0_store.q0))
        if args.exceptions_kind == "omega":
            found = survey.exceptions_omega(table, thresholds,
                                            store.class_numbers,
                                            strict=args.strict)
        elif args.exceptions_kind == "q-classical":
            found = survey.exceptions_q_classical(table, thresholds,
                                                  store.class_numbers,
                                                  store.spectra)
        else:
            found = survey.exceptions_q_exceptional(table, thresholds,
                                                    store.class_numbers,
                                                    store.spectra)
        return [{
            "family": c.family, "d": c.d, "Q": c.Q,
            "bound": c.bound if c.bound is not None else UNDEFINED,
            "reason": c.reason,
        } for c in found]
    raise DomainError(f"unknown survey command {args.survey_cmd!r}")


def _run_oracle(args, store: DataStore) -> list[dict]:
    from . import oracle

    try:
        kind, n, q = args.group.split(":")
        n, q = int(n), int(q)
    except ValueError:
        raise DomainError("group spec must look like PSL:2:5")
    group = oracle.build_classical(kind, n, q)
    k = group.conjugacy_class_count()
    orders = group.element_orders()
    label = {"PSL": "PSL", "PSU": "PSU", "Sp": "Sp",
             "SOplus": "SOplus", "SOminus": "SOminus",
             "Omegaplus": "OmegaPlus", "Omegaminus": "OmegaMinus"}.get(kind)
    if kind == "Omega" and n % 2 == 1:
        label, n = "B", n // 2
    lines = [f"# oracle dump for {args.group}: order {group.order}",
             f"# element orders: {','.join(str(v) for v in orders.values)}"]
    if label is not None:
        lines.append(f"classnum {label} {n} {q} {k}")
    else:
        lines.append(f"# class number {k} (no classnum label for {kind})")
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)  # the dump alone, so it loads as a data file
        return []
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return [{"written": args.out, "order": group.order, "classes": k}]


def _run_data(args, store: DataStore) -> list[dict]:
    count = load_data(args.file, store)
    return [{"loaded": count}]


def build_parser() -> _Parser:
    parser = _Parser(prog="ordspectra", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit JSON objects")
    parser.add_argument("--precision", type=int, default=15,
                        help="significant digits for approximate reals (display only)")
    parser.add_argument("--data", action="append", default=[],
                        help="extra data file(s) to load")
    parser.add_argument("--no-seed", action="store_true",
                        help="skip the packaged seed table")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sym = sub.add_parser("sym")
    sym_sub = sym.add_subparsers(dest="sym_cmd", required=True, parser_class=_Parser)
    for name in ("omicron", "r"):
        sp = sym_sub.add_parser(name)
        sp.add_argument("--n", type=int, required=True)
    sc = sym_sub.add_parser("constants")
    sc.add_argument("--max", type=int, required=True)
    sc.add_argument("--argmax", action="store_true")

    lie = sub.add_parser("lie")
    lie_sub = lie.add_subparsers(dest="lie_cmd", required=True, parser_class=_Parser)
    lie_cmds = ("order", "loglog", "out", "outdiag", "coxeter", "k",
                "omega-bound", "oord-bound", "epsilon-omega", "epsilon-q",
                "epsilon-q-fixed", "spectrum")
    for name in lie_cmds:
        sp = lie_sub.add_parser(name)
        sp.add_argument("--family", required=True)
        sp.add_argument("--d", type=int)
        if name != "coxeter":
            sp.add_argument("--q", type=int, required=name != "epsilon-q-fixed",
                            help="the field parameter Q of the family")
        if name in ("k", "omega-bound", "oord-bound", "epsilon-omega"):
            sp.add_argument("--level", type=int)
        if name == "epsilon-q":
            sp.add_argument("--levels", type=_parse_levels, help="pair L1,L2")
        if name == "spectrum":
            sp.add_argument("--semisimple", action="store_true")

    srv = sub.add_parser("survey")
    srv_sub = srv.add_subparsers(dest="survey_cmd", required=True, parser_class=_Parser)
    g2p = srv_sub.add_parser("general2")
    g2p.add_argument("--d", type=int, required=True)
    g3p = srv_sub.add_parser("general3")
    g3p.add_argument("--d", type=int, required=True)
    g3p.add_argument("--q", type=int)
    g3p.add_argument("--qsqrt-exponent", type=int,
                     help="odd e for the exact irrational q = 2**(e/2)")
    c1p = srv_sub.add_parser("classical1")
    c1p.add_argument("--d", type=int, required=True)
    c1p.add_argument("--type", type=int, required=True)
    c2p = srv_sub.add_parser("classical2")
    c2p.add_argument("--d", type=int, required=True)
    c2p.add_argument("--q", type=int, required=True)
    exc = srv_sub.add_parser("exceptions")
    exc.add_argument("exceptions_kind",
                     choices=("omega", "q-classical", "q-exceptional"))
    exc.add_argument("--q0", required=True)
    exc.add_argument("--config", required=True)
    exc.add_argument("--strict", action="store_true")

    orc = sub.add_parser("oracle")
    orc_sub = orc.add_subparsers(dest="oracle_cmd", required=True, parser_class=_Parser)
    dump = orc_sub.add_parser("dump")
    dump.add_argument("--group", required=True, help="KIND:N:Q, e.g. PSL:2:5")
    dump.add_argument("--out", required=True, help="file to write, or - for stdout")

    dat = sub.add_parser("data")
    dat_sub = dat.add_subparsers(dest="data_cmd", required=True, parser_class=_Parser)
    imp = dat_sub.add_parser("import")
    imp.add_argument("--file", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        store = default_store(seed=not args.no_seed)
        for path in args.data:
            load_data(path, store)
        if args.command == "sym":
            rows = _run_sym(args, store)
        elif args.command == "lie":
            rows = _run_lie(args, store)
        elif args.command == "survey":
            rows = _run_survey(args, store)
        elif args.command == "oracle":
            rows = _run_oracle(args, store)
        else:
            rows = _run_data(args, store)
        _emit(rows, args)
        return EXIT_OK
    except (NotAvailable, OutOfScope) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_AVAILABILITY
    except DataMissing as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DATA_MISSING
    except OrdspectraError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_GENERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
