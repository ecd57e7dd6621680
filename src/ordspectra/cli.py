"""Command-line interface.

Output is a table by default (a bare value when there is only one);
``--json`` emits one JSON object per result with exact integers rendered
as decimal strings so consumers never overflow.  Availability messages
print verbatim on stderr with exit code 2; missing data exits 3; usage
errors exit 64.

Each subcommand is one entry of ``COMMANDS``: its group and name, the
options of its parser, and the call that makes its result rows from the
parsed arguments and the data store.  ``build_parser`` builds every
subparser from the table and keeps the entry's call as ``args.run``;
``main`` builds that parser once per process, on its first call, then
loads the data, runs that call and renders its rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import warnings
from fractions import Fraction

from . import bounds, survey, sym_partitions
from .class_numbers import (EXACT_K_FAMILIES, LABELS, class_number_exact,
                            class_number_lower_bound)
from .data import DataStore, default_store, load_data
from .errors import DataMissing, DomainError, NotAvailable, OrdspectraError, OutOfScope
from .lie_catalog import (EXCEPTIONAL_RANK, coxeter_number, group_order, log_log_group_order,
                          make_spec, out_order, outdiag_order)
from .survey import UNDEFINED, Q0Table, make_thresholds
from .torus_spectra import (OrderSet, exceptional_semisimple, exceptional_spectrum,
                            semisimple_orders_simple)

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_AVAILABILITY = 2
EXIT_DATA_MISSING = 3
EXIT_USAGE = 64

# --help shows the docstring up to its last paragraph, which is on the code
_DESCRIPTION = __doc__ and __doc__.rsplit("\n\n", 1)[0]


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


def _spec(args):
    return make_spec(args.family, args.d, args.q)


def _parse_levels(text: str) -> tuple[int, int]:
    """The ``--levels`` argument type: a pair L1,L2 of integers."""
    try:
        l1, l2 = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"levels must be given as L1,L2 with integer levels, not {text!r}") from None
    return l1, l2


def _epsilon_rows(result) -> list[dict]:
    """The fields of an EpsilonResult, less those it lacks (None)."""
    return [{k: v for k, v in dataclasses.asdict(result).items() if v is not None}]


def _constants(args, store) -> list[dict]:
    constants = sym_partitions.omicron_sym_constants(args.max)
    if args.argmax:
        best = max(constants, key=lambda kv: kv[1])
        return [{"argmax": best[0], "value": best[1]}]
    return [{"k": k, "c": c} for k, c in constants]


def _class_number(args, store) -> list[dict]:
    spec = _spec(args)
    if args.level is None and spec.family in EXACT_K_FAMILIES:
        return [{"k": class_number_exact(spec, store.class_numbers)}]
    return [{"k_bound": class_number_lower_bound(spec, args.level, store.class_numbers)}]


def _spectrum(args, store) -> list[dict]:
    spec = _spec(args)
    if spec.family in EXCEPTIONAL_RANK:
        orders = (exceptional_semisimple(spec, store.spectra) if args.semisimple
                  else exceptional_spectrum(spec, store.spectra))
    elif args.semisimple:
        orders = semisimple_orders_simple(spec)
    else:
        raise NotAvailable(
            "full spectra are available for exceptional families only; "
            "pass --semisimple for classical families"
        )
    return [{"orders": orders}]


def _general3(args, store) -> list[dict]:
    q = (2, args.qsqrt_exponent) if args.qsqrt_exponent else args.q
    if q is None:
        raise DomainError("general3 needs --q or --qsqrt-exponent")
    return [{"value": survey.epsilon_omega_general3(args.d, q)}]


def _exceptions(args, store) -> list[dict]:
    q0_store = DataStore()
    load_data(args.q0, q0_store)
    load_data(args.config, store)
    inputs = (Q0Table(rows=dict(q0_store.q0)), make_thresholds(store.constants),
              store.class_numbers)
    if args.exceptions_kind == "omega":
        found = survey.exceptions_omega(*inputs, strict=args.strict)
    elif args.exceptions_kind == "q-classical":
        found = survey.exceptions_q_classical(*inputs, store.spectra)
    else:
        found = survey.exceptions_q_exceptional(*inputs, store.spectra)
    return [{"family": c.family, "d": c.d, "Q": c.Q,
             "bound": c.bound if c.bound is not None else UNDEFINED, "reason": c.reason}
            for c in found]


def _oracle_dump(args, store) -> list[dict]:
    from . import oracle

    try:
        kind, n, q = args.group.split(":")
        n, q = int(n), int(q)
    except ValueError:
        raise DomainError("group spec must look like PSL:2:5")
    group = oracle.build_classical(kind, n, q)
    k = group.conjugacy_class_count()
    orders = group.element_orders()
    label = {"Omegaplus": "OmegaPlus", "Omegaminus": "OmegaMinus"}.get(kind, kind)
    if kind == "Omega" and n > 1:  # Omega_(2d+1) is B_d; Omega_1, trivial, has no rank
        label, n = "B", n // 2
    lines = [f"# oracle dump for {args.group}: order {group.order}",
             f"# element orders: {','.join(str(v) for v in orders.values)}"]
    if label in LABELS:
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


def _opt(*flags, **kwargs):
    """The arguments of one ``add_argument`` call."""
    return flags, kwargs


_N, _D = _opt("--n", type=int, required=True), _opt("--d", type=int, required=True)
# the rank --d is optional for a Lie family: the exceptional ones fix it
_FAMILY, _RANK = _opt("--family", required=True), _opt("--d", type=int)
_Q_HELP = "the field parameter Q of the family"
_LIE = (_FAMILY, _RANK, _opt("--q", type=int, required=True, help=_Q_HELP))
_LEVEL = _LIE + (_opt("--level", type=int),)

#: group -> subcommand -> (its options, the call ``(args, store) -> rows``).
#: The calls name the library's functions as module globals, looked up
#: when they run, so that patching ``cli.<name>`` reaches the CLI too.
COMMANDS = {
    "sym": {
        "omicron": ((_N,), lambda a, s: [
            {"omicron": sym_partitions.nr_element_orders_sym(a.n)}]),
        "r": ((_N,), lambda a, s: [
            {"r": sym_partitions.nr_coprime_prime_power_partitions(a.n)}]),
        "constants": ((_opt("--max", type=int, required=True),
                       _opt("--argmax", action="store_true")), _constants),
    },
    "lie": {
        "order": (_LIE, lambda a, s: [{"order": group_order(_spec(a))}]),
        "loglog": (_LIE, lambda a, s: [{"loglog": log_log_group_order(_spec(a))}]),
        "out": (_LIE, lambda a, s: [{"out": out_order(_spec(a))}]),
        "outdiag": (_LIE, lambda a, s: [{"outdiag": outdiag_order(_spec(a))}]),
        "coxeter": ((_FAMILY, _RANK), lambda a, s: [{"coxeter": coxeter_number(a.family, a.d)}]),
        "k": (_LEVEL, _class_number),
        "omega-bound": (_LEVEL, lambda a, s: [{"omega_bound": bounds.nr_aut_orbits_lower(
            _spec(a), a.level, s.class_numbers)}]),
        "oord-bound": (_LEVEL, lambda a, s: [{"oord_bound": bounds.nr_element_orders_upper(
            _spec(a), a.level, s.spectra)}]),
        "epsilon-omega": (_LEVEL, lambda a, s: _epsilon_rows(bounds.epsilon_omega_lower(
            _spec(a), a.level, s.class_numbers))),
        "epsilon-q": (_LIE + (_opt("--levels", type=_parse_levels, help="pair L1,L2"),),
                      lambda a, s: _epsilon_rows(bounds.epsilon_q_lower(
                          _spec(a), a.levels, s.class_numbers, s.spectra))),
        "epsilon-q-fixed": ((_FAMILY, _D),
                            lambda a, s: _epsilon_rows(bounds.epsilon_q_fixed_small_q(
                                a.family, a.d, s.constants, s.class_numbers))),
        "spectrum": (_LIE + (_opt("--semisimple", action="store_true"),), _spectrum),
    },
    "survey": {
        "general2": ((_D,), lambda a, s: [{"value": survey.epsilon_omega_general2(a.d)}]),
        "general3": ((_D, _opt("--q", type=int),
                      _opt("--qsqrt-exponent", type=int,
                           help="odd e for the exact irrational q = 2**(e/2)")), _general3),
        "classical1": ((_D, _opt("--type", type=int, required=True)), lambda a, s: [
            {"value": survey.epsilon_q_classical1(a.d, a.type)}]),
        "classical2": ((_D, _opt("--q", type=int, required=True)), lambda a, s: [
            {"value": survey.epsilon_q_classical2(a.d, a.q)}]),
        "exceptions": ((_opt("exceptions_kind", choices=("omega", "q-classical", "q-exceptional")),
                        _opt("--q0", required=True), _opt("--config", required=True),
                        _opt("--strict", action="store_true")), _exceptions),
    },
    "oracle": {
        "dump": ((_opt("--group", required=True, help="KIND:N:Q, e.g. PSL:2:5"),
                  _opt("--out", required=True, help="file to write, or - for stdout")),
                 _oracle_dump),
    },
    "data": {
        "import": ((_opt("--file", required=True),), lambda a, s: [
            {"loaded": load_data(a.file, s)}]),
    },
}


def build_parser() -> _Parser:
    parser = _Parser(prog="ordspectra", description=_DESCRIPTION)
    parser.add_argument("--json", action="store_true", help="emit JSON objects")
    parser.add_argument("--precision", type=int, default=15,
                        help="significant digits for approximate reals (display only)")
    parser.add_argument("--data", action="append", default=[],
                        help="extra data file(s) to load")
    parser.add_argument("--no-seed", action="store_true",
                        help="skip the packaged seed table")
    # prog given, argparse skips formatting a usage line to derive it
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                prog=parser.prog)
    for group, commands in COMMANDS.items():
        group_parser = sub.add_parser(group)
        group_sub = group_parser.add_subparsers(
            dest=f"{group}_cmd", required=True, parser_class=_Parser, prog=group_parser.prog)
        for name, (options, run) in commands.items():
            command = group_sub.add_parser(name)
            for flags, kwargs in options:
                command.add_argument(*flags, **kwargs)
            command.set_defaults(run=run)
    return parser


#: the parser of ``main``, built on its first call and kept for the
#: process: a parser keeps no state from one ``parse_args`` to the next
_shared_parser = functools.cache(build_parser)


def _show_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.precision < 0:
        parser.error(f"argument --precision: must be >= 0, not {args.precision}")
    try:
        with warnings.catch_warnings():  # a library warning is one stderr line
            warnings.filterwarnings("always", module=r"ordspectra\.")
            warnings.showwarning = _show_warning
            store = default_store(seed=not args.no_seed)
            for path in args.data:
                load_data(path, store)
            _emit(args.run(args, store), args)
        return EXIT_OK
    except (NotAvailable, OutOfScope) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_AVAILABILITY
    except DataMissing as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DATA_MISSING
    except (OrdspectraError, OSError) as exc:  # OSError: a file that cannot be opened
        print(str(exc), file=sys.stderr)
        return EXIT_GENERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
