"""Spans and counters recorded around calls into ordspectra's layers.

The benchmark never edits the library.  ``install_probes`` replaces
public functions with wrappers at run time, in every module that holds a
reference to them (``from x import f`` copies the reference, so patching
the defining module alone would miss those callers).  Each wrapper
records one span: name, start, end, the index of the enclosing span and
the outcome ("ok" or the exception type).  Times are read from the
clock the tracer is given (``refclock.RefClock.now`` in a pass, so spans
are in reference seconds and leave out the clock's own sampling).  Spans
stay in memory and are written out once, after the measured work.

A layer's self time is the sum, over its spans, of the span's duration
minus the durations of its direct child spans; since calls nest on one
thread, the children never overlap.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, now) -> None:
        """``now`` reads the clock spans are timed with."""
        self.now = now
        self.spans: list[list] = []  # [name, start, end, parent, outcome]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def patch(self, owners, attr, replacement) -> None:
        for owner in owners:
            self._restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def span(self, owners, attr: str, name: str, on_result=None) -> None:
        """Wrap ``attr`` of every object in ``owners`` (all must hold the
        same function) so that each call records a span ``name``."""
        original = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not {name}")
        spans, stack, now = self.spans, self._stack, self.now

        def wrapper(*args, **kwargs):
            record = [name, now(), None, stack[-1] if stack else -1, "ok"]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                record[2] = now()
                stack.pop()
            if on_result is not None:
                on_result(result, *args)
            return result

        self.patch(owners, attr, wrapper)

    def count_calls(self, owners, attr: str, key: str) -> None:
        """Count calls to ``attr`` without a span (for hot inner helpers
        whose time should stay in the caller's self time)."""
        original = getattr(owners[0], attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self.patch(owners, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            out[name] += end - start - children
        return dict(out)

    def outcomes(self, name: str) -> Counter:
        return Counter(s[4] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, outcome in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "outcome": outcome}) + "\n")


def slug(text: str) -> str:
    """Metric-name form of a free-text label (letters, digits, _ . -)."""
    return re.sub(r"[^A-Za-z0-9.-]+", "_", text).strip("_")


def install_probes(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads use."""
    from ordspectra import (arith, bounds, class_numbers, cli, data, lie_catalog,
                            survey, sym_partitions)
    from ordspectra import torus_spectra as ts
    from ordspectra import oracle
    from ordspectra.oracle import build as obuild
    from ordspectra.oracle import groups as ogroups

    # torus_spectra: the union path, the bound path, and what they visit
    def union_result(orders, spec):
        tracer.counts["torus_spectra.distinct_orders"] += len(orders)

    tracer.span([ts, bounds], "nr_semisimple_orders", "torus_spectra.nr_semisimple_orders")
    tracer.span([ts, cli], "semisimple_orders_simple",
                "torus_spectra.semisimple_orders_simple", union_result)
    tracer.span([ts, bounds], "nr_semisimple_orders_bound",
                "torus_spectra.nr_semisimple_orders_bound")
    tracer.count_calls([ts], "smith_diagonal", "torus_spectra.smith_calls")
    tori = ts._simple_torus_exponents

    def counted_tori(spec):
        path = "union" if tracer.current() == "torus_spectra.semisimple_orders_simple" else "bound"
        for exponent in tori(spec):
            tracer.counts[f"torus_spectra.{path}_tori"] += 1
            if path == "union":
                tracer.counts["torus_spectra.divisors_emitted"] += ts._fact_tau(exponent)
            yield exponent

    tracer.patch([ts], "_simple_torus_exponents", counted_tori)

    # arith
    tracer.span([arith], "factored_qn_pm1", "arith.factored_qn_pm1")
    tracer.count_calls([arith], "prime_power_split", "arith.prime_power_split_calls")

    # sym_partitions
    tracer.span([sym_partitions], "nr_element_orders_sym", "sym_partitions.omicron")
    tracer.span([sym_partitions], "omicron_sym_constants", "sym_partitions.omicron")
    tracer.span([sym_partitions, survey], "g2", "sym_partitions.g2")

    # bounds, class_numbers, lie_catalog
    tracer.span([bounds], "epsilon_q_lower", "bounds.epsilon_q_lower")
    tracer.span([bounds], "epsilon_omega_lower", "bounds.epsilon_omega_lower")
    tracer.span([bounds], "nr_element_orders_upper", "bounds.nr_element_orders_upper")
    tracer.span([class_numbers, bounds], "class_number_lower_bound",
                "class_numbers.class_number_lower_bound")
    tracer.span([lie_catalog, bounds, cli], "group_order", "lie_catalog.group_order")

    # survey
    def kept(found, *args):
        for candidate in found:
            tracer.counts[f"survey.candidates.{slug(candidate.reason)}"] += 1

    for attr, kind in (("exceptions_omega", "omega"),
                       ("exceptions_q_classical", "q-classical"),
                       ("exceptions_q_exceptional", "q-exceptional")):
        tracer.span([survey], attr, f"survey.exceptions.{kind}", kept)
    tracer.span([survey], "prime_powers_below", "survey.prime_powers_below")
    for attr in ("epsilon_omega_general2", "epsilon_omega_general3",
                 "epsilon_q_classical1", "epsilon_q_classical2"):
        tracer.span([survey], attr, "survey.displays")

    # cli and data
    tracer.span([cli], "main", "cli.main")
    tracer.span([data, cli], "default_store", "data.default_store")
    tracer.span([data, cli], "load_data", "data.load_data")

    # oracle
    def built(group, *args):
        tracer.counts["oracle.generators"] += len(group.gens)
        tracer.counts["oracle.elements"] += group.order
        tracer.counts["oracle.closure_products"] += group.order * len(group.gens)

    tracer.span([oracle, obuild], "build_classical", "oracle.build", built)
    tracer.span([obuild], "close_under_products", "oracle.closure")
    original_classes = ogroups.SmallGroup.conjugacy_classes

    def classes_once(group):
        if getattr(group, "_classes", None) is None:
            tracer.counts["oracle.class_products"] += group.order * len(group.gens)
        return original_classes(group)

    tracer.patch([ogroups.SmallGroup], "conjugacy_classes", classes_once)
    tracer.span([ogroups.SmallGroup], "conjugacy_classes", "oracle.classes")
    tracer.span([ogroups.SmallGroup], "element_orders", "oracle.orders")
    tracer.span([oracle], "nr_aut_orbits", "oracle.aut")
    tracer.span([oracle], "generic_nr_aut_orbits", "oracle.generic_aut")
