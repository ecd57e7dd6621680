"""The benchmark's trace probes wrap library functions by name, so a
rename in the library must fail here rather than in a traced benchmark
run."""

import importlib.util
import time
from pathlib import Path
from types import SimpleNamespace

from ordspectra import bounds, survey

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_probes_wraps_and_restores():
    tracing = _load_tracing()
    originals = (survey.exceptions_omega, survey.prime_powers_below,
                 bounds.epsilon_q_lower, bounds.group_order)
    tracer = tracing.Tracer(time.perf_counter)
    try:
        tracing.install_probes(tracer)
        assert survey.exceptions_omega is not originals[0]
        survey.exceptions_omega(survey.Q0Table(rows={1: 4}),
                                survey.ThresholdConfig(0.5, 0.5))
        assert tracer.calls("survey.exceptions.omega") == 1
        assert tracer.calls("survey.prime_powers_below") == 1
    finally:
        tracer.uninstall()
    assert (survey.exceptions_omega, survey.prime_powers_below,
            bounds.epsilon_q_lower, bounds.group_order) == originals


def test_aut_probes_record_calls():
    from ordspectra import oracle

    tracing = _load_tracing()
    originals = (oracle.nr_aut_orbits, oracle.generic_nr_aut_orbits)
    tracer = tracing.Tracer(time.perf_counter)
    try:
        tracing.install_probes(tracer)
        a5 = oracle.build_alternating(5)
        assert oracle.nr_aut_orbits(a5) == oracle.generic_nr_aut_orbits(a5) == 4
        assert tracer.calls("oracle.aut") == 1
        assert tracer.calls("oracle.generic_aut") == 1
    finally:
        tracer.uninstall()
    assert (oracle.nr_aut_orbits, oracle.generic_nr_aut_orbits) == originals


def test_torus_probe_counts_tori():
    """The probe replaces ``_simple_torus_exponents(spec)`` and reads
    ``_fact_tau``; B_4 has 20 tori, one per pair of partitions of 4."""
    from ordspectra import lie_catalog
    from ordspectra import torus_spectra as ts

    tracing = _load_tracing()
    spec = lie_catalog.make_spec("B", 4, 3)
    exponents = list(ts._simple_torus_exponents(spec))
    probe = SimpleNamespace(union=lambda spec: list(ts._simple_torus_exponents(spec)))
    tracer = tracing.Tracer(time.perf_counter)
    try:
        tracing.install_probes(tracer)
        assert list(ts._simple_torus_exponents(spec)) == exponents
        tracer.span([probe], "union", "torus_spectra.semisimple_orders_simple")
        probe.union(spec)
    finally:
        tracer.uninstall()
    assert tracer.counts["torus_spectra.bound_tori"] == len(exponents) == 20
    assert tracer.counts["torus_spectra.union_tori"] == 20
    assert tracer.counts["torus_spectra.divisors_emitted"] == sum(map(ts._fact_tau, exponents))


def test_cli_calls_reach_the_probes(capsys):
    """The probes patch ``cli.main`` and the names the CLI calls through
    its module globals; a CLI that held its own references would bypass
    them."""
    from ordspectra import cli

    tracing = _load_tracing()
    tracer = tracing.Tracer(time.perf_counter)
    try:
        tracing.install_probes(tracer)
        assert cli.main(["lie", "order", "--family", "2B2", "--q", "8"]) == 0
        assert cli.main(["lie", "spectrum", "--family", "A", "--d", "2", "--q", "4",
                         "--semisimple"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "29120\n1,3,5,7\n"
    assert tracer.calls("cli.main") == tracer.calls("data.default_store") == 2
    assert tracer.calls("lie_catalog.group_order") == 1
    assert tracer.calls("torus_spectra.semisimple_orders_simple") == 1
