"""The benchmark's trace probes wrap library functions by name, so a
rename in the library must fail here rather than in a traced benchmark
run."""

import importlib.util
import time
from pathlib import Path

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
