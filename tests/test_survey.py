import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from ordspectra import arith, bounds, survey
from ordspectra import torus_spectra as ts
from ordspectra.class_numbers import ClassNumberProvider
from ordspectra.errors import (DataMissing, DomainError, NotAvailable, OrdspectraError,
                               PrecisionError)
from ordspectra.survey import (
    UNDEFINED,
    Q0Table,
    ThresholdConfig,
    make_thresholds,
)
from ordspectra.sym_partitions import g2

mpmath.mp.dps = 60


def independent_general2(d):
    if 2**d <= 6 * (d + 1) ** 2:
        return UNDEFINED
    ln2 = mpmath.log(2)
    inner = d - 2 * mpmath.log(d + 1) / ln2 - mpmath.log(6) / ln2
    return float((mpmath.log(inner) + mpmath.log(ln2))
                 / (mpmath.log(4 * d**2) + mpmath.log(ln2)))


def test_general2_undefined_window():
    for d in range(3, 10):
        assert survey.epsilon_omega_general2(d) is UNDEFINED
    for d in range(10, 101):
        value = survey.epsilon_omega_general2(d)
        assert value is not UNDEFINED
        assert abs(value - independent_general2(d)) < 1e-9
    with pytest.raises(DomainError):
        survey.epsilon_omega_general2(2)


def test_general3():
    value = survey.epsilon_omega_general3(3, 1000)
    inner = (3 - 2 * mpmath.log(4) / mpmath.log(1000)
             - mpmath.log(6) / mpmath.log(1000) - 1 / (mpmath.e * mpmath.log(2)))
    expected = float(mpmath.log(inner) / mpmath.log(36))
    assert abs(value - expected) < 1e-9
    assert survey.epsilon_omega_general3(3, 3) is UNDEFINED
    # exact irrational field parameter sqrt(8)
    value = survey.epsilon_omega_general3(10, (2, 3))
    logq = mpmath.mpf(3) / 2 * mpmath.log(2)
    inner = (10 - 2 * mpmath.log(11) / logq - mpmath.log(6) / logq
             - 1 / (mpmath.e * mpmath.log(2)))
    expected = float(mpmath.log(inner) / mpmath.log(400))
    assert abs(value - expected) < 1e-9
    with pytest.raises(DomainError):
        survey.epsilon_omega_general3(5, 2)


def test_classical1_type_message():
    with pytest.raises(NotAvailable) as err:
        survey.epsilon_q_classical1(10, 5)
    assert err.value.message == (
        "This type is not available. Please set the type to 1, 2, 3 or 4."
    )


def test_classical1_values():
    got = survey.epsilon_q_classical1(91, 3)
    ln2, ln3 = mpmath.log(2), mpmath.log(3)
    d = 91
    tail = mpmath.log(2 + mpmath.log(2 * d) / ln2)
    inner = ((1 - mpmath.mpf("0.311") * ln3 / ln2) * d
             - (mpmath.log(g2(d)) + 2 * ln3 + tail + ln2) / ln2)
    expected = float((mpmath.log(inner) + mpmath.log(ln2))
                     / (mpmath.log(4 * d * d) + mpmath.log(ln2)))
    assert abs(got - expected) < 1e-9
    assert survey.epsilon_q_classical1(55, 4) is not UNDEFINED
    # type 1 at small-to-moderate d is dominated by the sqrt term
    assert survey.epsilon_q_classical1(100, 1) is UNDEFINED
    assert survey.epsilon_q_classical1(1000, 1) is not UNDEFINED
    assert survey.epsilon_q_classical1(1000, 2) is not UNDEFINED


def test_classical2_branches():
    assert survey.epsilon_q_classical2(1, 101) is UNDEFINED
    value = survey.epsilon_q_classical2(1, 2**20)
    q = mpmath.mpf(2) ** 20
    arg = (q + 1) / (8 * 20 * (mpmath.sqrt((q + 1) / 2) + mpmath.sqrt((q - 1) / 2)))
    expected = float(mpmath.log(mpmath.log(arg))
                     / mpmath.log(mpmath.log(q * (q**2 - 1))))
    assert abs(value - expected) < 1e-9
    # the c(4) = 6 branch is exercised (and is Undefined at q = 9)
    assert survey.epsilon_q_classical2(4, 9) is UNDEFINED
    assert survey.epsilon_q_classical2(2, 2) is UNDEFINED
    value = survey.epsilon_q_classical2(91, 3)
    d, q = 91, 3
    log2q = mpmath.log(3) / mpmath.log(2)
    denom = (2 * 2 * log2q * min(d + 1, q + 1) ** 2 * g2(d)
             * 9 * mpmath.power(4, mpmath.mpf(d) / 2))  # 1+ceil(log2 182) = 9
    arg = mpmath.power(3, d) / denom
    expected = float(mpmath.log(mpmath.log(arg))
                     / mpmath.log(4 * d * d * mpmath.log(3)))
    assert abs(value - expected) < 1e-9
    with pytest.raises(DomainError):
        survey.epsilon_q_classical2(2, 6)


# ---------------------------------------------------------------------------
# the fixed-point kernel against mpmath: the references below are the
# displays' expressions in mpmath at 50 digits, written out apart from
# survey.py, guard band and domain checks included


def _mp_log_ratio(inner, d, shift=0):
    if abs(inner) < mpmath.mpf("1e-20"):
        raise PrecisionError("guard band")
    if inner < 0:
        return UNDEFINED
    return float((mpmath.log(inner) + shift) / (mpmath.log(4 * d * d) + shift))


def _mp_general2(d):
    if d < 3:
        raise DomainError("d")
    if 2**d <= 6 * (d + 1) ** 2:
        return UNDEFINED
    ln2 = mpmath.log(2)
    inner = d - 2 * mpmath.log(d + 1) / ln2 - mpmath.log(6) / ln2
    return _mp_log_ratio(inner, d, mpmath.log(ln2))


def _mp_general3(d, q):
    if d < 3:
        raise DomainError("d")
    if isinstance(q, tuple):
        p, e2 = q
        q_value, logq = mpmath.power(p, mpmath.mpf(e2) / 2), mpmath.mpf(e2) / 2 * mpmath.log(p)
    else:
        q_value, logq = mpmath.mpf(q), mpmath.log(q)
    if q_value <= 2:
        raise DomainError("q")
    inner = (d - 2 * mpmath.log(d + 1) / logq - mpmath.log(6) / logq
             - 1 / (mpmath.e * mpmath.log(2)))
    return _mp_log_ratio(inner, d)


def _mp_classical1(d, kind):
    ln2, ln3, ln4 = mpmath.log(2), mpmath.log(3), mpmath.log(4)
    tail = mpmath.log(2 + mpmath.log(2 * d) / ln2)
    root = 2 * mpmath.pi / mpmath.sqrt(3) * mpmath.sqrt(d)
    if kind == 1:
        inner = ((1 - ln3 / ln4) * d
                 - (root + 3 * mpmath.log(d + 1) + tail + ln4) / ln2)
        return _mp_log_ratio(inner, d, mpmath.log(ln2))
    if kind == 2:
        inner = ((1 - ln4 / mpmath.log(9)) * d
                 - (root + 3 * mpmath.log(d + 1) + tail + ln4) / ln3
                 - 1 / (mpmath.e * ln2))
        return _mp_log_ratio(inner, d)
    lg2 = mpmath.log(g2(d))
    if kind == 3:
        inner = ((1 - mpmath.mpf("0.311") * ln3 / ln2) * d
                 - (lg2 + 2 * ln3 + tail + ln2) / ln2)
        return _mp_log_ratio(inner, d, mpmath.log(ln2))
    inner = ((1 - ln4 / mpmath.log(27)) * d
             - (lg2 + 2 * mpmath.log(d + 1) + tail + ln2) / ln3
             - 1 / (mpmath.e * ln2))
    return _mp_log_ratio(inner, d)


def _mp_classical2(d, q):
    log2q = mpmath.log(q) / mpmath.log(2)
    if d == 1:
        arg = (q + 1) / (8 * log2q * (mpmath.sqrt((q + 1) / mpmath.mpf(2))
                                      + mpmath.sqrt((q - 1) / mpmath.mpf(2))))
        if abs(arg - 1) < mpmath.mpf("1e-20"):
            raise PrecisionError("guard band")
        if arg < 1:
            return UNDEFINED
        return float(mpmath.log(mpmath.log(arg)) / mpmath.log(mpmath.log(q * (q * q - 1))))
    c_d = 6 if d == 4 else 2
    denominator = (2 * c_d * log2q * min(d + 1, q + 1) ** 2 * g2(d)
                   * (1 + arith.ceil_log(2, 2 * d))
                   * mpmath.power(q + 1, mpmath.mpf(d) / 2))
    arg = mpmath.power(q, d) / denominator
    if abs(arg - 1) < mpmath.mpf("1e-20"):
        raise PrecisionError("guard band")
    if arg < 1:
        return UNDEFINED
    return float(mpmath.log(mpmath.log(arg)) / mpmath.log(4 * d * d * mpmath.log(q)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OrdspectraError as exc:
        return type(exc)


def test_displays_equal_mpmath_at_50_digits_on_a_grid():
    """Every display on the grid is the float that 50-digit mpmath gives,
    Undefined on both sides, or the same error on both sides."""
    powers = survey.prime_powers_below(300)
    calls = [(survey.epsilon_omega_general2, _mp_general2, (d,)) for d in range(3, 400)]
    calls += [(survey.epsilon_omega_general3, _mp_general3, (d, q))
              for d in range(3, 60)
              for q in powers[:40] + [(p, e2) for p in (2, 3) for e2 in (3, 5, 7, 9)]]
    calls += [(survey.epsilon_q_classical1, _mp_classical1, (d, kind))
              for d in range(1, 300) for kind in (1, 2, 3, 4)]
    # every d and every q of classical2, a third of the pairs (test time)
    calls += [(survey.epsilon_q_classical2, _mp_classical2, (d, q))
              for d in range(1, 80) for i, q in enumerate(powers) if (d + i) % 3 == 0]
    mismatches = []
    with mpmath.workdps(50):
        for ours, reference, args in calls:
            got, want = _outcome(ours, *args), _outcome(reference, *args)
            if got != want:
                mismatches.append((ours.__name__, args, got, want))
    assert mismatches == []
    assert len(calls) == 6_409


def _units_off(real, exact) -> int:
    """|real - exact| in units of 2**-P, for a _Real and an mpmath value."""
    return abs(real.v - int(mpmath.nint(exact * mpmath.mpf(2) ** survey._P)))


def test_kernel_ln_sqrt_pi_e_within_2_to_the_8_units():
    bound = 2**8
    with mpmath.workdps(60):
        for n in range(1, 2001):
            assert _units_off(survey._ln(n), mpmath.log(n)) <= bound, n
        for n in (g2(300), 3**500, 2**4000 + 7):
            assert _units_off(survey._ln(n), mpmath.log(n)) <= bound
        one = 2**survey._P
        fractions = [(a, 10**k) for k in range(1, 19) for a in (1, 3, 7, 9)]
        fractions += [(10**k - 1, 10**k) for k in range(1, 19)]
        for num, den in fractions:  # num/den in (1e-19, 1), rounded to a _Real
            v = (num << survey._P) // den
            assert _units_off(survey._ln(survey._Real(v)), mpmath.log(mpmath.mpf(v) / one)) <= bound
        for n in (2, 3, 5, 300, 10**6 + 1):
            assert _units_off(survey._sqrt(n), mpmath.sqrt(n)) <= bound
        third = survey._Real(one // 3)
        assert _units_off(survey._sqrt(third), mpmath.sqrt(mpmath.mpf(third.v) / one)) <= bound
        _, pi, e = survey._constants()
        assert _units_off(pi, mpmath.pi) <= bound
        assert _units_off(e, mpmath.e) <= bound


def test_guard_band_refuses_inside_and_decides_outside():
    one = 2**survey._P
    inside = [survey._GUARD - 1, one * (10**12 - 1) // 10**32, 1, 0]
    outside = [survey._GUARD, one * (10**12 + 1) // 10**32, one]
    for v in inside:
        for signed in (v, -v):
            with pytest.raises(PrecisionError):
                survey._guarded_sign(survey._Real(signed))
    for v in outside:
        assert survey._guarded_sign(survey._Real(v)) == 1
        assert survey._guarded_sign(survey._Real(-v)) == -1


def test_cli_loads_no_mpmath():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys\nfrom ordspectra import cli\n"
              "code = cli.main(['survey', 'general2', '--d', '60'])\n"
              "assert code == 0, code\n"
              "assert 'mpmath' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0.374913064398319"


def monster_constants():
    return {
        "monster_omega": 194,
        "monster_omicron": 74,
        "monster_order": 808017424794512875886459904961710757005754368000000000,
    }


def test_thresholds():
    thresholds = make_thresholds(monster_constants())
    assert 0 < thresholds.epsilon_omega_alt5 < 1
    assert 0 < thresholds.epsilon_q_monster < 1
    mpmath.mp.dps = 60
    expected = float(mpmath.log(mpmath.log(4)) / mpmath.log(mpmath.log(60)))
    assert abs(thresholds.epsilon_omega_alt5 - expected) < 1e-12
    with pytest.raises(DataMissing):
        make_thresholds({})
    with pytest.raises(DomainError):
        ThresholdConfig(epsilon_omega_alt5=1.5, epsilon_q_monster=0.2)


def test_exceptions_empty_table():
    thresholds = make_thresholds(monster_constants())
    empty = Q0Table(rows={})
    assert survey.exceptions_omega(empty, thresholds) == []
    assert survey.exceptions_q_classical(empty, thresholds) == []
    assert survey.exceptions_q_exceptional(empty, thresholds) == []


def test_exceptions_monotone_in_q0(store):
    thresholds = make_thresholds(monster_constants())
    small = Q0Table(rows={10: 3})
    large = Q0Table(rows={10: 5})
    found_small = survey.exceptions_omega(small, thresholds, store.class_numbers)
    found_large = survey.exceptions_omega(large, thresholds, store.class_numbers)
    keys_small = {(c.family, c.d, c.Q) for c in found_small}
    keys_large = {(c.family, c.d, c.Q) for c in found_large}
    assert keys_small <= keys_large
    # monotone in the threshold as well
    lower = ThresholdConfig(epsilon_omega_alt5=thresholds.epsilon_omega_alt5 / 2,
                            epsilon_q_monster=thresholds.epsilon_q_monster)
    found_lower = survey.exceptions_omega(large, lower, store.class_numbers)
    assert {(c.family, c.d, c.Q) for c in found_lower} <= keys_large
    # deterministic and sorted
    assert [c.sort_key() for c in found_large] == sorted(
        c.sort_key() for c in found_large)


def test_exceptions_threshold_zero(store):
    # on a window where the uniform bounds evaluate, a zero threshold
    # keeps nothing (all defined bounds are positive there)
    thresholds = ThresholdConfig(epsilon_omega_alt5=1e-12,
                                 epsilon_q_monster=1e-12)
    table = Q0Table(rows={12: 3})
    found = survey.exceptions_omega(table, thresholds, store.class_numbers)
    assert found == []


def test_exceptions_strict_requires_coverage(store):
    thresholds = make_thresholds(monster_constants())
    with pytest.raises(DataMissing):
        survey.exceptions_omega(Q0Table(rows={3: 4}), thresholds,
                                store.class_numbers, strict=True)


def test_exceptions_alt5_aliases_present(store):
    """Alt(5) appears among the omega candidates through its Lie aliases
    when the search window covers them (its own epsilon_omega equals the
    threshold, and the bounds sit below it)."""
    thresholds = make_thresholds(monster_constants())
    table = Q0Table(rows={1: 8})
    found = survey.exceptions_omega(table, thresholds, store.class_numbers)
    keys = {(c.family, c.d, c.Q) for c in found}
    assert ("A", 1, 4) in keys and ("A", 1, 5) in keys


def test_exceptions_exceptional_includes_unavailable():
    thresholds = make_thresholds(monster_constants())
    table = Q0Table(rows={"G2": 4})
    found = survey.exceptions_q_exceptional(table, thresholds,
                                            ClassNumberProvider(), None)
    assert [(c.family, c.Q) for c in found] == [("G2", 3)]
    assert found[0].bound is None


# The exact output of the three searches on a small table whose 48
# candidates are kept for 11 different reasons.
_GOLDEN_TABLE = {1: 8, 3: 4, 12: 3, "G2": 5, "2B2": 128, "E8": 3}
_GOLDEN_OMEGA = [
    ('2A', 3, 9, 'unavailable: uniform bound undefined', None),
    ('2A', 12, 4, 'uniform', 0.05571134062272922),
    ('2B2', 2, 8, 'unavailable: no data', None),
    ('2B2', 2, 32, 'unavailable: no data', None),
    ('2D', 3, 4, 'level 1', 0.1408676779951559),
    ('2D', 3, 9, 'unavailable: uniform bound undefined', None),
    ('A', 1, 4, 'level 2', 0.06671919989520235),
    ('A', 1, 5, 'level 2', 0.06671919989520235),
    ('A', 1, 7, 'level 2', 0.05755933384305439),
    ('A', 3, 3, 'unavailable: uniform bound undefined', None),
    ('A', 12, 2, 'uniform', 0.05571134062272922),
    ('B', 1, 4, 'unavailable: no data-free bound below rank 3', None),
    ('B', 1, 5, 'unavailable: no data-free bound below rank 3', None),
    ('B', 1, 7, 'unavailable: no data-free bound below rank 3', None),
    ('B', 3, 3, 'level 1', 0.21460145679488615),
    ('C', 1, 4, 'unavailable: no data-free bound below rank 3', None),
    ('C', 1, 5, 'unavailable: no data-free bound below rank 3', None),
    ('C', 1, 7, 'unavailable: no data-free bound below rank 3', None),
    ('C', 3, 3, 'level 1', 0.21460145679488615),
    ('D', 3, 2, 'level 1', 0.14240550578334446),
    ('D', 3, 3, 'unavailable: uniform bound undefined', None),
    ('E8', 8, 2, 'unavailable: no data', None),
    ('G2', 2, 3, 'unavailable: no data', None),
    ('G2', 2, 4, 'unavailable: no data', None),
]
_GOLDEN_Q_CLASSICAL = [
    ('2A', 3, 9, 'unavailable: no bound evaluable', None),
    ('2A', 12, 4, 'unavailable: no bound evaluable', None),
    ('2D', 3, 4, 'levels (1, 1)', 0.055835234412349756),
    ('2D', 3, 9, 'levels (1, 1)', 0.037377456814951006),
    ('2D', 12, 4, 'levels (1, 1)', 0.022919609476371502),
    ('A', 3, 2, 'levels (2, 2)', 0.09490531385166724),
    ('A', 3, 3, 'unavailable: no bound evaluable', None),
    ('A', 12, 2, 'unavailable: no bound evaluable', None),
    ('B', 1, 7, 'levels (1, 1)', 0.09249642913060475),
    ('B', 3, 2, 'levels (1, 1)', 0.04556563558400426),
    ('B', 3, 3, 'levels (1, 1)', 0.036702200677591564),
    ('B', 12, 2, 'levels (1, 1)', 0.022547002219443005),
    ('C', 1, 7, 'levels (1, 1)', 0.09249642913060475),
    ('C', 3, 2, 'levels (1, 1)', 0.04556563558400426),
    ('C', 3, 3, 'levels (1, 1)', 0.036702200677591564),
    ('C', 12, 2, 'levels (1, 1)', 0.022547002219443005),
    ('D', 3, 2, 'levels (1, 1)', 0.05644477789500932),
    ('D', 3, 3, 'levels (1, 1)', 0.0384946886839012),
    ('D', 12, 2, 'levels (1, 1)', 0.022891743723586117),
]
_GOLDEN_Q_EXCEPTIONAL = [
    ('2B2', 2, 8, 'exact ingredients', 0.112360093495892),
    ('2B2', 2, 32, 'unavailable: DataMissing', None),
    ('E8', 8, 2, 'unavailable: DataMissing', None),
    ('G2', 2, 3, 'unavailable: DataMissing', None),
    ('G2', 2, 4, 'unavailable: DataMissing', None),
]


def _as_tuples(found):
    return [(c.family, c.d, c.Q, c.reason, c.bound) for c in found]


def test_exceptions_golden(store):
    thresholds = make_thresholds(monster_constants())
    table = Q0Table(rows=_GOLDEN_TABLE)
    assert _as_tuples(survey.exceptions_omega(
        table, thresholds, store.class_numbers)) == _GOLDEN_OMEGA
    assert _as_tuples(survey.exceptions_q_classical(
        table, thresholds, store.class_numbers, store.spectra)) == _GOLDEN_Q_CLASSICAL
    assert _as_tuples(survey.exceptions_q_exceptional(
        table, thresholds, store.class_numbers, store.spectra)) == _GOLDEN_Q_EXCEPTIONAL


# the second table lists rank 3 before rank 9, in key order and as strings
@pytest.mark.parametrize("rows", [_GOLDEN_TABLE, {3: 4, 9: 4}])
def test_q_classical_search_runs_one_level_one_pass_per_model_and_q(store, monkeypatch,
                                                                   level_one_passes, rows):
    """The search asks for the highest rank first, so the level-1 pass
    runs once per block model and q, at the largest size the table asks
    for, and serves every lower rank."""
    asked = {}
    level_one_pass = ts._level_one_pass

    def recorded(size, signs, q):
        key = ts._MODEL_OF_SIGNS[signs[1]], q
        asked[key] = max(asked.get(key, 0), size)
        return level_one_pass(size, signs, q)

    monkeypatch.setattr(ts, "_level_one_pass", recorded)
    survey.exceptions_q_classical(Q0Table(rows=rows), make_thresholds(monster_constants()),
                                  store.class_numbers, store.spectra)
    assert asked
    assert {key: len(sums) - 1 for key, sums in ts._level_one_sums.items()} == asked
    assert sorted(level_one_passes) == sorted(asked.values())


def test_epsilon_q_searches_propagate_programming_errors(store, monkeypatch):
    """Only OrdspectraError marks a candidate unavailable; any other
    exception is a bug and must not be kept as a candidate."""
    def broken(*args, **kwargs):
        raise TypeError("broken bound")

    monkeypatch.setattr(bounds, "epsilon_q_lower", broken)
    thresholds = make_thresholds(monster_constants())
    with pytest.raises(TypeError):
        survey.exceptions_q_classical(Q0Table(rows={3: 3}), thresholds,
                                      store.class_numbers, store.spectra)
    with pytest.raises(TypeError):
        survey.exceptions_q_exceptional(Q0Table(rows={"2B2": 9}), thresholds,
                                        store.class_numbers, store.spectra)


def test_prime_powers_below_matches_factorization():

    powers = [m for m in range(2, 3001) if arith.prime_power_split(m) is not None]
    for limit in range(0, 3001):
        assert survey.prime_powers_below(limit) == [m for m in powers if m < limit], limit
