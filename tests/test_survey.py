import mpmath
import pytest

from ordspectra import bounds, survey
from ordspectra.class_numbers import ClassNumberProvider
from ordspectra.errors import DataMissing, DomainError, NotAvailable
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


def test_table_driven_evaluators():
    with pytest.raises(DataMissing):
        survey.epsilon_omega_table_bound("2B2", 8, {})
    assert survey.epsilon_omega_table_bound(
        "2B2", 8, {"general1_2B2_8": 0.14}) == 0.14
    with pytest.raises(DataMissing):
        survey.epsilon_q_exceptional_table_bound("G2", 4, {})
    assert survey.epsilon_q_exceptional_table_bound(
        "G2", 4, {"qexc_G2_4": 0.1}) == 0.1


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
