import itertools
from fractions import Fraction

import mpmath
import pytest

from ordspectra import bounds, messages
from ordspectra import lie_catalog as lc
from ordspectra.class_numbers import ClassNumberProvider
from ordspectra.errors import DataMissing, DomainError, NotAvailable, OutOfScope
from ordspectra.torus_spectra import SpectrumProvider


def test_message_table_is_frozen():
    assert messages.LEVEL_ONLY_2 == (
        "This quality level is not available. Please set the quality level to 2."
    )
    assert messages.LEVEL_1_OR_2 == (
        "This quality level is not available. Please set the quality level to 1 or 2."
    )
    assert messages.LEVEL_1_2_OR_3 == (
        "This quality level is not available. Please set the quality level to 1, 2 or 3."
    )
    assert messages.COMBO_A == (
        "This combination of quality levels is not available. "
        "Please set the quality levels to (2,1), (2,2) or (2,3)."
    )
    assert messages.COMBO_BC == (
        "This combination of quality levels is not available. "
        "Please set the quality levels to (1,1), (1,2), (2,1) or (2,2)."
    )
    assert messages.COMBO_D == (
        "This combination of quality levels is not available. "
        "Please set the quality levels to (1,1), (1,2), (1,3), (2,1), (2,2) or (2,3)."
    )
    assert messages.TYPE_1_2_3_OR_4 == (
        "This type is not available. Please set the type to 1, 2, 3 or 4."
    )


def test_every_row_level_tuple_has_its_message():
    for family, row in lc.FAMILY_TABLE.items():
        if not row.classical:
            assert row.omega == row.omicron == (), family
            continue
        assert row.omega in messages.LEVELS and row.omicron in messages.LEVELS, family
        assert (row.omega, row.omicron) in messages.COMBOS, family


def test_omega_bound_values(store):
    assert bounds.nr_aut_orbits_lower(
        lc.make_spec("A", 1, 5), 2, store.class_numbers) == 3
    assert bounds.nr_aut_orbits_lower(
        lc.make_spec("2B2", Q=8), None, store.class_numbers) == 4


def test_omega_bound_messages(store):
    with pytest.raises(NotAvailable) as err:
        bounds.nr_aut_orbits_lower(lc.make_spec("A", 1, 5), 1, store.class_numbers)
    assert err.value.message == messages.LEVEL_ONLY_2
    with pytest.raises(NotAvailable) as err:
        bounds.nr_aut_orbits_lower(lc.make_spec("B", 2, 3), 7, store.class_numbers)
    assert err.value.message == messages.LEVEL_1_OR_2


def outcome(compute):
    """("value", the value) or (the exception type, its message); an
    epsilon result is the value as (value to 12 places, omega, omicron)."""
    try:
        value = compute()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, bounds.EpsilonResult):
        return "value", (round(value.value, 12), value.omega_bound, value.omicron_bound)
    return "value", value


def test_omega_bound_levels_follow_class_number_bound(store):
    """The Aut-orbit bound takes exactly the levels of the class-number
    bound: at every level both refuse with the same error and message,
    or both give a value."""
    specs = [lc.make_spec("A", 1, 5), lc.make_spec("2A", 2, 9), lc.make_spec("B", 2, 3),
             lc.make_spec("C", 2, 3), lc.make_spec("D", 4, 2), lc.make_spec("2D", 4, 4)]
    assert {spec.family for spec in specs} == set(lc.CLASSICAL_FAMILIES)
    values = 0
    for spec in specs:
        for level in (None, 0, 1, 2, 3):
            got = outcome(lambda: bounds.nr_aut_orbits_lower(spec, level, store.class_numbers))
            want = outcome(lambda: bounds.class_number_lower_bound(
                spec, level, store.class_numbers))
            assert got[0] == want[0], (spec.family, level, got, want)
            if got[0] == "value":
                values += 1
            else:
                assert got[1] == want[1], (spec.family, level)
    assert values == 8


_ONLY_2 = ("NotAvailable", messages.LEVEL_ONLY_2)
_1_OR_2 = ("NotAvailable", messages.LEVEL_1_OR_2)
_1_2_3 = ("NotAvailable", messages.LEVEL_1_2_OR_3)
_A, _BC, _D = (("NotAvailable", m) for m in (messages.COMBO_A, messages.COMBO_BC,
                                               messages.COMBO_D))
_OOS = ("OutOfScope", "the level-3 sharply-divisible order counts are not reproduced here")
_MISS = {sign: ("DataMissing", f"missing data: classnum Omega{sign} 8 2")
         for sign in ("Plus", "Minus")}

#: spec -> outcomes of class_number_lower_bound, nr_aut_orbits_lower and
#: nr_element_orders_upper at levels None, 0, 1, 2, 3, 4, then of
#: epsilon_q_lower at None, (1,1), (1,2), ..., (3,3); an epsilon outcome
#: is (value to 12 places, omega bound, omicron bound)
LEVEL_PINS = {
    ("A", 1, 5): (
        (_ONLY_2, _ONLY_2, _ONLY_2, 5, _ONLY_2, _ONLY_2),
        (_ONLY_2, _ONLY_2, _ONLY_2, 3, _ONLY_2, _ONLY_2),
        (_1_2_3, _1_2_3, 8, 6, _OOS, _1_2_3),
        (_A, _A, _A, _A, (0.13896914678, 3, 8), (0.159868348661, 3, 6), _OOS, _A, _A, _A)),
    ("2A", 2, 9): (
        (_ONLY_2, _ONLY_2, _ONLY_2, 14, _ONLY_2, _ONLY_2),
        (_ONLY_2, _ONLY_2, _ONLY_2, 7, _ONLY_2, _ONLY_2),
        (_1_2_3, _1_2_3, 18, 10, _OOS, _1_2_3),
        (_A, _A, _A, _A, (0.092072786155, 7, 18), (0.124182520407, 7, 10), _OOS,
         _A, _A, _A)),
    ("B", 2, 3): (
        (_1_OR_2, _1_OR_2, 5, 20, _1_OR_2, _1_OR_2),
        (_1_OR_2, _1_OR_2, 3, 10, _1_OR_2, _1_OR_2),
        (_1_OR_2, _1_OR_2, 39, 12, _1_OR_2, _1_OR_2),
        (_BC, (0.050385989166, 3, 39), (0.070889616209, 3, 12), _BC,
         (0.071610000518, 10, 39), (0.127420064768, 10, 12), _BC, _BC, _BC, _BC)),
    ("C", 2, 3): (
        (_1_OR_2, _1_OR_2, 5, 17, _1_OR_2, _1_OR_2),
        (_1_OR_2, _1_OR_2, 3, 9, _1_OR_2, _1_OR_2),
        (_1_OR_2, _1_OR_2, 39, 12, _1_OR_2, _1_OR_2),
        (_BC, (0.050385989166, 3, 39), (0.070889616209, 3, 12), _BC,
         (0.068712608513, 9, 39), (0.120307628425, 9, 12), _BC, _BC, _BC, _BC)),
    ("D", 4, 2): (
        (_1_OR_2, _1_OR_2, 16, _MISS["Plus"], _1_OR_2, _1_OR_2),
        (_1_OR_2, _1_OR_2, 3, _MISS["Plus"], _1_OR_2, _1_OR_2),
        (_1_2_3, _1_2_3, 104, 24, _OOS, _1_2_3),
        (_D, (0.034901529738, 3, 104), (0.044351014994, 3, 24), _OOS,
         _MISS["Plus"], _MISS["Plus"], _MISS["Plus"], _D, _D, _D)),
    ("2D", 4, 4): (
        (_1_OR_2, _1_OR_2, 16, _MISS["Minus"], _1_OR_2, _1_OR_2),
        (_1_OR_2, _1_OR_2, 8, _MISS["Minus"], _1_OR_2, _1_OR_2),
        (_1_2_3, _1_2_3, 100, 32, _OOS, _1_2_3),
        (_D, (0.039908904587, 8, 100), (0.055725103809, 8, 32), _OOS,
         _MISS["Minus"], _MISS["Minus"], _MISS["Minus"], _D, _D, _D)),
}


def test_level_outcome_pins(store):
    assert {family for family, _, _ in LEVEL_PINS} == set(lc.CLASSICAL_FAMILIES)
    levels = (None, 0, 1, 2, 3, 4)
    pairs = (None,) + tuple(itertools.product((1, 2, 3), repeat=2))
    for point, pins in LEVEL_PINS.items():
        spec = lc.make_spec(*point)
        calls = (lambda level: bounds.class_number_lower_bound(spec, level, store.class_numbers),
                 lambda level: bounds.nr_aut_orbits_lower(spec, level, store.class_numbers),
                 lambda level: bounds.nr_element_orders_upper(spec, level, store.spectra))
        got = [[outcome(lambda: call(level)) for level in levels] for call in calls]
        got.append([outcome(lambda: bounds.epsilon_q_lower(
            spec, pair, store.class_numbers, store.spectra)) for pair in pairs])
        got = tuple(tuple(value if kind == "value" else (kind.__name__, value)
                          for kind, value in row) for row in got)
        assert got == pins, point


def test_epsilon_omega(store):
    result = bounds.epsilon_omega_lower(lc.make_spec("2B2", Q=8), None,
                                        store.class_numbers)
    mpmath.mp.dps = 50
    expected = mpmath.log(mpmath.log(4)) / mpmath.log(mpmath.log(29120))
    assert abs(result.value - float(expected)) < 1e-12
    assert result.omega_bound == 4
    result2 = bounds.epsilon_omega_lower(lc.make_spec("A", 1, 5), 2,
                                         store.class_numbers)
    expected2 = mpmath.log(mpmath.log(3)) / mpmath.log(mpmath.log(60))
    assert abs(result2.value - float(expected2)) < 1e-12


def test_epsilon_omega_domain_error_for_tiny_bound():
    provider = ClassNumberProvider()
    provider.ingest("PSL", 2, 4, 5)
    # |Out(A1(4))| = 2 -> bound 3 is fine; force a tiny bound via level
    provider2 = ClassNumberProvider()
    provider2.ingest("PSL", 2, 4, 4)
    with pytest.raises(DomainError):
        bounds.epsilon_omega_lower(lc.make_spec("A", 1, 4), 2, provider2)


def test_oord_bound_values(store):
    assert bounds.nr_element_orders_upper(lc.make_spec("A", 1, 5), 2) == 6
    assert bounds.nr_element_orders_upper(lc.make_spec("A", 1, 7), 1) == 10
    # exceptional families return the exact count
    assert bounds.nr_element_orders_upper(lc.make_spec("2B2", Q=8), None) == 6


def test_oord_level_dispatch(store):
    with pytest.raises(NotAvailable) as err:
        bounds.nr_element_orders_upper(lc.make_spec("A", 1, 5), 4)
    assert err.value.message == messages.LEVEL_1_2_OR_3
    with pytest.raises(NotAvailable) as err:
        bounds.nr_element_orders_upper(lc.make_spec("B", 2, 3), 3)
    assert err.value.message == messages.LEVEL_1_OR_2
    with pytest.raises(OutOfScope):
        bounds.nr_element_orders_upper(lc.make_spec("A", 1, 5), 3)
    with pytest.raises(OutOfScope):
        bounds.nr_element_orders_upper(lc.make_spec("D", 3, 2), 3)


def test_level_monotonicity(store):
    for family, d, Q in [("A", 1, 7), ("A", 2, 4), ("2A", 2, 9),
                         ("B", 2, 3), ("C", 2, 3), ("D", 3, 2)]:
        spec = lc.make_spec(family, d, Q)
        o1 = bounds.nr_element_orders_upper(spec, 1)
        o2 = bounds.nr_element_orders_upper(spec, 2)
        assert o2 <= o1, (family, d, Q)
    for family, d, Q in [("B", 2, 3), ("C", 2, 3)]:
        spec = lc.make_spec(family, d, Q)
        w1 = bounds.nr_aut_orbits_lower(spec, 1, store.class_numbers)
        w2 = bounds.nr_aut_orbits_lower(spec, 2, store.class_numbers)
        assert w2 >= w1, (family, d, Q)


def test_e8_bound_formula_with_synthetic_spectrum():
    spectra = SpectrumProvider()
    spectra.add("E8", 2, list(range(1, 76, 2)))  # synthetic semisimple set
    spec = lc.make_spec("E8", Q=2)
    # 1 + ceil(log_2 30) = 6
    assert bounds.nr_element_orders_upper(spec, None, spectra) == 38 * 6
    with pytest.raises(DataMissing):
        bounds.nr_element_orders_upper(spec, None, SpectrumProvider())


def test_epsilon_q(store):
    result = bounds.epsilon_q_lower(lc.make_spec("2B2", Q=8), None,
                                    store.class_numbers, store.spectra)
    mpmath.mp.dps = 50
    expected = mpmath.log(mpmath.log(mpmath.mpf(4) / 6 + 3)) / mpmath.log(
        mpmath.log(29120))
    assert abs(result.value - float(expected)) < 1e-12
    assert (result.omega_bound, result.omicron_bound) == (4, 6)

    result = bounds.epsilon_q_lower(lc.make_spec("A", 1, 7), (2, 1),
                                    store.class_numbers, store.spectra)
    expected = mpmath.log(mpmath.log(mpmath.mpf(3) / 10 + 3)) / mpmath.log(
        mpmath.log(168))
    assert abs(result.value - float(expected)) < 1e-12


def test_epsilon_q_pair_messages(store):
    with pytest.raises(NotAvailable) as err:
        bounds.epsilon_q_lower(lc.make_spec("A", 1, 7), (1, 1),
                               store.class_numbers, store.spectra)
    assert err.value.message == messages.COMBO_A
    with pytest.raises(NotAvailable) as err:
        bounds.epsilon_q_lower(lc.make_spec("B", 2, 3), (2, 3),
                               store.class_numbers, store.spectra)
    assert err.value.message == messages.COMBO_BC
    with pytest.raises(NotAvailable) as err:
        bounds.epsilon_q_lower(lc.make_spec("D", 3, 2), (3, 1),
                               store.class_numbers, store.spectra)
    assert err.value.message == messages.COMBO_D
    # (2,3) is a recognized pair for A, but level 3 itself is out of scope
    with pytest.raises(OutOfScope):
        bounds.epsilon_q_lower(lc.make_spec("A", 1, 7), (2, 3),
                               store.class_numbers, store.spectra)


def test_epsilon_result_reproducible(store):
    mpmath.mp.dps = 50
    for family, d, Q, levels in [("A", 1, 7, (2, 1)), ("C", 2, 3, (2, 2)),
                                 ("B", 2, 3, (1, 1))]:
        spec = lc.make_spec(family, d, Q)
        result = bounds.epsilon_q_lower(spec, levels, store.class_numbers,
                                        store.spectra)
        frac = Fraction(result.omega_bound, result.omicron_bound)
        x = mpmath.mpf(frac.numerator) / frac.denominator + 3
        recomputed = float(mpmath.log(mpmath.log(x)) / result.loglog_order)
        assert abs(recomputed - result.value) < 1e-12


def test_fixed_small_q_formulas(store):
    constants = {"oss_A_90_2": 10**6, "oss_2A_90_4": 10**7}
    mpmath.mp.dps = 50
    result = bounds.epsilon_q_fixed_small_q("A", 54, constants,
                                            store.class_numbers)
    denom = 10**6 * (1 + 6)  # ceil(log2(55)) = 6
    expected = mpmath.log(mpmath.log(mpmath.mpf(2**53) / denom + 3)) / mpmath.log(
        mpmath.log(lc.group_order(lc.make_spec("A", 54, 2))))
    assert abs(result.value - float(expected)) < 1e-12

    result = bounds.epsilon_q_fixed_small_q("2A", 60, constants,
                                            store.class_numbers)
    numerator = Fraction(2**60, 2 * 1)  # gcd(61, 3) = 1
    assert result.omega_bound == numerator
    with pytest.raises(DataMissing):
        bounds.epsilon_q_fixed_small_q("B", 60, constants, store.class_numbers)


def test_fixed_small_q_warns_out_of_range(store):
    constants = {"oss_A_90_2": 10**6}
    with pytest.warns(UserWarning):
        bounds.epsilon_q_fixed_small_q("A", 20, constants, store.class_numbers)
