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
    try:
        return "value", compute()
    except Exception as exc:
        return type(exc), str(exc)


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
