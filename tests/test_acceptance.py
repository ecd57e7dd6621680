"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from fractions import Fraction

import mpmath
import pytest

from ordspectra import arith, bounds, lie_catalog, messages, oracle, survey
from ordspectra import sym_partitions as sp
from ordspectra import torus_spectra as ts
from ordspectra.class_numbers import ClassNumberProvider
from ordspectra.survey import UNDEFINED

mpmath.mp.dps = 60

# (family, d, Q, oracle construction); reused across criteria 5-7.
# The B/D/2D rows lean on the standard low-rank isomorphisms
# (Omega5(3) = PSp4(3), Omega6+(2) = PSL4(2), Omega4-(2) = PSL2(4)).
CATALOG_GRID = [
    ("A", 1, 4, ("PSL", 2, 4)),
    ("A", 1, 5, ("PSL", 2, 5)),
    ("A", 1, 7, ("PSL", 2, 7)),
    ("A", 1, 8, ("PSL", 2, 8)),
    ("A", 1, 9, ("PSL", 2, 9)),
    ("A", 1, 11, ("PSL", 2, 11)),
    ("A", 1, 13, ("PSL", 2, 13)),
    ("A", 2, 2, ("PSL", 3, 2)),
    ("A", 2, 3, ("PSL", 3, 3)),
    ("A", 2, 4, ("PSL", 3, 4)),
    ("A", 3, 2, ("PSL", 4, 2)),
    ("2A", 2, 9, ("PSU", 3, 3)),
    ("2A", 3, 4, ("PSU", 4, 2)),
    ("C", 2, 3, ("PSp", 4, 3)),
    ("B", 2, 3, ("PSp", 4, 3)),
    ("D", 3, 2, ("PSL", 4, 2)),
    ("2D", 2, 4, ("PSL", 2, 4)),
]


def test_criterion_1_sym_oracle_equality():
    start = time.time()
    for n in range(1, 101):
        assert len(oracle.sym_spectrum_oracle(n)) == sp.nr_element_orders_sym(n), n
    elapsed = time.time() - start
    assert elapsed < 30
    print(f"PASS criterion 1: sym oracle equality n<=100 ({elapsed:.1f}s)")


def enumerate_coprime_prime_power_partitions(n):
    primes = arith.primes_up_to(n)
    count = 0
    stack = [(n, 0)]

    def rec(remaining, start):
        nonlocal count
        if remaining == 0:
            count += 1
            return
        for i in range(start, len(primes)):
            power = primes[i]
            while power <= remaining:
                rec(remaining - power, i + 1)
                power *= primes[i]

    rec(n, 0)
    return count


def test_criterion_2_r_equality():
    start = time.time()
    for n in range(1, 41):
        assert sp.nr_coprime_prime_power_partitions(n) == \
            enumerate_coprime_prime_power_partitions(n), n
    elapsed = time.time() - start
    assert elapsed < 10
    print(f"PASS criterion 2: r(n) equality n<=40 ({elapsed:.1f}s)")


def test_criterion_3_argmax_66():
    start = time.time()
    constants = sp.omicron_sym_constants(2000)
    best_k, best_c = max(constants, key=lambda kv: kv[1])
    runner_k, runner_c = max(
        (kv for kv in constants if kv[0] != best_k), key=lambda kv: kv[1]
    )
    assert best_k == 66
    assert best_c - runner_c > 1e-12, "near-tie inside the guard band"
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"PASS criterion 3: argmax c_k = 66 (runner-up {runner_k}, "
          f"gap {best_c - runner_c:.2e}, {elapsed:.1f}s)")


def test_criterion_4_matrix_base_cases():
    assert sp.partition_number_matrix(1).rows == ((0,),)
    assert sp.partition_number_matrix(2).rows == ((0,), (1,))
    assert sp.partition_number_matrix(3).rows == ((0, 0), (1, 0), (0, 1))
    print("PASS criterion 4: matrix base cases")


def test_criterion_5_group_orders(get_group):
    seen = set()
    for family, d, Q, (kind, n, q) in CATALOG_GRID:
        group = get_group(kind, n, q)
        spec = lie_catalog.make_spec(family, d, Q)
        assert lie_catalog.group_order(spec) == group.order, (family, d, Q)
        seen.add((kind, n, q))
    assert len(seen) >= 12
    assert lie_catalog.group_order(lie_catalog.make_spec("2B2", Q=8)) == 29120
    print(f"PASS criterion 5: group orders match the oracle on {len(seen)} "
          f"groups; |2B2(8)| = 29120")


def test_criterion_6_spectra(get_group):
    for family, d, Q, (kind, n, q) in CATALOG_GRID:
        group = get_group(kind, n, q)
        spec = lie_catalog.make_spec(family, d, Q)
        expected = oracle.semisimple_orders(group, spec.p)
        got = ts.semisimple_orders_simple(spec)
        assert got.values == expected.values, (family, d, Q)
    assert ts.suzuki_spectrum(8).values == (1, 2, 4, 5, 7, 13)
    print("PASS criterion 6: semisimple spectra match the oracle; "
          "2B2(8) spectrum is {1,2,4,5,7,13}")


def _provider_from_oracle(get_group):
    """Class numbers measured by the oracle, under the catalog labels."""
    provider = ClassNumberProvider()
    counts = {}
    for _, _, _, (kind, n, q) in CATALOG_GRID:
        key = (kind, n, q)
        if key not in counts:
            counts[key] = get_group(kind, n, q).conjugacy_class_count()
    for (kind, n, q), k in counts.items():
        if kind in ("PSL", "PSU"):
            provider.ingest(kind, n, q, k)
    # low-rank isomorphisms: Omega5(3)=PSp4(3), Omega6+(2)=PSL4(2),
    # Omega4-(2)=PSL2(4)
    provider.ingest("B", 2, 3, counts[("PSp", 4, 3)])
    provider.ingest("OmegaPlus", 6, 2, counts[("PSL", 4, 2)])
    provider.ingest("OmegaMinus", 4, 2, counts[("PSL", 2, 4)])
    # k(Sp4(3)) = 34: seed value, regenerated by `oracle dump --group Sp:4:3`
    provider.ingest("Sp", 4, 3, 34)
    return provider


def test_criterion_7_bound_directions(get_group):
    provider = _provider_from_oracle(get_group)
    checked = 0
    for family, d, Q, (kind, n, q) in CATALOG_GRID:
        group = get_group(kind, n, q)
        spec = lie_catalog.make_spec(family, d, Q)
        omega_true = oracle.nr_aut_orbits(group)
        omicron_true = group.nr_element_orders()
        levels = (2,) if family in ("A", "2A") else (1, 2)
        for level in levels:
            bound = bounds.nr_aut_orbits_lower(spec, level, provider)
            assert bound <= omega_true, (family, d, Q, level, bound, omega_true)
        for level in (1, 2):
            upper = bounds.nr_element_orders_upper(spec, level)
            assert upper >= omicron_true, (family, d, Q, level)
        checked += 1
    print(f"PASS criterion 7: bound directions verified on {checked} "
          f"catalog-named oracle groups")


def test_criterion_8_epsilon_recomputation(store):
    ln = mpmath.log

    def loglog(x):
        return ln(ln(x))

    checked = 0

    def close(got, expected):
        nonlocal checked
        checked += 1
        if expected is UNDEFINED:
            assert got is UNDEFINED
        else:
            assert abs(got - float(expected)) < 1e-9

    # epsilon_omega bounds
    close(bounds.epsilon_omega_lower(lie_catalog.make_spec("2B2", Q=8), None,
                                     store.class_numbers).value,
          loglog(4) / loglog(29120))
    close(bounds.epsilon_omega_lower(lie_catalog.make_spec("A", 1, 5), 2,
                                     store.class_numbers).value,
          loglog(3) / loglog(60))
    # level-1 ingredients: k-bound ceil(27/2) = 14, |Out(B3(3))| = 2
    close(bounds.epsilon_omega_lower(lie_catalog.make_spec("B", 3, 3), 1,
                                     store.class_numbers).value,
          loglog(7) / loglog(lie_catalog.group_order(
              lie_catalog.make_spec("B", 3, 3))))
    # epsilon_q bounds
    close(bounds.epsilon_q_lower(lie_catalog.make_spec("2B2", Q=8), None,
                                 store.class_numbers, store.spectra).value,
          loglog(mpmath.mpf(4) / 6 + 3) / loglog(29120))
    close(bounds.epsilon_q_lower(lie_catalog.make_spec("A", 1, 7), (2, 1),
                                 store.class_numbers, store.spectra).value,
          loglog(mpmath.mpf(3) / 10 + 3) / loglog(168))
    eq_c = bounds.epsilon_q_lower(lie_catalog.make_spec("C", 2, 3), (2, 2),
                                  store.class_numbers, store.spectra)
    frac = Fraction(eq_c.omega_bound, eq_c.omicron_bound)
    close(eq_c.value,
          loglog(mpmath.mpf(frac.numerator) / frac.denominator + 3)
          / loglog(25920))
    # survey displays
    ln2 = ln(2)
    for d in (10, 25, 100):
        inner = d - 2 * ln(d + 1) / ln2 - ln(6) / ln2
        close(survey.epsilon_omega_general2(d),
              (ln(inner) + ln(ln2)) / (ln(4 * d * d) + ln(ln2)))
    for d in range(3, 10):
        assert survey.epsilon_omega_general2(d) is UNDEFINED, d
    for d in range(10, 101):
        assert survey.epsilon_omega_general2(d) is not UNDEFINED, d
    for d, q in ((3, 1000), (12, 17), (40, 3)):
        logq = ln(q)
        inner = d - 2 * ln(d + 1) / logq - ln(6) / logq - 1 / (mpmath.e * ln2)
        close(survey.epsilon_omega_general3(d, q),
              ln(inner) / ln(4 * d * d) if inner > 0 else UNDEFINED)
    close(survey.epsilon_omega_general3(10, (2, 3)),
          ln(10 - (2 * ln(11) + ln(6)) / (mpmath.mpf(3) / 2 * ln2)
             - 1 / (mpmath.e * ln2)) / ln(400))
    # classical1, all four types
    for d, kind in ((1000, 1), (500, 2), (91, 3), (120, 3), (55, 4), (200, 4)):
        got = survey.epsilon_q_classical1(d, kind)
        tail = ln(2 + ln(2 * d) / ln2)
        if kind == 1:
            inner = (1 - ln(3) / ln(4)) * d - (
                2 * mpmath.pi / mpmath.sqrt(3) * mpmath.sqrt(d)
                + 3 * ln(d + 1) + tail + ln(4)) / ln2
            expected = (ln(inner) + ln(ln2)) / (ln(4 * d * d) + ln(ln2))
        elif kind == 2:
            inner = (1 - ln(4) / ln(9)) * d - (
                2 * mpmath.pi / mpmath.sqrt(3) * mpmath.sqrt(d)
                + 3 * ln(d + 1) + tail + ln(4)) / ln(3) - 1 / (mpmath.e * ln2)
            expected = ln(inner) / ln(4 * d * d)
        elif kind == 3:
            inner = (1 - mpmath.mpf("0.311") * ln(3) / ln2) * d - (
                ln(sp.g2(d)) + 2 * ln(3) + tail + ln2) / ln2
            expected = (ln(inner) + ln(ln2)) / (ln(4 * d * d) + ln(ln2))
        else:
            inner = (1 - ln(4) / ln(27)) * d - (
                ln(sp.g2(d)) + 2 * ln(d + 1) + tail + ln2) / ln(3) \
                - 1 / (mpmath.e * ln2)
            expected = ln(inner) / ln(4 * d * d)
        close(got, expected if inner > 0 else UNDEFINED)
    # classical2 branches
    q = mpmath.mpf(2) ** 20
    close(survey.epsilon_q_classical2(1, 2**20),
          loglog((q + 1) / (8 * 20 * (mpmath.sqrt((q + 1) / 2)
                                      + mpmath.sqrt((q - 1) / 2))))
          / loglog(q * (q * q - 1)))
    close(survey.epsilon_q_classical2(1, 101), UNDEFINED)
    close(survey.epsilon_q_classical2(91, 3), _classical2_reference(91, 3))
    close(survey.epsilon_q_classical2(120, 5), _classical2_reference(120, 5))
    assert checked >= 20
    print(f"PASS criterion 8: {checked} epsilon values match 60-digit "
          f"recomputation to 1e-9; general2 Undefined exactly on 3..9")


def _classical2_reference(d, q):
    ln = mpmath.log
    c_d = 6 if d == 4 else 2
    log2q = ln(q) / ln(2)
    denom = (2 * c_d * log2q * min(d + 1, q + 1) ** 2 * sp.g2(d)
             * (1 + arith.ceil_log(2, 2 * d)) * mpmath.power(q + 1, mpmath.mpf(d) / 2))
    arg = mpmath.power(q, d) / denom
    if arg <= 1:
        return UNDEFINED
    return ln(ln(arg)) / ln(4 * d * d * ln(q))


def test_criterion_9_message_parity():
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
        "This combination of quality levels is not available. Please set the "
        "quality levels to (2,1), (2,2) or (2,3)."
    )
    assert messages.TYPE_1_2_3_OR_4 == (
        "This type is not available. Please set the type to 1, 2, 3 or 4."
    )
    print("PASS criterion 9: availability messages match byte for byte")


def test_criterion_10_lcm_and_divisor_instrumentation():
    assert arith.lcm_list([]) == 1
    arith.reset_counters()
    start = time.time()
    assert arith.nr_divisors(2**200 * 3**100) == 201 * 101
    elapsed = time.time() - start
    assert arith.counters["trial_divisions"] < 10
    assert arith.counters["rho_rounds"] == 0
    assert elapsed < 0.5
    assert not hasattr(arith, "divisors")  # no divisor-list routine exists
    print("PASS criterion 10: lcm([]) = 1; 20301 divisors counted with "
          f"{arith.counters['trial_divisions']} trial divisions, no rho")
