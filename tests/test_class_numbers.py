from fractions import Fraction

import pytest

from ordspectra import class_numbers as cn
from ordspectra import lie_catalog as lc
from ordspectra.errors import DataMissing, DomainError, NotAvailable


def provider_with(entries):
    provider = cn.ClassNumberProvider()
    for label, a, b, value in entries:
        provider.ingest(label, a, b, value)
    return provider


def test_exact_lookup(store):
    assert cn.class_number_exact(lc.make_spec("A", 1, 5), store.class_numbers) == 5
    assert cn.class_number_exact(lc.make_spec("A", 1, 7), store.class_numbers) == 6
    assert cn.class_number_exact(lc.make_spec("2B2", Q=8), store.class_numbers) == 11
    assert cn.class_number_exact(lc.make_spec("B", 2, 3), store.class_numbers) == 20


def test_data_missing_names_the_record(store):
    with pytest.raises(DataMissing) as err:
        cn.class_number_exact(lc.make_spec("A", 9, 101), store.class_numbers)
    assert "PSL 10 101" in str(err.value)


def test_no_exact_function_for_bound_only_families(store):
    for family, d in [("C", 2), ("D", 3), ("2D", 3), ("E6", None), ("E7", None)]:
        Q = 9 if family == "2D" else 3
        with pytest.raises(NotAvailable):
            cn.class_number_exact(lc.make_spec(family, d, Q), store.class_numbers)


def test_level_one_closed_forms():
    empty = cn.ClassNumberProvider()
    assert cn.class_number_lower_bound(lc.make_spec("B", 3, 3), 1, empty) == 14
    assert cn.class_number_lower_bound(lc.make_spec("C", 3, 3), 1, empty) == 14
    assert cn.class_number_lower_bound(lc.make_spec("D", 4, 2), 1, empty) == 16
    # odd q: the printed formula is a non-integral rational
    value = cn.class_number_lower_bound(lc.make_spec("D", 3, 3), 1, empty)
    assert value == Fraction(27, 4)
    assert cn.class_number_lower_bound(lc.make_spec("2D", 3, 4), 1, empty) == 8


def test_level_two_c_family(store):
    # ceil(k(Sp4(3)) / 2) = ceil(34/2)
    assert cn.class_number_lower_bound(
        lc.make_spec("C", 2, 3), 2, store.class_numbers) == 17


def test_level_messages():
    empty = cn.ClassNumberProvider()
    with pytest.raises(NotAvailable) as err:
        cn.class_number_lower_bound(lc.make_spec("A", 1, 5), 1, empty)
    assert str(err.value) == ("This quality level is not available. "
                              "Please set the quality level to 2.")
    with pytest.raises(NotAvailable) as err:
        cn.class_number_lower_bound(lc.make_spec("B", 2, 3), 3, empty)
    assert str(err.value) == ("This quality level is not available. "
                              "Please set the quality level to 1 or 2.")


def test_d_family_branch_selection():
    """The three-way case split: branch selection must match the printed
    conditions exactly (checked with synthetic provider values)."""
    marker_omega = 1001  # odd, so the ceil branch is visible
    marker_so = 2002
    for d in (2, 3, 4):
        for q in (2, 3, 5):
            n = 2 * d
            provider = provider_with([
                ("OmegaPlus", n, q, marker_omega),
                ("SOplus", n, q, marker_so),
                ("OmegaMinus", n, q, marker_omega),
                ("SOminus", n, q, marker_so),
            ])
            got_d = cn.class_number_lower_bound(lc.make_spec("D", d, q), 2, provider)
            got_2d = cn.class_number_lower_bound(
                lc.make_spec("2D", d, q * q), 2, provider)
            if q % 2 == 0:
                assert got_d == marker_omega
                assert got_2d == marker_omega
            elif q % 4 == 3 and d % 2 == 1:
                assert got_d == Fraction(marker_so, 2)
                assert got_2d == -(-marker_omega // 2)
            else:
                assert got_d == -(-marker_omega // 2)
                assert got_2d == Fraction(marker_so, 2)


def test_sum_difference_reconstruction():
    provider = provider_with([
        ("OmegaSum", 8, 2, 100),
        ("OmegaDiff", 8, 2, 10),
        ("SOSum", 8, 3, 61),
        ("SODiff", 8, 3, 7),
    ])
    assert cn.k_omega(provider, +1, 8, 2) == 55
    assert cn.k_omega(provider, -1, 8, 2) == 45
    assert cn.k_so(provider, +1, 8, 3) == 34
    assert cn.k_so(provider, -1, 8, 3) == 27
    bad = provider_with([("OmegaSum", 8, 2, 100), ("OmegaDiff", 8, 2, 9),
                         ("SOSum", 8, 3, 61), ("SODiff", 8, 3, 8)])
    with pytest.raises(DomainError) as excinfo:
        cn.k_omega(bad, +1, 8, 2)
    assert str(excinfo.value) == "Omega sum/difference entries have mixed parity"
    with pytest.raises(DomainError) as excinfo:
        cn.k_so(bad, -1, 8, 3)
    assert str(excinfo.value) == "SO sum/difference entries have mixed parity"
    for k, sign, label in ((cn.k_omega, +1, "OmegaPlus"), (cn.k_omega, -1, "OmegaMinus"),
                           (cn.k_so, +1, "SOplus"), (cn.k_so, -1, "SOminus")):
        with pytest.raises(DataMissing) as excinfo:
            k(provider, sign, 10, 5)
        assert str(excinfo.value) == f"missing data: classnum {label} 10 5"


def test_dominance_where_oracle_known(store, get_group):
    """level-1 <= level-2 <= exact simple-group class count."""
    psp = get_group("PSp", 4, 3)
    exact_simple = psp.conjugacy_class_count()
    level1 = cn.class_number_lower_bound(lc.make_spec("C", 2, 3), 1,
                                         store.class_numbers)
    level2 = cn.class_number_lower_bound(lc.make_spec("C", 2, 3), 2,
                                         store.class_numbers)
    assert level1 <= level2 <= exact_simple
    # B family: level 2 is the exact count itself
    b1 = cn.class_number_lower_bound(lc.make_spec("B", 2, 3), 1,
                                     store.class_numbers)
    b2 = cn.class_number_lower_bound(lc.make_spec("B", 2, 3), 2,
                                     store.class_numbers)
    assert b1 <= b2 == exact_simple


def test_inndiag_bound():
    provider = provider_with([("InndiagE6", 6, 4, 200)])
    spec = lc.make_spec("E6", Q=4)
    # outdiag(E6(4)) = gcd(3, 3) = 3
    assert cn.class_number_lower_bound(spec, None, provider) == -(-200 // 3) * 1
    with pytest.raises(DataMissing):
        cn.class_number_lower_bound(lc.make_spec("E7", Q=4), None, provider)
