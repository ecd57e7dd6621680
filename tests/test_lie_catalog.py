import pytest

from ordspectra import lie_catalog as lc
from ordspectra.errors import (
    NotAvailable,
    NotPrimePower,
    RankOutOfRange,
    WrongTwistForm,
)


def test_make_spec_suzuki():
    spec = lc.make_spec("2B2", Q=8)
    assert spec.p == 2 and spec.t == 2 and spec.f2 == 3
    assert spec.q is None  # irrational base parameter
    assert lc.make_spec("2B2", Q=32).f2 == 5
    with pytest.raises(WrongTwistForm):
        lc.make_spec("2B2", Q=16)


def test_make_spec_twisted_squares():
    spec = lc.make_spec("2A", 3, 9)
    assert spec.q == 3 and spec.t == 2
    with pytest.raises(WrongTwistForm):
        lc.make_spec("2A", 3, 8)
    with pytest.raises(WrongTwistForm):
        lc.make_spec("3D4", Q=4)
    assert lc.make_spec("3D4", Q=8).q == 2


def test_make_spec_validation():
    with pytest.raises(NotPrimePower):
        lc.make_spec("A", 1, 6)
    with pytest.raises(RankOutOfRange):
        lc.make_spec("D", 1, 4)
    with pytest.raises(RankOutOfRange):
        lc.make_spec("E6", 5, 4)


def test_non_simple_warnings():
    assert lc.make_spec("A", 1, 2).warning
    assert lc.make_spec("A", 1, 3).warning
    assert lc.make_spec("2A", 2, 4).warning
    assert lc.make_spec("2B2", Q=2).warning
    assert lc.make_spec("D", 2, 3).warning
    assert lc.make_spec("A", 1, 4).warning is None
    assert lc.make_spec("2B2", Q=8).warning is None


def test_group_orders():
    assert lc.group_order(lc.make_spec("A", 1, 4)) == 60
    assert lc.group_order(lc.make_spec("A", 1, 7)) == 168
    assert lc.group_order(lc.make_spec("2B2", Q=8)) == 29120
    assert lc.group_order(lc.make_spec("A", 3, 2)) == 20160
    assert lc.group_order(lc.make_spec("2A", 3, 4)) == 25920
    assert lc.group_order(lc.make_spec("C", 2, 3)) == 25920
    assert lc.group_order(lc.make_spec("B", 2, 3)) == 25920
    assert lc.group_order(lc.make_spec("D", 3, 2)) == 20160
    assert lc.group_order(lc.make_spec("2D", 2, 4)) == 60
    # a couple of standard exceptional orders
    assert lc.group_order(lc.make_spec("G2", Q=2)) == 12096
    assert lc.group_order(lc.make_spec("2G2", Q=3)) == 1512
    assert lc.group_order(lc.make_spec("2F4", Q=2)) == 35942400
    assert lc.group_order(lc.make_spec("3D4", Q=8)) == 211341312
    # 2^24 3^6 5^2 7^2 13 17
    assert lc.group_order(lc.make_spec("F4", Q=2)) == 3311126603366400
    assert lc.group_order(lc.make_spec("E6", Q=2)) == 214841575522005575270400
    assert lc.group_order(lc.make_spec("2E6", Q=4)) == 76532479683774853939200
    assert lc.group_order(lc.make_spec("E7", Q=2)) == (
        7997476042075799759100487262680802918400)
    assert lc.group_order(lc.make_spec("E8", Q=2)) == (
        337804753143634806261388190614085595079991692242467651576160959909068800000)


def test_log_log_order_never_overflows():
    spec = lc.make_spec("E8", Q=2**64)
    value = lc.log_log_group_order(spec)
    assert 0 < value < 100


def test_log_log_increasing_in_q():
    for family, d in [("A", 2), ("B", 3), ("E8", None)]:
        values = []
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            values.append(lc.log_log_group_order(lc.make_spec(family, d, q)))
        assert values == sorted(values)
        assert len(set(values)) == len(values)


def test_out_orders_match_atlas():
    cases = [
        (("A", 1, 9), 4),
        (("A", 1, 5), 2),
        (("A", 1, 4), 2),
        (("A", 1, 8), 3),
        (("A", 2, 4), 12),
        (("A", 2, 2), 2),
        (("A", 2, 3), 2),
        (("A", 3, 2), 2),
        (("2A", 2, 9), 2),
        (("2A", 2, 16), 4),
        (("2A", 3, 4), 2),
        (("C", 2, 3), 2),
        (("B", 2, 3), 2),
        (("2B2", None, 8), 3),
        (("D", 4, 2), 6),
        (("D", 4, 3), 24),
        (("2D", 3, 9), 8),
        (("E8", None, 4), 2),
    ]
    for (family, d, Q), expected in cases:
        assert lc.out_order(lc.make_spec(family, d, Q)) == expected, (family, d, Q)


def test_outdiag_orders():
    assert lc.outdiag_order(lc.make_spec("E6", Q=4)) == 3
    assert lc.outdiag_order(lc.make_spec("A", 2, 4)) == 3
    assert lc.outdiag_order(lc.make_spec("E8", Q=5)) == 1
    assert lc.outdiag_order(lc.make_spec("2A", 2, 4)) == 3
    assert lc.outdiag_order(lc.make_spec("D", 2, 3)) == 4
    assert lc.outdiag_order(lc.make_spec("2D", 3, 9)) == 4


_OUT_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)

#: family -> (|Outdiag|, |Out|) over its grid: for each rank from the least
#: (classical) or the fixed one, for each q of _OUT_QS, Q = q**t; the
#: Suzuki/Ree families take Q = p, p**3, p**5, p**7
OUT_PINS = {
    "A": ("1 2 1 2 2 1 2 1 2 2 1 1 3 1 3 1 1 3 3 1 1 2 1 4 2 1 4 1 4 2 1 1 1 1 1 1 1 5 1 1",
          "1 2 2 2 2 3 4 4 4 6 2 2 12 2 6 6 4 24 12 6 2 4 4 8 4 6 16 8 16 12 2 2 4 2 2 6 4 40 4 6"),
    "2A": ("1 2 1 2 2 1 2 1 2 2 3 1 1 3 1 3 1 1 1 1 1 4 1 2 4 1 2 1 2 4 1 1 5 1 1 1 5 1 1 1",
           "2 4 4 4 4 6 8 8 8 12 6 2 4 6 2 18 4 8 4 6 2 8 4 4 8 6 8 8 8 24 2 2 20 2 2 6 20 8 4 6"),
    "B": ("1 2 1 2 2 1 2 1 2 2 1 2 1 2 2 1 2 1 2 2 1 2 1 2 2 1 2 1 2 2 1 2 1 2 2 1 2 1 2 2",
          "1 2 2 2 2 3 4 4 4 6 2 2 4 2 2 6 4 8 4 6 1 2 2 2 2 3 4 4 4 6 1 2 2 2 2 3 4 4 4 6"),
    "C": ("1 2 1 2 2 1 2 1 2 2 1 2 1 2 2 1 2 1 2 2 1 2 1 2 2 1 2 1 2 2 1 2 1 2 2 1 2 1 2 2",
          "1 2 2 2 2 3 4 4 4 6 2 2 4 2 2 6 4 8 4 6 1 2 2 2 2 3 4 4 4 6 1 2 2 2 2 3 4 4 4 6"),
    "D": ("1 4 1 4 4 1 4 1 4 4 1 2 1 4 2 1 4 1 4 2 1 4 1 4 4 1 4 1 4 4 1 2 1 4 2 1 4 1 4 2",
          "2 8 4 8 8 6 16 8 16 24 2 4 4 8 4 6 16 8 16 12 6 24 12 24 24 18 48 24 48 72 "
          "2 4 4 8 4 6 16 8 16 12"),
    "2D": ("1 2 1 2 2 1 2 1 2 2 1 4 1 2 4 1 2 1 2 4 1 2 1 2 2 1 2 1 2 2 1 4 1 2 4 1 2 1 2 4",
           "2 4 4 4 4 6 8 8 8 12 2 8 4 4 8 6 8 8 8 24 2 4 4 4 4 6 8 8 8 12 2 8 4 4 8 6 8 8 8 24"),
    "2B2": ("1 1 1 1", "1 3 5 7"),
    "G2": ("1 1 1 1 1 1 1 1 1 1", "1 2 2 1 1 3 4 4 2 6"),
    "2G2": ("1 1 1 1", "1 3 5 7"),
    "3D4": ("1 1 1 1 1 1 1 1 1 1", "3 3 6 3 3 9 6 12 6 9"),
    "F4": ("1 1 1 1 1 1 1 1 1 1", "2 1 4 1 1 6 2 8 2 3"),
    "2F4": ("1 1 1 1", "1 3 5 7"),
    "E6": ("1 1 3 1 3 1 1 3 3 1", "2 2 12 2 6 6 4 24 12 6"),
    "2E6": ("3 1 1 3 1 3 1 1 1 1", "6 2 4 6 2 18 4 8 4 6"),
    "E7": ("1 2 1 2 2 1 2 1 2 2", "1 2 2 2 2 3 4 4 4 6"),
    "E8": ("1 1 1 1 1 1 1 1 1 1", "1 1 2 1 1 3 2 4 2 3"),
}


def test_outdiag_and_out_order_pins():
    assert set(OUT_PINS) == set(lc.FAMILIES)
    for family, row in lc.FAMILY_TABLE.items():
        if row.sqrt_p:
            grid = [(None, row.sqrt_p ** (2 * k + 1)) for k in range(4)]
        else:
            ranks = range(row.rank, row.rank + 4) if row.classical else (None,)
            grid = [(d, q ** row.t) for d in ranks for q in _OUT_QS]
        specs = [lc.make_spec(family, d, Q) for d, Q in grid]
        got = (" ".join(str(lc.outdiag_order(spec)) for spec in specs),
               " ".join(str(lc.out_order(spec)) for spec in specs))
        assert got == OUT_PINS[family], family


def test_coxeter_numbers():
    assert lc.coxeter_number("A", 5) == 6
    assert lc.coxeter_number("B", 4) == 8
    assert lc.coxeter_number("C", 4) == 8
    assert lc.coxeter_number("D", 4) == 6
    assert lc.coxeter_number("G2") == 6
    assert lc.coxeter_number("F4") == 12
    assert lc.coxeter_number("E6") == 12
    assert lc.coxeter_number("E7") == 18
    assert lc.coxeter_number("E8") == 30
    for family in ("2A", "2D", "2B2", "2G2", "3D4", "2F4", "2E6"):
        with pytest.raises(NotAvailable):
            lc.coxeter_number(family, 3)


def test_universal_vs_simple_order(get_group):
    # |universal| = |simple| * |Outdiag|: the centre that group_order divides by
    cases = [("SL", "PSL", n, q, ("A", n - 1, q)) for n, q in [(2, 5), (2, 9), (3, 4)]]
    cases += [("SU", "PSU", 3, 2, ("2A", 2, 4)),
              ("Sp", "PSp", 4, 3, ("C", 2, 3)),
              ("Sp", "PSp", 4, 3, ("B", 2, 3))]
    for universal, simple, n, q, spec in cases:
        spec = lc.make_spec(*spec)
        full, quotient = get_group(universal, n, q), get_group(simple, n, q)
        assert lc.group_order(spec) == quotient.order, spec
        assert full.order == quotient.order * lc.outdiag_order(spec), spec


def test_out_order_vs_generic_aut(get_group):
    from ordspectra import oracle

    cases = [("PSL", 2, q, ("A", 1, q)) for q in (5, 7, 8, 9, 11, 13, 16)]
    cases.append(("PSp", 4, 2, ("C", 2, 2)))  # S6, whose graph automorphism is outer
    for kind, n, q, spec in cases:
        group = get_group(kind, n, q)
        aut = oracle.generic_aut_order(group)
        assert aut == group.order * lc.out_order(lc.make_spec(*spec))
