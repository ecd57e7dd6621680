import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordspectra import lie_catalog as lc
from ordspectra import torus_spectra as ts
from ordspectra.errors import CapacityError, DataMissing, DomainError, NotAvailable


def test_gl_examples():
    assert ts.semisimple_orders_gl(2, 2).values == (1, 3)
    assert ts.semisimple_orders_gl(1, 5).values == (1, 2, 4)
    assert ts.semisimple_orders_gl(3, 2).values == (1, 3, 7)


def test_gu_examples():
    assert ts.semisimple_orders_gu(2, 2).values == (1, 3)
    assert ts.semisimple_orders_gu(1, 5).values == (1, 2, 3, 6)
    assert ts.semisimple_orders_gu(3, 2).values == (1, 3, 9)


@pytest.mark.parametrize("q", [6, 1, 0, -3])
def test_ambient_orders_need_a_prime_power(q):
    for orders in (lambda: ts.semisimple_orders_gl(2, q), lambda: ts.semisimple_orders_gu(2, q),
                   lambda: ts.semisimple_orders_go(3, q), lambda: ts.semisimple_orders_go(4, q, 1)):
        with pytest.raises(DomainError, match="not a prime power"):
            orders()


def test_go_examples():
    assert ts.semisimple_orders_go(3, 3).values == (1, 2, 4)
    assert ts.semisimple_orders_go(2, 5, +1).values == (1, 2, 4)
    assert ts.semisimple_orders_go(2, 3, -1).values == (1, 2, 4)
    assert ts.semisimple_orders_go(4, 3, -1).values == (1, 2, 4, 5, 10)
    for q in (2, 3, 4):
        assert ts.semisimple_orders_go(1, q).values == (1,)


def reference_ambient_orders(family, d, q):
    """The ambient order set one torus at a time: the divisors of
    lcm(q**a + s) over every torus of the family at rank d."""
    size, signs, parity = ts._block_model(family, d)
    out = set()
    for torus, _ in ts._tori(size, q, signs, parity):
        out.update(ts._fact_divisors(ts._support_lcm(q, torus)))
    return tuple(sorted(out))


@pytest.mark.parametrize("family", ["A", "2A", "B", "D", "2D"])
def test_ambient_orders_match_per_torus_reference(family):
    """GL/GU/GO read only the tori the merge lemma keeps, and give the
    order set of every torus."""
    ambient = {
        "A": lambda d, q: ts.semisimple_orders_gl(d + 1, q),
        "2A": lambda d, q: ts.semisimple_orders_gu(d + 1, q),
        "B": lambda d, q: ts.semisimple_orders_go(2 * d + 1, q),
        "D": lambda d, q: ts.semisimple_orders_go(2 * d, q, +1),
        "2D": lambda d, q: ts.semisimple_orders_go(2 * d, q, -1),
    }[family]
    for q in (2, 3, 4, 5, 7, 8, 9):
        for d in range(1 if family in ("D", "2D") else 0, 16):
            assert ambient(d, q).values == reference_ambient_orders(family, d, q), (family, d, q)


def model_tori(family, d):
    size, signs, parity = ts._block_model(family, d)
    return (torus for torus, _ in ts._tori(size, 2, signs, parity))


#: A000041, the partition numbers p(0..12)
PARTITION_NUMBERS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)


def test_torus_counts():
    """A/2A tori are partitions of n; B/C tori are pairs of partitions
    (A000712), which the parity of the number of +1 blocks splits into
    D and 2D."""
    def tori(family, n):
        d = n - 1 if family in ("A", "2A") else n
        found = list(model_tori(family, d))
        assert len(set(found)) == len(found), (family, n)
        for torus in found:
            assert sum(a for a, _ in torus) == n, (family, torus)
            assert list(torus) == sorted(torus, key=lambda block: -block[0])
        return len(found)

    d_counts, twisted_d_counts = [], []
    for n in range(13):
        pairs = sum(PARTITION_NUMBERS[k] * PARTITION_NUMBERS[n - k] for k in range(n + 1))
        assert tori("A", n) == tori("2A", n) == PARTITION_NUMBERS[n]
        assert tori("B", n) == tori("C", n) == pairs
        d_counts.append(tori("D", n))
        twisted_d_counts.append(tori("2D", n))
        assert d_counts[-1] + twisted_d_counts[-1] == pairs
    assert d_counts[:11] == [1, 1, 3, 5, 11, 18, 34, 55, 95, 150, 244]
    assert twisted_d_counts[:11] == [0, 1, 2, 5, 9, 18, 31, 55, 90, 150, 237]


def test_simple_spectra_known_values():
    cases = {
        ("A", 1, 5): (1, 2, 3),
        ("A", 1, 7): (1, 2, 3, 4),
        ("A", 2, 4): (1, 3, 5, 7),       # PSL3(4)
        ("A", 3, 3): (1, 2, 4, 5, 8, 10, 13, 20),  # PSL4(3)
        ("2A", 2, 9): (1, 2, 4, 7, 8),   # PSU3(3)
        ("2A", 3, 4): (1, 3, 5, 9),      # PSU4(2)
        ("2A", 3, 9): (1, 2, 4, 5, 7, 8),  # PSU4(3)
        ("B", 2, 3): (1, 2, 4, 5),
        ("C", 2, 3): (1, 2, 4, 5),
        ("D", 3, 2): (1, 3, 5, 7, 15),   # PSL4(2)
        ("D", 3, 3): (1, 2, 4, 5, 8, 10, 13, 20),  # PSL4(3) again as D3
        ("2D", 3, 9): (1, 2, 4, 5, 7, 8),
        ("2D", 2, 4): (1, 3, 5),         # PSL2(4)
    }
    for (family, d, Q), expected in cases.items():
        spec = lc.make_spec(family, d, Q)
        assert ts.semisimple_orders_simple(spec).values == expected, (family, d, Q)


def test_b_equals_c_spectra():
    for d, q in product((1, 2, 3, 4), (2, 3, 4, 5, 7)):
        b = ts.semisimple_orders_simple(lc.make_spec("B", d, q))
        c = ts.semisimple_orders_simple(lc.make_spec("C", d, q))
        assert b.values == c.values, (d, q)


def divisor_closed(values):
    value_set = set(values)
    return all(d in value_set for v in values for d in range(1, v + 1) if v % d == 0)


GRID_SPECS = [
    ("A", 1, 5), ("A", 1, 8), ("A", 2, 4), ("A", 3, 3),
    ("2A", 2, 9), ("2A", 3, 4), ("B", 2, 3), ("B", 3, 2),
    ("C", 2, 5), ("D", 3, 2), ("D", 4, 3), ("2D", 3, 9), ("2D", 4, 4),
]


def test_divisor_closure_and_characteristic():
    for family, d, Q in GRID_SPECS:
        spec = lc.make_spec(family, d, Q)
        orders = ts.semisimple_orders_simple(spec)
        assert 1 in orders.values
        assert divisor_closed(orders.values), (family, d, Q)
        assert all(v % spec.p != 0 for v in orders.values), (family, d, Q)


def test_containment_in_ambient():
    for family, d, Q in GRID_SPECS:
        spec = lc.make_spec(family, d, Q)
        simple = set(ts.semisimple_orders_simple(spec).values)
        q = spec.q
        if family == "A":
            ambient = set(ts.semisimple_orders_gl(d + 1, q).values)
        elif family == "2A":
            ambient = set(ts.semisimple_orders_gu(d + 1, q).values)
        elif family in ("B", "C"):
            ambient = set(ts.semisimple_orders_go(2 * d + 1, q).values)
        else:
            sign = 1 if family == "D" else -1
            ambient = set(ts.semisimple_orders_go(2 * d, q, sign).values)
        assert simple <= ambient, (family, d, Q)


def test_level_one_dominates_level_two():
    for family, d, Q in GRID_SPECS:
        spec = lc.make_spec(family, d, Q)
        assert ts.nr_semisimple_orders_bound(spec) >= ts.nr_semisimple_orders(spec)


def test_count_examples():
    assert ts.nr_semisimple_orders(lc.make_spec("A", 1, 5)) == 3
    assert ts.nr_semisimple_orders(lc.make_spec("A", 1, 7)) == 4
    assert ts.nr_semisimple_orders_bound(lc.make_spec("A", 1, 5)) == 4
    assert ts.nr_semisimple_orders_bound(lc.make_spec("A", 1, 7)) == 5


# ---------------------------------------------------------------------------
# independent brute-force check of the simple-torus exponents


def brute_quotient_exponent(ms, char_mod, center, eps=None):
    """Exponent of {x in prod C_m : sum(eps_i * x_i) = 0 mod char_mod} /
    <center>, eps_i = 1 unless given, by enumerating every element (small
    cases only).  The order of x is the least t with t*x in <center>: t
    divides the order o of x in the product, and o divides |<center>|*t,
    so t = o/j for the largest j with (o/j)*x in <center>."""
    total = math.prod(ms)
    assert total <= 400_000
    eps = eps or [1] * len(ms)
    center_subgroup = set()
    z = tuple(0 for _ in ms)
    while True:
        center_subgroup.add(z)
        z = tuple((a + b) % m for a, b, m in zip(z, center, ms))
        if z == tuple(0 for _ in ms):
            break
    exponent = 1
    for combo in product(*[range(m) for m in ms]):
        if sum(e * x for e, x in zip(eps, combo)) % char_mod:
            continue
        o = math.lcm(*(m // math.gcd(x, m) for x, m in zip(combo, ms)))
        order = next(o // j for j in range(len(center_subgroup), 0, -1) if o % j == 0
                     and tuple(o // j * x % m for x, m in zip(combo, ms)) in center_subgroup)
        exponent = math.lcm(exponent, order)
    return exponent


def test_a_family_exponents_against_enumeration():
    for n, q in [(2, 5), (2, 7), (3, 4), (3, 3), (4, 2), (4, 3)]:
        r = q - 1
        w = math.gcd(n, r)
        for torus in model_tori("A", n - 1):
            ms = [q**a - 1 for a, _ in torus]
            if math.prod(ms) > 400_000:
                continue
            center = tuple(m // w for m in ms)
            expected = brute_quotient_exponent(ms, r, center)
            assert ts._fact_value(ts._torus_exponent("A", q, torus)) == expected, (n, q, torus)


def test_2a_family_exponents_against_enumeration():
    for n, q in [(2, 3), (3, 3), (3, 2), (4, 2), (4, 3)]:
        r = q + 1
        w = math.gcd(n, r)
        for torus in model_tori("2A", n - 1):
            ms = [q**a - (-1) ** a for a, _ in torus]
            eps = [1 if a % 2 else -1 for a, _ in torus]
            if math.prod(ms) > 400_000:
                continue
            center = tuple(m // w for m in ms)
            expected = brute_quotient_exponent(ms, r, center, eps)
            assert ts._fact_value(ts._torus_exponent("2A", q, torus)) == expected, (n, q, torus)


def brute_bcd_exponent(family, q, plus, minus):
    """Independent evaluation of the B/C/D/2D torus-image exponent by
    enumerating the kernel-of-character mod central-element group."""
    ms = [q**a - 1 for a in plus] + [q**b + 1 for b in minus]
    if q % 2 == 0:
        return math.lcm(*ms) if ms else 1
    if family == "C":
        center = tuple(m // 2 for m in ms)
        return brute_quotient_exponent(ms, 1, center)
    if family == "B":
        return brute_quotient_exponent(ms, 2, tuple(0 for _ in ms))
    # D / 2D: spinor kernel, modulo -1 only when -1 lies in it, that is
    # when the half-lattice shift has even coordinate sum: a blockwise
    # parity, independent of the gcd with m_i/2 that _torus_cut takes
    half_qm1 = (q - 1) // 2
    half_qp1 = (q + 1) // 2
    parity = 0
    for a in plus:
        parity ^= (a * half_qm1) & 1
    for b in minus:
        parity ^= (half_qp1 + (b - 1) * half_qm1) & 1
    if parity == 1:
        return brute_quotient_exponent(ms, 2, tuple(0 for _ in ms))
    return brute_quotient_exponent(ms, 2, tuple(m // 2 for m in ms))


def test_bcd_exponents_against_enumeration():
    for family, d_range, qs in [
        ("B", (1, 2, 3), (2, 3, 5, 7, 9)),
        ("C", (1, 2, 3), (3, 5, 7, 9)),
        ("D", (2, 3, 4), (2, 3, 5, 7, 9)),
        ("2D", (2, 3, 4), (3, 5, 7, 9)),
    ]:
        for d in d_range:
            for q in qs:
                for torus in model_tori(family, d):
                    plus = [a for a, s in torus if s == -1]
                    minus = [b for b, s in torus if s == 1]
                    ms = [q**a - 1 for a in plus] + [q**b + 1 for b in minus]
                    if math.prod(ms) > 400_000 or not ms:
                        continue
                    got = ts._fact_value(ts._torus_exponent(family, q, torus))
                    want = brute_bcd_exponent(family, q, plus, minus)
                    assert got == want, (family, d, q, torus)


def test_go_formulas_match_oracle(get_group):
    from ordspectra import oracle

    cases = [
        (("GO", 3, 3), lambda: ts.semisimple_orders_go(3, 3)),
        (("GOplus", 4, 3), lambda: ts.semisimple_orders_go(4, 3, +1)),
        (("GOminus", 4, 3), lambda: ts.semisimple_orders_go(4, 3, -1)),
        (("GU", 2, 2), lambda: ts.semisimple_orders_gu(2, 2)),
        (("GU", 3, 2), lambda: ts.semisimple_orders_gu(3, 2)),
        (("GL", 3, 2), lambda: ts.semisimple_orders_gl(3, 2)),
        (("GL", 2, 3), lambda: ts.semisimple_orders_gl(2, 3)),
    ]
    for (kind, n, q), formula in cases:
        group = get_group(kind, n, q)
        p = group.meta["field"].p
        expected = oracle.semisimple_orders(group, p)
        assert formula().values == expected.values, (kind, n, q)


#: (family, d, Q) and the oracle group of that simple type, for odd q
#: where the spinor character or the central -1 changes an exponent
ODD_Q_ORACLE_GRID = [
    ("2D", 2, 9, ("POmegaminus", 4, 3)),
    ("2D", 2, 25, ("POmegaminus", 4, 5)),
    ("D", 2, 3, ("POmegaplus", 4, 3)),
    ("D", 2, 5, ("POmegaplus", 4, 5)),
    ("B", 1, 3, ("Omega", 3, 3)),
    ("B", 1, 5, ("Omega", 3, 5)),
    ("B", 2, 3, ("Omega", 5, 3)),
    *[("C", 1, q, ("PSp", 2, q)) for q in (5, 7, 9, 11, 13)],
    ("C", 2, 3, ("PSp", 4, 3)),
]


def test_odd_q_exponents_match_oracle(get_group):
    from ordspectra import oracle

    for family, d, Q, (kind, n, q) in ODD_Q_ORACLE_GRID:
        spec = lc.make_spec(family, d, Q)
        expected = oracle.semisimple_orders(get_group(kind, n, q), spec.p)
        assert ts.semisimple_orders_simple(spec).values == expected.values, (family, d, Q)


def test_suzuki_spectrum():
    assert ts.suzuki_spectrum(8).values == (1, 2, 4, 5, 7, 13)
    spec = lc.make_spec("2B2", Q=8)
    assert ts.exceptional_semisimple(spec).values == (1, 5, 7, 13)
    assert ts.suzuki_spectrum(32).values == (1, 2, 4, 5, 25, 31, 41)
    spec32 = lc.make_spec("2B2", Q=32)
    assert ts.exceptional_semisimple(spec32).values == (1, 5, 25, 31, 41)
    for k in range(1, 7):
        Q = 2 ** (2 * k + 1)
        r = 2 ** (k + 1)
        want = {v for m in (4, Q - 1, Q + r + 1, Q - r + 1)
                for v in range(1, m + 1) if m % v == 0}
        assert ts.suzuki_spectrum(Q).values == tuple(sorted(want)), Q


def test_e8_spectrum_not_available():
    spec = lc.make_spec("E8", Q=2)
    with pytest.raises(NotAvailable):
        ts.exceptional_spectrum(spec)


def test_exceptional_provider():
    provider = ts.SpectrumProvider()
    spec = lc.make_spec("G2", Q=4)
    with pytest.raises(DataMissing):
        ts.exceptional_spectrum(spec, provider)
    provider.add("G2", 4, [1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 15, 21])
    full = ts.exceptional_spectrum(spec, provider)
    assert 21 in full.values
    semisimple = ts.exceptional_semisimple(spec, provider)
    assert all(v % 2 == 1 for v in semisimple.values)


def test_smith_diagonal_simple_cases():
    from ordspectra.torus_spectra import smith_diagonal

    assert smith_diagonal([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_diagonal([[4, 0], [0, 6]], 2) == [2, 12]
    assert smith_diagonal([[1, 0], [0, 1], [5, 7]], 2) == [1, 1]


def test_order_set_contains():
    orders = ts.OrderSet.from_iterable([12, 1, 6, 2, 4, 3])
    assert all(v in orders for v in (1, 2, 3, 4, 6, 12))
    assert all(v not in orders for v in (0, 5, 7, 8, 11, 13, 24, 10**30))
    assert 1 not in ts.OrderSet(())


# ---------------------------------------------------------------------------
# the closed-form A/2A exponent and the distinct-support union


def smith_lattice_exponent(n, q, parts, twisted):
    """Exponent of kernel(det)/<z> for the A/2A torus of ``parts``: the
    largest elementary divisor of its relation lattice, in the basis
    v_i = e_i - e_{i+1} (i < k), v_k = r*e_k of the kernel."""
    from ordspectra.torus_spectra import smith_diagonal

    r = q + 1 if twisted else q - 1
    ms = [q**part + (1 if twisted and part % 2 else -1) for part in parts]
    if r == 1:
        return math.lcm(*ms)
    eps = [1 if not twisted or part % 2 else -1 for part in parts]
    k, w = len(parts), math.gcd(n, r)
    # e_i has coordinates (0..0, 1 at i..k-1, 1/r at k)
    rows = [[m if i <= j < k - 1 else 0 for j in range(k - 1)] + [m // r]
            for i, m in enumerate(ms)]
    prefixes = [sum(e * (m // w) for e, m in zip(eps[:j + 1], ms[:j + 1]))
                for j in range(k - 1)]
    total = sum(e * (m // w) for e, m in zip(eps, ms))
    assert total % r == 0
    rows.append(prefixes + [total // r])
    divisors = smith_diagonal(rows, k)
    assert math.prod(divisors) * r * w == math.prod(ms)
    return divisors[-1]


def test_a_family_exponent_matches_smith_form():
    nontrivial_centre = 0
    for q in (2, 3, 4, 5, 7, 9):
        for n in range(1, 15):
            for twisted in (False, True):
                w = math.gcd(n, q + 1 if twisted else q - 1)
                for torus in model_tori("2A" if twisted else "A", n - 1):
                    want = smith_lattice_exponent(n, q, [a for a, _ in torus], twisted)
                    family = "2A" if twisted else "A"
                    got = ts._fact_value(ts._torus_exponent(family, q, torus))
                    assert got == want, (n, q, torus, twisted)
                    nontrivial_centre += w > 1
    assert nontrivial_centre > 1000


def twisted_q(family, q):
    return q * q if family in ("2A", "2D") else q


@pytest.mark.parametrize("family", ["A", "2A", "B", "C", "D", "2D"])
def test_supports_match_per_torus_enumeration(family):
    """The merge-free union and the level-1 forward sum equal the union
    and the sum over every torus."""
    for q in (2, 3):
        Q = twisted_q(family, q)
        for d in range(2 if family in ("D", "2D") else 1, 16):
            spec = lc.make_spec(family, d, Q)
            union, total = set(), 0
            for exponent in ts._simple_torus_exponents(spec):
                union.update(ts._fact_divisors(exponent))
                total += ts._fact_tau(exponent)
            assert ts.semisimple_orders_simple(spec).values == tuple(sorted(union)), (family, d, Q)
            assert ts.nr_semisimple_orders_bound(spec) == total, (family, d, Q)


def supports(d, q, signs, parity):
    """(support, count, lcm) for every support of a torus of size d with
    at least three blocks: a set of distinct blocks (a, s), the number of
    tori with exactly these blocks, and lcm(q**a + s).  The reference
    walk for the level-1 bound, which sums tau(lcm) once per torus.

    A torus has this support when extra copies of its blocks fill it up
    to exactly d, with >= 3 blocks in all and, unless ``parity`` is None,
    a number of +1 blocks of that parity.  The walk carries a knapsack:
    ``fills`` is a pair of polynomials packed into ints, whose slot t
    (bits t*width on) counts the multisets of extra copies summing to t
    whose number of +1 blocks has (first) or lacks (second) the parity
    still asked for.  A node keeps only the slots up to its rest, the
    most any node below it reads, so its count is its top slot.

    Slot width.  A slot t <= d counts some multisets of blocks (a, s) of
    total size t, as does every partial sum on the way, so it holds at
    most A000712(t), the partitions of t into parts of two kinds.
    A000712(t) <= 1.25*2**t, with equality at t = 2: checked up to
    t = 20, and past it A000712(t)*0.6**t <= prod (1 - 0.6**k)**-2 < 48.9
    (``test_slot_width_bound``).  So a slot stays below 2**(d + 1), and
    ``width`` = d + 2 bits never carry into the next slot.
    """
    width = d + 2
    masks = [(1 << (rest + 1) * width) - 1 for rest in range(d + 1)]

    def refill(fills, a, flips, rest):
        # fills times 1/(1 - x**step) = prod (1 + x**(step*2**k)), cut to the
        # slots 0..rest; a +1 block under a parity adds its odd copies and
        # swaps the pair, since it flips the parity the others must have
        mask = masks[rest]
        want, other = fills[0] & mask, fills[1] & mask
        step = 2 * a if flips else a
        while step <= rest:
            shift = step * width
            want += (want << shift) & mask
            other += (other << shift) & mask
            step *= 2
        if flips:
            shift = a * width
            return other + ((want << shift) & mask), want + ((other << shift) & mask)
        return want, other

    # per size a: (blocks, flips, factor) of each sign, then of both signs
    grow = [[(((a, sign),), parity is not None and sign == 1, q**a + sign) for sign in signs[a]]
            for a in range(d + 1)]
    pairs = [(((a, -1), (a, 1)), parity is not None, math.lcm(q**a - 1, q**a + 1))
             if len(signs[a]) == 2 else None for a in range(d + 1)]
    # (rest, largest block size still free, support, fills, lcm)
    stack = [(d, d, (), (0, 1) if parity else (1, 0), 1)]
    while stack:
        rest, top, support, fills, lcm = stack.pop()
        blocks = len(support)
        if blocks >= 3 or (blocks == 2 and rest > 0) or (blocks == 1 and rest >= 2 * support[0][0]):
            count = fills[0] >> rest * width
            if count:
                yield support, count, lcm
        for a in range(top if top < rest else rest, 0, -1):
            left = rest - a
            plain = refill(fills, a, False, left)
            for block, flips, m in grow[a]:
                stack.append((left, a - 1, support + block,
                              refill(fills, a, True, left) if flips else plain, math.lcm(lcm, m)))
            if a <= left and pairs[a]:
                block, flips, m = pairs[a]
                stack.append((left - a, a - 1, support + block, refill(plain, a, flips, left - a),
                              math.lcm(lcm, m)))


def support_walk_union(spec):
    """The order set as the union over the one- and two-block tori and
    every support of ``supports``, each distinct exponent taken once."""
    size, signs, parity = ts._block_model(spec.family, spec.d)
    exponents = {}
    for torus, _ in ts._tori(size, spec.q, signs, parity, most=2):
        exponent = ts._torus_exponent(spec.family, spec.q, torus)
        exponents[ts._fact_value(exponent)] = exponent
    for support, _, lcm in supports(size, spec.q, signs, parity):
        if lcm not in exponents:
            exponents[lcm] = ts._support_lcm(spec.q, support)
    union = set()
    for exponent in exponents.values():
        union.update(ts._fact_divisors(exponent))
    return union


@pytest.mark.parametrize("family", ["A", "2A", "B", "C", "D", "2D"])
def test_bound_matches_support_walk(family):
    """The level-1 bound is the sum of tau(exponent) over the tori with
    one or two blocks plus count * tau(lcm) over the supports."""
    for q in (2, 3, 4, 5):
        Q = twisted_q(family, q)
        for d in range(2 if family in ("D", "2D") else 1, 17):
            spec = lc.make_spec(family, d, Q)
            size, signs, parity = ts._block_model(family, d)
            total = sum(ts._fact_tau(ts._torus_exponent(family, spec.q, torus))
                        for torus, _ in ts._tori(size, spec.q, signs, parity, most=2))
            for support, count, _ in supports(size, spec.q, signs, parity):
                total += count * ts._fact_tau(ts._support_lcm(spec.q, support))
            assert ts.nr_semisimple_orders_bound(spec) == total, (family, d, Q)


def test_tau_lcm_sum_refuses_exponents_past_a_byte():
    """An exponent that a byte cannot hold raises a typed error naming
    the prime and the exponent; one that fits is summed."""
    kinds = [(2, -1, {3: 256}), (1, -1, {2: 1})]
    with pytest.raises(CapacityError, match="exponent 256 of the prime 3"):
        ts._tau_lcm_sums(2, kinds)
    # tori (2) and (1, 1): tau(3**255) + tau(2)
    kinds[0] = (2, -1, {3: 255})
    assert sum(ts._tau_lcm_sums(2, kinds)[2]) == 256 + 2


@pytest.mark.parametrize("family", ["A", "2A", "B"])
def test_tau_lcm_sums_match_per_torus_sums(family):
    """Entry u of one pass of the A, 2A or B/C/D/2D model is the sum of
    tau(lcm) over the tori of total u, split by the parity of the number
    of +1 blocks."""
    size = 12
    _, signs, _ = ts._block_model(family, size)
    for q in (2, 3, 4, 5):
        kinds = [(a, s, dict(ts._factored_pm1(q, a, s)))
                 for a in range(size, 0, -1) for s in signs[a]]
        sums = ts._tau_lcm_sums(size, kinds)
        assert len(sums) == size + 1
        for u in range(size + 1):
            want = [0, 0]
            for torus, _ in ts._tori(u, q, signs, None):
                want[sum(s == 1 for _, s in torus) % 2] += ts._fact_tau(ts._support_lcm(q, torus))
            assert sums[u] == tuple(want), (family, q, u)


def test_level_one_pass_is_shared(level_one_passes):
    """One cached pass serves B_d(q), C_d(q), D_d(q), 2D_d(q**2) and every
    lower rank, and each bound is the per-torus sum whatever the cache
    held before it."""
    want = {}
    for d in range(2, 7):
        for family in ("B", "C", "D", "2D"):
            spec = lc.make_spec(family, d, twisted_q(family, 3))
            want[spec] = sum(map(ts._fact_tau, ts._simple_torus_exponents(spec)))
    highest_first = sorted(want, key=lambda spec: -spec.d)
    assert [ts.nr_semisimple_orders_bound(spec) for spec in highest_first] == \
        [want[spec] for spec in highest_first]
    assert level_one_passes == [6]
    assert {key: len(sums) - 1 for key, sums in ts._level_one_sums.items()} == {("B/C/D/2D", 3): 6}
    # lowest rank first: each larger rank runs the pass again
    ts._level_one_sums.clear()
    level_one_passes.clear()
    assert [ts.nr_semisimple_orders_bound(spec) for spec in reversed(highest_first)] == \
        [want[spec] for spec in reversed(highest_first)]
    assert level_one_passes == [2, 3, 4, 5, 6]
    for spec, bound in want.items():
        ts._level_one_sums.clear()
        assert ts.nr_semisimple_orders_bound(spec) == bound


def test_level_one_pins_from_the_top_rank_down(level_one_passes):
    """Replayed from rank 40 down, the pinned bounds take one pass per
    block model and q: the rank-40 pass serves ranks 30-39."""
    for d in range(40, 29, -1):
        for (family, Q), bounds in LEVEL_ONE_BOUNDS.items():
            spec = lc.make_spec(family, d, Q)
            assert ts.nr_semisimple_orders_bound(spec) == bounds[d], (family, d, Q)
    # B/3, C/3 and 2D/9 share the model and q = 3; D/2 has q = 2
    assert level_one_passes == [40, 40]
    assert {key: len(sums) - 1 for key, sums in ts._level_one_sums.items()} == \
        {("B/C/D/2D", 3): 40, ("B/C/D/2D", 2): 40}


def test_b_equals_c_level_one():
    """B_d(q) and C_d(q) share the pass and the one- and two-block exponents."""
    for q in (2, 3, 4, 5):
        for d in range(1, 17):
            b = ts.nr_semisimple_orders_bound(lc.make_spec("B", d, q))
            assert ts.nr_semisimple_orders_bound(lc.make_spec("C", d, q)) == b, (d, q)


@pytest.mark.parametrize("family", ["A", "2A", "B", "C", "D", "2D"])
def test_union_matches_support_walk(family):
    for q in (2, 3, 4, 5, 7, 8, 9):
        Q = twisted_q(family, q)
        for d in range(2 if family in ("D", "2D") else 1, 17):
            spec = lc.make_spec(family, d, Q)
            want = support_walk_union(spec)
            assert ts.nr_semisimple_orders(spec) == len(want), (family, d, Q)
            assert ts.semisimple_orders_simple(spec).values == tuple(sorted(want)), (family, d, Q)


def nr_fillings(rest, support, parity):
    """Number of tori with exactly this support whose extra copies fill
    ``rest``: a counting knapsack rebuilt for one support, the reference
    for the counts that ``supports`` carries along its walk."""
    want = 0 if parity is None else (parity - sum(s == 1 for _, s in support)) % 2
    even, odd = [1] + [0] * rest, [0] * (rest + 1)
    for a, sign in support:
        flips = parity is not None and sign == 1
        for t in range(a, rest + 1):
            if flips:
                even[t], odd[t] = even[t] + odd[t - a], odd[t] + even[t - a]
            else:
                even[t] += even[t - a]
                odd[t] += odd[t - a]
    return (odd if want else even)[rest]


@pytest.mark.parametrize("family", ["A", "2A", "B", "C", "D", "2D"])
def test_support_counts_match_knapsack(family):
    """``supports`` yields each support once: the set of distinct blocks
    of each torus with at least three blocks, with the number of such
    tori (equal to the knapsack's count) and the lcm of its factors."""
    for d in range(2 if family in ("D", "2D") else 1, 15):
        size, signs, parity = ts._block_model(family, d)
        want = Counter(tuple(sorted(set(torus), key=lambda b: (-b[0], b[1])))
                       for torus in model_tori(family, d) if len(torus) >= 3)
        for support, count in want.items():
            rest = size - sum(a for a, _ in support)
            assert nr_fillings(rest, support, parity) == count, (family, d, support)
        for q in (2, 3, 4):
            got = {}
            for support, count, lcm in supports(size, q, signs, parity):
                assert support not in got, (family, d, support)
                assert lcm == math.lcm(*(q**a + s for a, s in support)), (family, d, q, support)
                got[support] = count
            assert got == want, (family, d, q)


@pytest.mark.parametrize("family", ["A", "2A", "B", "C", "D", "2D"])
def test_pruned_walks_match_full_walk(family):
    """``_tori`` cut to at most k blocks, or to pairwise distinct blocks,
    yields exactly the tori of the full walk that qualify, each once and
    with the lcm of its factors."""
    cuts = {"full": {}, "most=2": {"most": 2}, "most=3": {"most": 3},
            "distinct": {"distinct": True}}
    for d in range(2 if family in ("D", "2D") else 1, 13):
        size, signs, parity = ts._block_model(family, d)
        for q in (2, 3, 4):
            got = {}
            for name, cut in cuts.items():
                tori = got[name] = set()
                for torus, lcm in ts._tori(size, q, signs, parity, **cut):
                    assert torus not in tori, (family, d, q, name, torus)
                    assert lcm == math.lcm(*(q**a + s for a, s in torus)), (family, d, q, torus)
                    tori.add(torus)
            full = got["full"]
            assert got["most=2"] == {torus for torus in full if len(torus) <= 2}, (family, d, q)
            assert got["most=3"] == {torus for torus in full if len(torus) <= 3}, (family, d, q)
            assert got["distinct"] == {torus for torus in full
                                       if len(set(torus)) == len(torus)}, (family, d, q)


def test_slot_width_bound():
    """A000712(t) <= 1.25 * 2**t, the bound that sizes the slots of
    ``supports``: checked for t <= 200, tight at t = 2, and implied past
    t = 20 by the generating function at x = 0.6."""
    top = 200
    pairs = [1] + [0] * top
    for part in range(1, top + 1):
        for _ in range(2):
            for t in range(part, top + 1):
                pairs[t] += pairs[t - part]
    assert pairs[:11] == [1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481]
    assert all(4 * pairs[t] <= 5 * 2**t for t in range(top + 1))
    assert 4 * pairs[2] == 5 * 2**2
    assert math.prod((1 - 0.6**k) ** -2 for k in range(1, top)) < 48.9
    assert 48.9 * 0.6**-21 <= 1.25 * 2**21


#: level-1 bounds past the survey's pinned ranks: 28-32 as computed by
#: the per-support knapsack that preceded the counting walk, 33-40 by the
#: counting walk (``supports``), which shares no code with the forward
#: program
BC_3 = {28: 27_784_743, 29: 41_181_201, 30: 60_705_827, 31: 89_007_440, 32: 129_853_235,
        33: 188_514_386, 34: 272_420_587, 35: 391_890_612, 36: 561_364_846,
        37: 800_768_592, 38: 1_137_776_532, 39: 1_610_349_548, 40: 2_270_833_512}
LEVEL_ONE_BOUNDS = {
    ("B", 3): BC_3,
    ("C", 3): BC_3,
    ("D", 2): {30: 8_663_187, 31: 12_433_945, 32: 17_761_736, 33: 25_252_804,
               34: 35_746_688, 35: 50_382_336, 36: 70_723_590, 37: 98_880_000,
               38: 137_727_608, 39: 191_126_870, 40: 264_301_003},
    ("2D", 9): {30: 30_351_604, 31: 44_504_322, 32: 64_926_609, 33: 94_258_359,
                34: 136_209_802, 35: 195_947_494, 36: 280_681_902, 37: 400_388_122,
                38: 568_889_690, 39: 805_181_786, 40: 1_135_417_142},
}


def test_level_one_bound_past_survey_pins():
    for (family, Q), bounds in LEVEL_ONE_BOUNDS.items():
        for d, bound in bounds.items():
            spec = lc.make_spec(family, d, Q)
            assert ts.nr_semisimple_orders_bound(spec) == bound, (family, d, Q)


def test_merge_lemma():
    """Two equal blocks (a, s) of a torus with at least four blocks merge
    into one block (2a, -1): a torus of the same model whose exponent is
    a multiple of the original's."""
    merged_tori = 0
    for family, q in product(["A", "2A", "B", "C", "D", "2D"], (2, 3, 4, 5, 9)):
        for d in range(2 if family in ("D", "2D") else 1, 13):
            spec = lc.make_spec(family, d, twisted_q(family, q))
            tori = set(model_tori(family, d))
            for torus in tori:
                if len(torus) < 4:
                    continue
                exponent = ts._fact_value(ts._torus_exponent(family, spec.q, torus))
                for a, s in set(torus):
                    if torus.count((a, s)) < 2:
                        continue
                    rest = list(torus)
                    rest.remove((a, s))
                    rest.remove((a, s))
                    merged = tuple(sorted(rest + [(2 * a, -1)], key=lambda b: (-b[0], b[1])))
                    assert merged in tori, (family, d, torus)
                    merged_exponent = ts._fact_value(ts._torus_exponent(family, spec.q, merged))
                    assert merged_exponent % exponent == 0, (family, d, q, torus)
                    merged_tori += 1
    assert merged_tori > 50_000


@st.composite
def factored_exponents(draw):
    """Factored integers over ten primes, with repeats, and with equal
    values written with and without zero exponents.  The dense lattice
    holds at most as many positions as there are integers, so some
    primes are dense and the others key the rare-part bitmaps."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    exponents = draw(st.lists(st.dictionaries(
        st.sampled_from(primes), st.integers(0, 3), max_size=5), max_size=30))
    repeats = draw(st.lists(st.sampled_from(exponents), max_size=5)) if exponents else []
    padded = [{**f, p: 0} for f in exponents[:3] for p in primes if p not in f][:5]
    return draw(st.permutations(exponents + [dict(f) for f in repeats] + padded))


@given(factored_exponents())
@settings(max_examples=200, deadline=None)
def test_divisor_union(exponents):
    """The union is counted and listed exactly: each divisor once."""
    want = {d for f in exponents for d in ts._fact_divisors(f)}
    union = ts._DivisorUnion(exponents)
    listed = list(union)
    assert len(union) == len(listed) == len(want)
    assert set(listed) == want


def test_counts_match_pinned_frontier():
    """Every count pinned for the benchmark's frontier ladders."""
    import json
    from pathlib import Path

    pinned = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    with open(pinned, encoding="utf-8") as handle:
        frontier = json.load(handle)["frontier"]
    checked = 0
    for name, entry in frontier.items():
        family, Q = name.split("/")
        for d, count in entry["counts"].items():
            spec = lc.make_spec(family, int(d), int(Q))
            assert ts.nr_semisimple_orders(spec) == count, (name, d)
            checked += 1
    assert checked == 328


#: exact counts at ranks past the frontier pins, as computed by the
#: divisor-set union that preceded the bitmaps (the divisors of the
#: maximal exponents gathered into one Python set), which shares no
#: union code with them
EXACT_COUNTS = {
    ("B", 3): {28: 73_763, 32: 207_499},
    ("C", 3): {29: 95_591, 31: 161_121},
    ("2D", 9): {28: 66_787, 32: 189_540},
    ("D", 2): {31: 21_678, 35: 51_493},
    ("A", 4): {36: 609_427, 40: 1_593_219},
}


def test_counts_past_frontier_pins():
    for (family, Q), counts in EXACT_COUNTS.items():
        for d, count in counts.items():
            assert ts.nr_semisimple_orders(lc.make_spec(family, d, Q)) == count, (family, d, Q)
