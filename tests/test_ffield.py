"""The oracle's finite fields: every F(p**e) with p**e <= 128 is a field,
its modulus is the first monic irreducible in code order, and the fields
the tests and the benchmark build keep their modulus and generator."""

import pytest

from ordspectra import arith
from ordspectra.oracle.ffield import get_field, pow_elem

FIELDS = [arith.prime_power_split(q) for q in range(2, 129) if arith.prime_power_split(q)]


def _digits(code, p, e):
    return [code // p**i % p for i in range(e)]


@pytest.mark.parametrize("p, e", FIELDS, ids=[f"F{p**e}" for p, e in FIELDS])
def test_field_axioms(p, e):
    """O(q**2) checks that together give every axiom: the additive group
    is (Z/p)**e on the digits, the nonzero elements are the powers of the
    generator multiplied as exponents add (a cyclic group of order q - 1),
    and multiplication by the generator, hence by every power of it,
    distributes over addition."""
    F = get_field(p, e)
    q = F.q
    assert q == p**e
    for a in range(q):
        for b in range(q):
            assert _digits(F.add[a][b], p, e) == [
                (x + y) % p for x, y in zip(_digits(a, p, e), _digits(b, p, e))]
        assert F.add[a][F.neg[a]] == 0
        assert F.mul[0][a] == F.mul[a][0] == 0
    powers = [1]
    for _ in range(q - 2):
        powers.append(F.mul[powers[-1]][F.generator])
    assert sorted(powers) == list(range(1, q))  # the generator has order q - 1
    for i, a in enumerate(powers):
        assert F.mul[a][F.inv[a]] == 1
        for j, b in enumerate(powers):
            assert F.mul[a][b] == powers[(i + j) % (q - 1)]
    g = F.mul[F.generator]
    for b in range(q):
        for c in range(q):
            assert g[F.add[b][c]] == F.add[g[b]][g[c]]


@pytest.mark.parametrize("p, e", FIELDS, ids=[f"F{p**e}" for p, e in FIELDS])
def test_codes_are_polynomials_in_x_mod_the_modulus(p, e):
    F = get_field(p, e)
    assert len(F.modulus) == e + 1 and F.modulus[-1] == 1
    if e > 1:  # x is the code p; for e = 1 the modulus is x itself
        assert [pow_elem(F, p, i) for i in range(e)] == [p**i for i in range(e)]
        value = 0  # the modulus at x, by Horner's rule
        for c in reversed(F.modulus):
            value = F.add[F.mul[value][p]][c]
        assert value == 0


@pytest.mark.parametrize("p, e", FIELDS, ids=[f"F{p**e}" for p, e in FIELDS])
def test_modulus_is_the_first_monic_irreducible(p, e):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def irreducible(low):
        return sympy.Poly([1] + _digits(low, p, e)[::-1], x, modulus=p).is_irreducible

    low = sum(c * p**i for i, c in enumerate(get_field(p, e).modulus[:-1]))
    assert irreducible(low)
    assert not any(irreducible(earlier) for earlier in range(low))


@pytest.mark.parametrize("p, e", FIELDS, ids=[f"F{p**e}" for p, e in FIELDS])
def test_frobenius_and_unitary_conjugation(p, e):
    F = get_field(p, e)
    for a in range(F.q):
        power = 1
        for _ in range(p):
            power = F.mul[power][a]
        assert F.frob[a] == power
        if e % 2 == 0:
            assert F.conj(a, e // 2) == pow_elem(F, a, p ** (e // 2))
            assert F.conj(F.conj(a, e // 2), e // 2) == a


# (q, modulus, generator) of every field the tests and the benchmark
# workloads build; these two values fix every table of the field
PINNED = [
    (2, [0, 1], 1), (3, [0, 1], 2), (5, [0, 1], 2), (7, [0, 1], 3),
    (11, [0, 1], 2), (13, [0, 1], 2), (17, [0, 1], 3), (19, [0, 1], 2),
    (4, [1, 1, 1], 2), (8, [1, 1, 0, 1], 2), (9, [1, 0, 1], 4),
    (16, [1, 1, 0, 0, 1], 2),
]


@pytest.mark.parametrize("q, modulus, generator", PINNED)
def test_pinned_modulus_and_generator(q, modulus, generator):
    F = get_field(*arith.prime_power_split(q))
    assert (F.modulus, F.generator) == (modulus, generator)
