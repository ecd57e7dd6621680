"""Semisimple element-order sets via maximal tori.

Every semisimple element of a finite reductive group lies in a maximal
torus, and the maximal tori are classified by (signed) partitions of the
rank, with known cyclic-factor orders:

* GL_n(q):  partitions (n_1..n_k) of n, torus = product of C(q**n_i - 1);
* GU_n(q):  same partitions, factor orders q**n_i - (-1)**n_i;
* GO/Sp:    signed partitions (a_1.. | b_1..) of the rank, factors
            q**a_i - 1 and q**b_j + 1 (even dimension: the sign of the
            form is (-1)**(number of minus parts)).

Since each torus is abelian, its set of element orders is exactly the
divisor set of its exponent, so the group's semisimple order set is the
union of divisor sets over a transversal of torus classes.

For the *simple* groups the torus must be replaced by its image in the
simple quotient: the kernel of an explicit linear character
(determinant for SL/SU, the spinor character for the Omega groups)
modulo an explicit central element.  Its exponent has a closed form in
every family.  With k >= 3 cyclic blocks it is lcm(m_i): for A/2A, the
kernel contains e_i - (+-e_j) of order lcm(m_i, m_j), and a multiple of
it lies in the cyclic centre only if it is 0, since the centre's
generator is nonzero in a third coordinate.  With one or two blocks the
character and the centre cost a bounded factor (``_a_family_exponent``,
``_bcd_family_exponent``).  Both are gated by brute-force enumeration
and by oracle equality on every small group in the test grid.

So the exact order set only needs the tori with one or two blocks, O(d)
of them, and for the rest the *supports*: the sets of distinct (signed)
parts that repeated parts fill to a torus with at least three blocks.
Each distinct exponent contributes its divisors once.  The level-1
bound sums the divisor count of every torus instead: a support's count
is added once per torus that fills it.

Exceptional families sit behind a provider: the Suzuki family ships
natively, the others are looked up in ingested spectrum data.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from . import arith
from .errors import DataMissing, DomainError, NotAvailable
from .lie_catalog import EXCEPTIONAL_RANK, LieSpec


# ---------------------------------------------------------------------------
# order sets


@dataclass(frozen=True)
class OrderSet:
    """Sorted duplicate-free set of positive integers, closed under divisors."""

    values: tuple[int, ...]

    @staticmethod
    def from_iterable(values) -> "OrderSet":
        return OrderSet(tuple(sorted(set(values))))

    def __contains__(self, item: int) -> bool:
        i = bisect_left(self.values, item)
        return i < len(self.values) and self.values[i] == item

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# factored-integer helpers (exponents are kept factored so that divisor
# counts never require factoring a fresh huge integer)

Factored = dict[int, int]


def _fact_value(f: Factored) -> int:
    out = 1
    for p, k in f.items():
        out *= p**k
    return out


def _fact_lcm(a: Factored, b: Factored) -> Factored:
    out = dict(a)
    for p, k in b.items():
        if out.get(p, 0) < k:
            out[p] = k
    return out


def _fact_halve(f: Factored, times: int = 1) -> Factored:
    out = dict(f)
    v = out.get(2, 0)
    if v < times:
        raise DomainError("2-adic valuation too small to halve")
    if v == times:
        del out[2]
    else:
        out[2] = v - times
    return out


def _fact_divisors(f: Factored) -> Iterator[int]:
    divisors = [1]
    for p, k in f.items():
        powers = [p**e for e in range(1, k + 1)]
        divisors += [d * power for power in powers for d in divisors]
    return iter(divisors)


def _fact_tau(f: Factored) -> int:
    out = 1
    for k in f.values():
        out *= k + 1
    return out


def _fact_of_int_dividing(n: int, reference: Factored) -> Factored:
    """Factorization of n, given that n divides the value of ``reference``."""
    out: Factored = {}
    rest = n
    for p in reference:
        v = 0
        while rest % p == 0:
            rest //= p
            v += 1
        if v:
            out[p] = v
    if rest != 1:
        raise DomainError("value does not divide the reference factorization")
    return out


@lru_cache(maxsize=None)
def _factored_pm1(q: int, n: int, sign: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(arith.factored_qn_pm1(q, n, sign).items()))


def _m_factored(q: int, n: int, sign: int) -> Factored:
    return dict(_factored_pm1(q, n, sign))


# ---------------------------------------------------------------------------
# partition generators


def partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts descending; n = 0 yields the empty tuple."""
    if n == 0:
        yield ()
        return
    if largest is None or largest > n:
        largest = n
    for first in range(largest, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def signed_partitions(d: int, minus_parity: int | None = None
                      ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs (plus parts, minus parts) with total size d.

    ``minus_parity`` restricts the number of minus parts mod 2 (the sign
    constraint of the even-dimensional orthogonal groups).
    """
    for plus_total in range(d, -1, -1):
        for plus in partitions(plus_total):
            for minus in partitions(d - plus_total):
                if minus_parity is not None and len(minus) % 2 != minus_parity:
                    continue
                yield plus, minus


# ---------------------------------------------------------------------------
# ambient groups: GL / GU / GO


def semisimple_orders_gl(n: int, q: int) -> OrderSet:
    """Orders coprime to the characteristic in GL_n(q)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    out: set[int] = set()
    for lam in partitions(n):
        exp: Factored = {}
        for part in lam:
            exp = _fact_lcm(exp, _m_factored(q, part, -1))
        out.update(_fact_divisors(exp))
    return OrderSet.from_iterable(out)


def semisimple_orders_gu(n: int, q: int) -> OrderSet:
    """Orders coprime to the characteristic in GU_n(q)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    out: set[int] = set()
    for lam in partitions(n):
        exp: Factored = {}
        for part in lam:
            exp = _fact_lcm(exp, _m_factored(q, part, +1 if part % 2 else -1))
        out.update(_fact_divisors(exp))
    return OrderSet.from_iterable(out)


def semisimple_orders_go(n: int, q: int, sign: int | None = None) -> OrderSet:
    """Orders coprime to the characteristic in GO_n(q).

    Odd n: full orthogonal group, no sign.  Even n: ``sign`` selects the
    plus (+1) or minus (-1) form; a torus with m minus parts lies in the
    form of sign (-1)**m.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n % 2 == 1:
        d, parity = n // 2, None
        if n == 1:
            return OrderSet.from_iterable([1])
    else:
        if sign not in (-1, 1):
            raise DomainError("even-dimensional GO needs sign +1 or -1")
        d, parity = n // 2, (0 if sign == 1 else 1)
    out: set[int] = set()
    for plus, minus in signed_partitions(d, parity):
        exp: Factored = {}
        for a in plus:
            exp = _fact_lcm(exp, _m_factored(q, a, -1))
        for b in minus:
            exp = _fact_lcm(exp, _m_factored(q, b, +1))
        out.update(_fact_divisors(exp))
    return OrderSet.from_iterable(out)


# ---------------------------------------------------------------------------
# Smith normal form (small matrices, exact big integers)


def smith_diagonal(rows: list[list[int]], ncols: int) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of the lattice spanned by ``rows``
    inside Z**ncols.  Requires full column rank (finite quotient)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    divisors = []
    top = 0
    for col in range(ncols):
        # find a pivot: smallest nonzero |entry| in the remaining block
        pivot = None
        for i in range(top, nrows):
            for j in range(col, ncols):
                v = m[i][j]
                if v and (pivot is None or abs(v) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i0, j0 = pivot
            m[top], m[i0] = m[i0], m[top]
            for r in m:
                r[col], r[j0] = r[j0], r[col]
            # clear column
            dirty = False
            for i in range(nrows):
                if i != top and m[i][col]:
                    f = m[i][col] // m[top][col]
                    if f:
                        m[i] = [x - f * y for x, y in zip(m[i], m[top])]
                    if m[i][col]:
                        dirty = True
            # clear row (column operations)
            for j in range(col + 1, ncols):
                if m[top][j]:
                    f = m[top][j] // m[top][col]
                    if f:
                        for i in range(nrows):
                            m[i][j] -= f * m[i][col]
                    if m[top][j]:
                        dirty = True
            if not dirty:
                break
            pivot = None
            for i in range(top, nrows):
                for j in range(col, ncols):
                    v = m[i][j]
                    if v and (pivot is None or abs(v) < abs(m[pivot[0]][pivot[1]])):
                        pivot = (i, j)
        d = abs(m[top][col])
        divisors.append(d)
        top += 1
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            a, b = divisors[i], divisors[i + 1]
            if b % a:
                g = math.gcd(a, b)
                divisors[i], divisors[i + 1] = g, a * b // g
                changed = True
    return divisors


# ---------------------------------------------------------------------------
# torus exponents in the simple classical groups


def _a_sign(part: int, twisted: bool) -> int:
    """The sign s of the torus factor q**part + s in type A or 2A."""
    return 1 if twisted and part % 2 else -1


def _a_family_exponent(n: int, q: int, parts: tuple[int, ...], twisted: bool) -> int:
    """Exponent of the image in the simple group of the torus attached to
    ``parts`` (a partition of n = d + 1) for type A (twisted=False) or
    type 2A (twisted=True).

    Model: the ambient torus is the direct product of cyclic groups of
    orders m_i; in coherent coordinates the determinant character is
    sum(eps_i * x_i) mod r (r = q -/+ 1), where eps_i = 1 for type A and,
    in the twisted case, eps_i = +1 on odd parts and -1 on even parts
    (the norm of the even-part torus factor inverts the distinguished
    generator).  The central subgroup is generated by z = (c_1, ..., c_k)
    with c_i = m_i/w and w = gcd(n, r).  The exponent of kernel/<z> is:

    * lcm(m_i) when r = 1 (no character, trivial centre) or k >= 3 (see
      the module docstring);
    * m/(r*w) when k = 1: the kernel is cyclic of order m/r and <z> has
      order w;
    * when k = 2, the least E that is a multiple of lcm(c_1, c_2), say
      E = s*lcm(c_1, c_2) with 1 <= s <= w, and satisfies
      eps_1*E/c_1 + eps_2*E/c_2 = 0 (mod w).  The kernel is generated by
      (1, -eps_1*eps_2) and (0, r); E times the first lies in <z> exactly
      under that condition, and E times the second is then 0, since m_2/r
      divides c_2.
    """
    r = q + 1 if twisted else q - 1
    ms = [q**part + _a_sign(part, twisted) for part in parts]
    if r == 1 or len(ms) >= 3:
        return math.lcm(*ms)
    w = math.gcd(n, r)
    if len(ms) == 1:
        return ms[0] // (r * w)
    eps = [1 if not twisted or part % 2 else -1 for part in parts]
    c1, c2 = ms[0] // w, ms[1] // w
    base = math.lcm(c1, c2)
    return next(E for E in range(base, base * w + 1, base)
                if (eps[0] * (E // c1) + eps[1] * (E // c2)) % w == 0)


def _bcd_family_exponent(family: str, q: int,
                         plus: tuple[int, ...], minus: tuple[int, ...]) -> Factored:
    """Factored exponent of the simple-group image of the torus given by a
    signed partition, for families B, C, D, 2D.

    q even: the torus embeds in the simple group unchanged (trivial
    center, no spinor character), so the exponent is lcm(m_i).

    q odd: closed forms derived from the kernel-of-character /
    mod-central-element structure:

    * B (spinor kernel) and C (mod the central involution): lcm(m_i)
      when there are >= 2 cyclic blocks, m/2 for a single block.
    * D/2D: both reductions apply.  Whether the central relation
      survives into the spinor kernel depends on the parity P of the
      half-lattice shift, computable blockwise; with P odd the result
      matches B, with P even one extra factor of 2 (or 4 for a single
      block) can be lost, and for exactly two blocks sharing the maximal
      2-adic valuation the exponent is lcm/2.
    """
    ms = [_m_factored(q, a, -1) for a in plus] + [_m_factored(q, b, +1) for b in minus]
    k = len(ms)
    lcm: Factored = {}
    for m in ms:
        lcm = _fact_lcm(lcm, m)
    if q % 2 == 0:
        return lcm
    if family in ("B", "C"):
        return lcm if k >= 2 else _fact_halve(lcm)
    # D / 2D
    half_qm1 = (q - 1) // 2
    half_qp1 = (q + 1) // 2
    parity = 0
    for a in plus:
        parity ^= (a * half_qm1) & 1
    for b in minus:
        parity ^= (half_qp1 + (b - 1) * half_qm1) & 1
    if parity == 1:
        return lcm if k >= 2 else _fact_halve(lcm)
    if k == 1:
        return _fact_halve(lcm, 2)
    if k == 2 and ms[0].get(2, 0) == ms[1].get(2, 0):
        return _fact_halve(lcm)
    return lcm


#: parity of the number of minus parts of a torus (None: any)
_MINUS_PARITY = {"B": None, "C": None, "D": 0, "2D": 1}


def _simple_torus_exponents(spec: LieSpec) -> Iterator[Factored]:
    """Factored exponents of the simple-group torus images, one per class:
    the plain enumeration over all (signed) partitions, which the
    support-based ``semisimple_orders_simple`` and
    ``nr_semisimple_orders_bound`` are tested against."""
    family, d, q = spec.family, spec.d, spec.q
    if family in ("A", "2A"):
        n = d + 1
        twisted = family == "2A"
        ref: Factored = {}
        for i in range(1, n + 1):
            ref = _fact_lcm(ref, _m_factored(q, i, _a_sign(i, twisted)))
        for lam in partitions(n):
            exp = _a_family_exponent(n, q, lam, twisted)
            yield _fact_of_int_dividing(exp, ref)
        return
    if family in _MINUS_PARITY:
        for plus, minus in signed_partitions(d, _MINUS_PARITY[family]):
            yield _bcd_family_exponent(family, q, plus, minus)
        return
    raise DomainError(f"{family} is not a classical family")


def _torus_model(spec: LieSpec):
    """(exponents of the tori with one or two blocks, one per torus; the
    size d of the blocks; signs[a], the signs a block of part a can take;
    the parity of the number of +1 blocks, None for any) of a classical
    family.  A block (a, s) has the factor q**a + s."""
    family, d, q = spec.family, spec.d, spec.q
    if family in ("A", "2A"):
        n = d + 1
        twisted = family == "2A"
        few: list[Factored] = []
        for lam in [(n,)] + [(n - b, b) for b in range(1, n // 2 + 1)]:
            ref: Factored = {}
            for part in lam:
                ref = _fact_lcm(ref, _m_factored(q, part, _a_sign(part, twisted)))
            few.append(_fact_of_int_dividing(_a_family_exponent(n, q, lam, twisted), ref))
        return few, n, [(_a_sign(a, twisted),) for a in range(n + 1)], None
    if family in _MINUS_PARITY:
        parity = _MINUS_PARITY[family]
        shapes = [((d,), ()), ((), (d,))]
        shapes += [((d - b, b), ()) for b in range(1, d // 2 + 1)]
        shapes += [((), (d - b, b)) for b in range(1, d // 2 + 1)]
        shapes += [((d - b,), (b,)) for b in range(1, d)]
        few = [_bcd_family_exponent(family, q, plus, minus) for plus, minus in shapes
               if parity is None or len(minus) % 2 == parity]
        return few, d, [(-1, 1)] * (d + 1), parity
    raise DomainError(f"{family} is not a classical family")


def _supports(d: int, q: int, signs: list[tuple[int, ...]], parity: int | None
              ) -> Iterator[tuple[tuple[tuple[int, int], ...], int, int]]:
    """(support, rest, lcm) for every support of a torus of size d with at
    least three blocks: a set of distinct blocks (a, s), the size rest
    that extra copies of them must fill, and lcm(q**a + s).

    A support belongs to such a torus when extra copies of its blocks
    fill it up to exactly d, with >= 3 blocks in all and, unless
    ``parity`` is None, a number of +1 blocks of that parity.  The fill
    test is a bitset knapsack kept along the walk: bit t of ``fills[e]``
    says that extra copies summing to t exist with e = their number of +1
    blocks mod 2.
    """
    mask = (1 << (d + 1)) - 1
    factor = {(a, sign): q**a + sign for a in range(1, d + 1) for sign in signs[a]}

    def refill(fills, a, sign):
        even, odd = fills
        flips = parity is not None and sign == 1
        step = 2 * a if flips else a
        while step <= d:  # doubling: closed under every multiple of step
            even |= (even << step) & mask
            odd |= (odd << step) & mask
            step *= 2
        if flips:
            even, odd = even | (odd << a) & mask, odd | (even << a) & mask
        return even, odd

    # (rest, largest part still free, support, its number of +1 blocks,
    # fills, lcm)
    stack = [(d, d, (), 0, (1, 0), 1)]
    while stack:
        rest, top, support, minus, fills, lcm = stack.pop()
        blocks = len(support)
        if (blocks and fills[(parity - minus) % 2 if parity is not None else 0] >> rest & 1
                and (blocks >= 3 or (blocks == 2 and rest > 0)
                     or (blocks == 1 and rest >= 2 * support[0][0]))):
            yield support, rest, lcm
        for a in range(min(top, rest), 0, -1):
            for sign in signs[a]:
                stack.append((rest - a, a - 1, support + ((a, sign),), minus + (sign == 1),
                              refill(fills, a, sign), math.lcm(lcm, factor[a, sign])))
            if len(signs[a]) == 2 and 2 * a <= rest:
                stack.append((rest - 2 * a, a - 1, support + ((a, -1), (a, 1)), minus + 1,
                              refill(refill(fills, a, -1), a, 1),
                              math.lcm(lcm, factor[a, -1], factor[a, 1])))


def _nr_fillings(rest: int, support, parity: int | None) -> int:
    """Number of tori with exactly this support whose extra copies fill
    ``rest``: the same knapsack as in ``_supports``, counting."""
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


def _support_lcm(q: int, support) -> Factored:
    out: Factored = {}
    for a, sign in support:
        out = _fact_lcm(out, _m_factored(q, a, sign))
    return out


def semisimple_orders_simple(spec: LieSpec) -> OrderSet:
    """Set of semisimple element orders of the classical simple group:
    the divisors of each distinct torus exponent, taken once."""
    few, size, signs, parity = _torus_model(spec)
    exponents = {_fact_value(exp): exp for exp in few}
    for support, _, lcm in _supports(size, spec.q, signs, parity):
        if lcm not in exponents:
            exponents[lcm] = _support_lcm(spec.q, support)
    out: set[int] = set()
    for exp in exponents.values():
        out.update(_fact_divisors(exp))
    return OrderSet.from_iterable(out)


def nr_semisimple_orders(spec: LieSpec) -> int:
    """Exact count of semisimple element orders (quality level 2)."""
    if spec.family in EXCEPTIONAL_RANK:
        return len(exceptional_semisimple(spec))
    return len(semisimple_orders_simple(spec))


def nr_semisimple_orders_bound(spec: LieSpec) -> int:
    """Upper bound: per-torus divisor counts are summed instead of
    materializing the union (quality level 1).  The tori with one or two
    blocks are summed one by one; the others share the exponent of their
    support, which counts once per torus (``_nr_fillings``)."""
    if spec.family in EXCEPTIONAL_RANK:
        return len(exceptional_semisimple(spec))
    few, size, signs, parity = _torus_model(spec)
    total = sum(_fact_tau(exp) for exp in few)
    taus: dict[int, int] = {}
    for support, rest, lcm in _supports(size, spec.q, signs, parity):
        if lcm not in taus:
            taus[lcm] = _fact_tau(_support_lcm(spec.q, support))
        total += _nr_fillings(rest, support, parity) * taus[lcm]
    return total


# ---------------------------------------------------------------------------
# exceptional families: native Suzuki formulas plus an ingest provider


class SpectrumProvider:
    """Registry of exceptional full spectra keyed by (family, Q).

    For family E8 only the semisimple spectrum exists, so E8 records are
    interpreted as semisimple spectra.
    """

    def __init__(self) -> None:
        self._store: dict[tuple[str, int], OrderSet] = {}

    def add(self, family: str, Q: int, orders) -> None:
        self._store[(family, Q)] = OrderSet.from_iterable(orders)

    def get(self, family: str, Q: int) -> OrderSet | None:
        return self._store.get((family, Q))

    def loaded_families(self) -> set[str]:
        return {fam for fam, _ in self._store}


def suzuki_spectrum(Q: int) -> OrderSet:
    """Element orders of the Suzuki group at Q = 2**(2k+1): the divisors
    of 4, Q - 1, Q + r + 1 and Q - r + 1 where r = sqrt(2 Q)."""
    r = math.isqrt(2 * Q)
    if r * r != 2 * Q:
        raise DomainError("Q must be an odd power of 2")
    out: set[int] = set()
    for m in (4, Q - 1, Q + r + 1, Q - r + 1):
        out.update(_fact_divisors(dict(arith.factorize(m))))
    return OrderSet.from_iterable(out)


def exceptional_spectrum(spec: LieSpec, provider: SpectrumProvider | None = None) -> OrderSet:
    """Full element-order spectrum of an exceptional-family group."""
    family = spec.family
    if family not in EXCEPTIONAL_RANK:
        raise DomainError(f"{family} is not an exceptional family")
    if family == "E8":
        raise NotAvailable(
            "No full element-order spectrum is available for family E8."
        )
    if family == "2B2":
        return suzuki_spectrum(spec.Q)
    if provider is not None:
        got = provider.get(family, spec.Q)
        if got is not None:
            return got
    raise DataMissing(f"spectrum {family} {spec.Q}")


def exceptional_semisimple(spec: LieSpec, provider: SpectrumProvider | None = None) -> OrderSet:
    """Semisimple (prime-to-p) subset of the exceptional spectrum."""
    family = spec.family
    if family not in EXCEPTIONAL_RANK:
        raise DomainError(f"{family} is not an exceptional family")
    if family == "2B2":
        full = suzuki_spectrum(spec.Q)
        return OrderSet.from_iterable(v for v in full.values if v % 2 == 1)
    if family == "E8":
        if provider is not None:
            got = provider.get(family, spec.Q)
            if got is not None:
                return got
        raise DataMissing(f"spectrum E8 {spec.Q}")
    full = exceptional_spectrum(spec, provider)
    return OrderSet.from_iterable(v for v in full.values if v % spec.p != 0)
