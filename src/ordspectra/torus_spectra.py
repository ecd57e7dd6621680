"""Semisimple element-order sets via maximal tori.

Every semisimple element of a finite reductive group lies in a maximal
torus.  A class of maximal tori is a multiset of blocks (a, s), with
sizes a summing to the size of the group and a sign s = +1 or -1; its
torus is the direct product of the cyclic groups C(q**a + s).  One
block model (``_block_model``) says, per family, which signs a block
may take and how many +1 blocks a torus may have:

* A (GL_n, n = d + 1): one sign per block, s = -1;
* 2A (GU_n, n = d + 1): one sign per block, s = -(-1)**a;
* B/C (GO_{2d+1}, Sp_{2d}): sizes sum to d, either sign, any number of
  +1 blocks;
* D/2D (GO+/-_{2d}): as B/C, with an even number of +1 blocks for D
  (the plus form) and an odd number for 2D (the minus form).

The order sets of the ambient GL/GU/GO and of the simple groups (one
union path, ``_order_union``), the per-torus reference enumeration
(``_simple_torus_exponents``) and the level-1 bound all read this
model.  ``_tori`` is the one walk that lists tori: each once, with the
lcm of its factors, optionally pruned to at most a given number of
blocks or to pairwise distinct blocks.

Since each torus is abelian, its set of element orders is exactly the
divisor set of its exponent, so the group's semisimple order set is the
union of divisor sets over the torus classes.

For the *simple* groups the torus must be replaced by its image in the
simple quotient: the kernel of a linear character (the determinant for
SL/SU, the spinor norm for the Omega groups) modulo a central element.
One rule gives its exponent in all six families (``_torus_exponent``):
a per-family table names the character's modulus and weights and the
centre's order, and the exponent is lcm(m_i) cut by a factor
(``_torus_cut``) that is 1 from three blocks on, the character's modulus
times the part of the centre inside the kernel for one block, and one
gcd for two.  Brute-force enumeration, Smith
normal forms and oracle equality on every small group in the test grid
gate it.

So the exact order set only needs a few tori (``_order_union``, for the
simple groups and the ambients alike, whose exponent is the lcm at every
block count).  Merging two equal blocks (a, s) of a torus with at least
four blocks into one block (2a, -1) gives a torus of the same model
whose exponent is a multiple, so the tori with at most three blocks,
O(d**2) of them, and the tori of at least four pairwise distinct blocks
carry every exponent: two pruned walks of ``_tori`` list them.  The
union of the divisor sets of their distinct exponents is recorded
exactly, without listing it (``_DivisorUnion``): the primes that divide
the most exponents span a small lattice of bit positions, and every
divisor of the rest of an exponent, its rare part, keys one bitmap over
that lattice, the OR of the divisor boxes of the exponents it divides.
The count is the sum of the bitmaps' popcounts, and the listed order set
expands the same bitmaps.  A dominated exponent costs one OR.  Which
primes are dense changes only the speed, never the union.  The level-1
bound sums the divisor count of every torus instead, without listing
the tori: a forward dynamic program over the block kinds
(``_tau_lcm_sums``) sums tau(lcm), merging the partial tori that agree
on the size still to fill and on the lcm's exponents at the primes a
later kind can still raise.  It returns the pair (even, odd), the sums
over the tori with an even and an odd number of +1 blocks, for every
total size up to the model's: every +1 kind flips the pair, which only
moves a torus from one sum to the other, so even + odd is the sum over
every torus, and a partial torus that no later kind fits is a finished
torus of a smaller total.  D reads the even half, 2D the odd half and
A, 2A, B and C the sum, so one pass per block model and q, kept per
process at the largest size asked for (``_level_one_pass``), serves
B_d(q), C_d(q), D_d(q) and 2D_d(q**2) at every rank up to its size.
The tori with one or two blocks (``_tori`` cut to two blocks) then
trade tau(lcm) for the divisor count of their simple-group exponent,
per family, where the cut is not 1.

Exceptional families sit behind a provider: the Suzuki family ships
natively, the others are looked up in ingested spectrum data.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, compress
from typing import Iterator

from . import arith
from .errors import CapacityError, DataMissing, DomainError, NotAvailable
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


def _fact_divide(f: Factored, n: int) -> Factored:
    """The factored quotient of the value of f by n, which must divide it."""
    if n == 1:
        return f
    out = dict(f)
    for p in f:
        while n % p == 0:
            n //= p
            out[p] -= 1
    if n != 1 or min(out.values(), default=0) < 0:
        raise DomainError("the divisor does not divide the factored value")
    return {p: k for p, k in out.items() if k}


@lru_cache(maxsize=None)
def _factored_pm1(q: int, n: int, sign: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(arith.factored_qn_pm1(q, n, sign).items()))


# ---------------------------------------------------------------------------
# the torus model


def _block_model(family: str, d: int) -> tuple[int, tuple[tuple[int, ...], ...], int | None]:
    """(size, signs, parity): the model of the tori of a classical family
    at rank d.  Block sizes sum to ``size``, ``signs[a]`` are the signs a
    block of size a can take, and the number of +1 blocks has ``parity``
    mod 2 (None: any)."""
    if family in ("A", "2A"):
        twisted = family == "2A"
        return d + 1, tuple((1 if twisted and a % 2 else -1,) for a in range(d + 2)), None
    if family in ("B", "C", "D", "2D"):
        return d, ((-1, 1),) * (d + 1), {"D": 0, "2D": 1}.get(family)
    raise DomainError(f"{family} is not a classical family")


def _tori(size: int, q: int, signs: tuple[tuple[int, ...], ...], parity: int | None,
          most: int | None = None, distinct: bool = False
          ) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """(torus, lcm(q**a + s) over its blocks (a, s)) for every torus of the
    model once, the torus as its tuple of blocks in descending size; size
    0 yields the empty torus.  ``most`` bounds the number of blocks and
    ``distinct`` takes each block at most once; both prune the walk
    instead of filtering it.  The lcm is carried down, one ``math.lcm``
    per node."""
    blocks = [(a, s, q**a + s) for a in range(size, 0, -1) for s in signs[a]]
    # room[i]: the total size of blocks[i:], the most distinct blocks from i on fill
    room = list(accumulate((a for a, _, _ in reversed(blocks)), initial=0))[::-1]
    # (rest, first block still free, torus, number of +1 blocks, lcm)
    stack = [(size, 0, (), 0, 1)]
    while stack:
        rest, start, torus, plus, lcm = stack.pop()
        if rest == 0:
            if parity is None or plus % 2 == parity:
                yield torus, lcm
            continue
        left = None if most is None else most - len(torus)
        for i in range(start, len(blocks)):
            a, s, m = blocks[i]
            if (left is not None and a * left < rest) or (distinct and room[i] < rest):
                break
            if a <= rest:
                stack.append((rest - a, i + distinct, torus + ((a, s),), plus + (s == 1),
                              math.lcm(lcm, m)))


def _support_lcm(q: int, blocks) -> Factored:
    """Factored lcm(q**a + s) over the blocks (a, s)."""
    out: Factored = {}
    for a, sign in blocks:
        for p, k in _factored_pm1(q, a, sign):
            if out.get(p, 0) < k:
                out[p] = k
    return out


# ---------------------------------------------------------------------------
# ambient groups: GL / GU / GO


def _ambient_orders(family: str, d: int, q: int) -> OrderSet:
    """The orders coprime to the characteristic in the ambient group of
    the family at rank d: the divisors of lcm(q**a + s) over its tori,
    which ``_order_union`` reads from the tori the merge lemma keeps."""
    if arith.prime_power_split(q) is None:
        raise DomainError(f"q = {q} is not a prime power")
    return _order_union(family, d, q, partial(_support_lcm, q)).orders()


def semisimple_orders_gl(n: int, q: int) -> OrderSet:
    """Orders coprime to the characteristic in GL_n(q)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return _ambient_orders("A", n - 1, q)


def semisimple_orders_gu(n: int, q: int) -> OrderSet:
    """Orders coprime to the characteristic in GU_n(q)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return _ambient_orders("2A", n - 1, q)


def semisimple_orders_go(n: int, q: int, sign: int | None = None) -> OrderSet:
    """Orders coprime to the characteristic in GO_n(q).

    Odd n: full orthogonal group, no sign.  Even n: ``sign`` selects the
    plus (+1) or minus (-1) form; a torus with m blocks q**a + 1 lies in
    the form of sign (-1)**m.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n % 2 == 1:
        return _ambient_orders("B", n // 2, q)
    if sign not in (-1, 1):
        raise DomainError("even-dimensional GO needs sign +1 or -1")
    return _ambient_orders("D" if sign == 1 else "2D", n // 2, q)


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


def _torus_cut(family: str, q: int, torus) -> int:
    """The factor that cuts lcm(m_i) down to the exponent of the image of
    a torus in the simple group (``_torus_exponent``).

    The torus is the product of the cyclic groups C(m_i), m_i = q**a_i +
    s_i, over its k blocks (a_i, s_i) of total size n.  Its image is
    K/(K & <z>): K is the kernel of chi = sum(eps_i * x_i) mod r, and z =
    (m_i/w), of order w, is central.  The table (q odd for B, C, D and
    2D; with q even they have r = w = 1):

    * A: the determinant, r = q - 1, eps_i = 1; w = gcd(n, q - 1);
    * 2A: the determinant, r = q + 1, eps_i = s_i (the norm of an
      even-block factor inverts its generator); w = gcd(n, q + 1);
    * B: the spinor norm, r = 2, eps_i = 1; w = 1;
    * C: no character, r = 1; z = -1, w = 2;
    * D, 2D: the spinor norm, r = 2, eps_i = 1; z = -1, w = 2.

    From k = 3 on, cut = 1: K holds e_i - eps_i*eps_j*e_j, of order
    lcm(m_i, m_j), and a multiple of it lies in <z> only if it is 0,
    since t*z is 0 in a third coordinate l only when w | t (m_l/w has
    order w).  For k = 1, cut = r*gcd(w, m_1/r): K is the subgroup of
    order m_1/r of the cyclic C(m_1), <z> its subgroup of order w, and
    they meet in the subgroup of order gcd(w, m_1/r).  In A, 2A, B and C
    that gcd is w (in A, m_1/r = 1 + q + ... + q**(n-1) is n mod q - 1,
    and so in 2A with -q), while in D and 2D it is 1 exactly when -1 is
    outside the spinor kernel, m_1/2 odd.  For k = 2, K is generated by
    g = (1, -eps_1*eps_2) and h = (0, r), as x - x_1*g is a multiple of h
    for x in K.  The exponent E is the least that sends g and h into <z>
    (E*g and E*h lie in K, so into K & <z>).  E divides lcm(m_1, m_2) and
    w*E*g = 0, so E is the least lcm(m_1, m_2)/e, over e | w, that does.
    A pair y lies in <z> exactly when c_i = m_i/w divides y_i for both i
    and y_1/c_1 = y_2/c_2 mod w.  With E/c_i = (w/e)*L_i, L_i = lcm(m_1,
    m_2)/m_i, that asks e | L_1 + eps_1*eps_2*L_2 and e | r*L_2, so cut =
    gcd(w, L_1 + eps_1*eps_2*L_2, r*L_2), which is 1 when w = 1: then the
    exponent is lcm(m_1, m_2), the order of g."""
    k = len(torus)
    if k >= 3:
        return 1
    # the table: the character's modulus r, the centre's order w
    if family in ("A", "2A"):
        r = q - 1 if family == "A" else q + 1
        w = math.gcd(sum(a for a, _ in torus), r)
    elif q % 2 == 0:
        r = w = 1
    else:
        r, w = {"B": (2, 1), "C": (1, 2)}.get(family, (2, 2))
    if k == 1:
        (a, s), = torus
        return r * math.gcd(w, (q**a + s) // r)
    m1, m2 = (q**a + s for a, s in torus)
    # eps_1*eps_2: the blocks' signs in 2A, 1 elsewhere
    sign = torus[0][1] * torus[1][1] if family == "2A" else 1
    g = math.gcd(m1, m2)
    return math.gcd(w, m2 // g + sign * m1 // g, r * m1 // g)


def _torus_exponent(family: str, q: int, torus) -> Factored:
    """Factored exponent of the image of a torus in the simple group:
    lcm(m_i) over its blocks, cut by ``_torus_cut``."""
    return _fact_divide(_support_lcm(q, torus), _torus_cut(family, q, torus))


def _simple_torus_exponents(spec: LieSpec) -> Iterator[Factored]:
    """Factored exponents of the simple-group torus images, one per class:
    the plain enumeration over every torus, which the pruned
    ``semisimple_orders_simple`` and the forward
    ``nr_semisimple_orders_bound`` are tested against."""
    size, signs, parity = _block_model(spec.family, spec.d)
    for torus, _ in _tori(size, spec.q, signs, parity):
        yield _torus_exponent(spec.family, spec.q, torus)


#: k -> k + 1, the factor of a prime with exponent k in a divisor count
_plus_one = (1).__add__


def _tau_lcm_sums(size: int, kinds: list[tuple[int, int, Factored]]) -> list[tuple[int, int]]:
    """[(even, odd)] for every total u = 0..size: the sums of tau(lcm)
    over the tori of size u with an even and with an odd number of +1
    blocks, tau(lcm) being the divisor count of the lcm of their
    factors.  ``kinds`` lists the blocks in descending size, each as (a,
    s, factored q**a + s); a torus takes j >= 0 copies of each kind.
    Every +1 kind flips the pair: a flip only moves a torus from one sum
    to the other, so even + odd is the sum over every torus whichever
    kinds flip.

    A forward dynamic program over the kinds.  A state is a prefix of
    the kinds with its multiplicities fixed, reduced to (rest, the
    exponents of its lcm on the live primes), with a weight pair (even,
    odd): the settled-tau-weighted number of such prefixes whose number
    of +1 blocks is even or odd.  Taking j >= 1 copies of a kind raises
    the exponents once, to their max with the kind's, and a +1 kind
    swaps the pair for odd j.

    Why states merge.  tau(lcm) = prod_p (1 + max v_p) over the blocks.
    A prime is live at kind k when some kind from k on divides by it;
    the others are settled, since no later block can raise their
    exponent.  So tau of a finished torus is the product of its settled
    part, fixed by the prefix, and its live part, fixed by the live
    exponents and the completion.  Two prefixes that reach the same kind
    with equal rest and equal live exponents have the same completions,
    with the same live part and the same parity change for each, so
    their settled-tau weighted counts add.  The primes are ordered by
    the last kind that divides them, descending: the live primes are
    then a prefix, the live exponents a slice, and settling multiplies
    the weight by prod (k + 1) over the cut suffix.

    A state is filed under the next kind that fits its rest,
    max(i + 1, first[rest]): the kinds between are larger than the rest
    and leave it alone.  A state that no later kind fits, its rest 0
    among them, is finished: it adds to the sums of total size - rest.

    Why one pass gives every total.  Each multiset of kinds with total
    u <= size is exactly one path through the states, and that path
    ends where no later kind fits, with rest size - u.  A torus of size
    u only takes kinds of size at most u, and within a block model the
    signs a block size takes do not depend on the model's size (A: -1;
    2A: -(-1)**a; B/C/D/2D: both), so the entry for u is the pass that
    the model at size u alone would make.  Exponents are bytes, so one
    above 255 raises ``CapacityError``."""
    last: dict[int, int] = {}
    for i, (_, _, f) in enumerate(kinds):
        for p, k in f.items():
            if k:
                last[p] = i
    primes = sorted(last, key=lambda p: (-last[p], p))
    where = {p: j for j, p in enumerate(primes)}
    # live[i]: the primes some kind from i on divides by, a prefix of primes
    live = [sum(last[p] >= i for p in primes) for i in range(len(kinds) + 1)]
    raise_by = []
    for i, (_, _, f) in enumerate(kinds):
        vector = [0] * live[i]
        for p, k in f.items():
            if k > 255:
                raise CapacityError(f"exponent {k} of the prime {p} exceeds 255, the most "
                                    "the level-1 bound stores", needed=k)
            if k:
                vector[where[p]] = k
        raise_by.append(bytes(vector))
    # first[rest]: the first kind of size at most rest
    sizes = [-a for a, _, _ in kinds]
    first = [bisect_left(sizes, -rest) for rest in range(size + 1)]
    # filed[i]: {(rest, live exponents): [even, odd]} of the states kind i comes to next
    filed: list[dict[tuple[int, bytes], list[int]]] = [{} for _ in kinds]
    filed[0][size, bytes(live[0])] = [1, 0]
    # done[u]: [even, odd] of the finished tori of total u
    done = [[0, 0] for _ in range(size + 1)]
    for i, (a, s, _) in enumerate(kinds):
        for (rest, exponents), (even, odd) in filed[i].items():
            raised = bytes(map(max, exponents, raise_by[i]))
            for j in range(rest // a + 1):
                left, vector = rest - j * a, raised if j else exponents
                e, o = (odd, even) if s == 1 and j % 2 else (even, odd)
                k = max(i + 1, first[left])
                if k == len(kinds):
                    tau = math.prod(map(_plus_one, vector))
                    sums = done[size - left]
                    sums[0] += e * tau
                    sums[1] += o * tau
                    continue
                cut = live[k]
                if len(vector) > cut:
                    settled = math.prod(map(_plus_one, vector[cut:]))
                    vector, e, o = vector[:cut], e * settled, o * settled
                weight = filed[k].setdefault((left, vector), [0, 0])
                weight[0] += e
                weight[1] += o
        filed[i] = {}
    return [(even, odd) for even, odd in done]


#: (block model, q) -> ``_tau_lcm_sums`` of the model at q, up to the
#: largest size asked for so far in this process
_level_one_sums: dict[tuple[str, int], list[tuple[int, int]]] = {}

#: the block models, named by the signs a block of size 1 takes
_MODEL_OF_SIGNS = {(-1,): "A", (1,): "2A", (-1, 1): "B/C/D/2D"}


def _level_one_pass(size: int, signs: tuple[tuple[int, ...], ...], q: int) -> tuple[int, int]:
    """The level-1 pair of a block model at ``size`` and q.  One pass per
    model and q serves every size up to its own: B_d(q), C_d(q), D_d(q)
    and 2D_d(q**2) share the model and q, each reading its half of the
    pair or the sum, and so does every lower rank.  A larger size runs
    the pass again and replaces the entry."""
    key = _MODEL_OF_SIGNS[signs[1]], q
    sums = _level_one_sums.get(key, [])
    if len(sums) <= size:
        kinds = [(a, s, dict(_factored_pm1(q, a, s))) for a in range(size, 0, -1) for s in signs[a]]
        sums = _level_one_sums[key] = _tau_lcm_sums(size, kinds)
    return sums[size]


class _DivisorUnion:
    """The union of the divisor sets of some factored integers, counted
    (``len``) or listed (iteration) without building it as a set.

    Dense lattice.  The primes that divide the most integers are
    dense: taken in that order while the product of their (largest
    exponent + 1) stays at most the number of integers, they span a
    mixed-radix lattice, whose position sum(e_i * stride_i) stands for
    prod p_i**e_i (``lattice`` lists these values).  Bit j of the mask
    ``at_most[p][e]``, for e below the largest exponent top of p, says
    that the p-coordinate of position j is at most e; it repeats one run
    of stride * (e + 1) ones every stride * (top + 1) bits, so it is that
    run times a repunit.  The AND of one mask per dense prime is the box
    of the dense divisors of an integer.

    Rare primes.  Every other prime is rare.  A positive n divides E
    exactly when the rare part of n divides the rare part of E and the
    dense part of n divides the dense part of E.  So ``boxes`` maps each
    divisor r of a rare part to the OR of the boxes of the integers whose
    rare part r divides, and n = r * m is in the union exactly when the
    bit of m is set in ``boxes[r]``.  Each divisor is one (r, m) pair and
    each pair one divisor, so the union has sum(bits.bit_count())
    elements: the bitmaps record it exactly, and which primes are dense
    changes only the speed (the more dense, the fewer rare keys, but the
    longer each bitmap)."""

    def __init__(self, integers: list[Factored]) -> None:
        divides: Counter[int] = Counter()
        top: Factored = {}
        for f in integers:
            for p, k in f.items():
                if k:
                    divides[p] += 1
                    top[p] = max(top.get(p, 0), k)
        self.lattice = [1]
        strides = []
        for p in sorted(divides, key=lambda p: (-divides[p], p)):
            if len(self.lattice) * (top[p] + 1) > len(integers):
                break
            strides.append((p, len(self.lattice)))
            self.lattice = [v * p**e for e in range(top[p] + 1) for v in self.lattice]
        full = (1 << len(self.lattice)) - 1
        at_most: dict[int, list[int]] = {}
        for p, stride in strides:
            repunit = full // ((1 << stride * (top[p] + 1)) - 1)
            at_most[p] = [((1 << stride * (e + 1)) - 1) * repunit for e in range(top[p])]
        # integers that share a rare part share its keys: OR their boxes first
        by_rare: dict[int, tuple[Factored, int]] = {}
        for f in integers:
            bits = full
            for p, masks in at_most.items():
                k = f.get(p, 0)
                if k < len(masks):
                    bits &= masks[k]
            rare = {p: k for p, k in f.items() if p not in at_most}
            value = _fact_value(rare)
            if value in by_rare:
                bits |= by_rare[value][1]
            by_rare[value] = rare, bits
        self.boxes: dict[int, int] = {}
        for rare, bits in by_rare.values():
            for r in _fact_divisors(rare):
                self.boxes[r] = self.boxes.get(r, 0) | bits

    def __len__(self) -> int:
        return sum(bits.bit_count() for bits in self.boxes.values())

    def __iter__(self) -> Iterator[int]:
        for r, bits in self.boxes.items():
            # bin(bits)[:1:-1] spells bit j at index j, the lattice position j
            for m in compress(self.lattice, map("1".__eq__, bin(bits)[:1:-1])):
                yield r * m

    def orders(self) -> OrderSet:
        return OrderSet(tuple(sorted(self)))


def _order_union(family: str, d: int, q: int, exponent) -> _DivisorUnion:
    """The element orders of the tori of a classical family at rank d:
    the union of the divisor sets of the distinct exponents of (i) the
    tori with at most three blocks and (ii) the tori of at least four
    pairwise distinct blocks.  These carry every exponent: each exponent
    of another torus divides the exponent of one of them.  ``exponent``
    gives the factored exponent of a torus with one or two blocks; from
    three blocks on the exponent is the lcm the walk carries, in the
    simple groups (module docstring) and in the ambients, where it is
    the lcm at every block count.

    Merge lemma.  Let T have k >= 4 blocks, one of them (a, s) at least
    twice, and let T' replace two copies of (a, s) by one block (2a, -1).
    T' is a torus of the same model: (2a, -1) is a block of every family
    (A has only the sign -1, and 2A gives even sizes the sign -1), the
    sizes still sum to the model size, and the number of +1 blocks drops
    by 0 or 2, so its parity is kept.  T and T' have k and k - 1 >= 3
    blocks, so both exponents are lcms, and since q**a + s divides
    q**(2a) - 1, exp(T) divides exp(T').  Each merge removes one block,
    so merging until no block repeats or only three blocks are left ends
    at a torus of kind (i) or (ii)."""
    size, signs, parity = _block_model(family, d)
    exponents: dict[int, Factored] = {}
    for torus, lcm in _tori(size, q, signs, parity, most=3):
        if len(torus) < 3:
            f = exponent(torus)
            exponents[_fact_value(f)] = f
        elif lcm not in exponents:
            exponents[lcm] = _support_lcm(q, torus)
    for torus, lcm in _tori(size, q, signs, parity, distinct=True):
        if len(torus) >= 4 and lcm not in exponents:
            exponents[lcm] = _support_lcm(q, torus)
    return _DivisorUnion(list(exponents.values()))


def _simple_order_union(spec: LieSpec) -> _DivisorUnion:
    return _order_union(spec.family, spec.d, spec.q, partial(_torus_exponent, spec.family, spec.q))


def semisimple_orders_simple(spec: LieSpec) -> OrderSet:
    """Set of semisimple element orders of the classical simple group."""
    return _simple_order_union(spec).orders()


def nr_semisimple_orders(spec: LieSpec) -> int:
    """Exact count of semisimple element orders (quality level 2): the
    popcount of the divisor union of the torus exponents that
    ``_order_union`` keeps (``_DivisorUnion``), which records
    the union exactly without listing it, so the count is the size of the
    order set."""
    if spec.family in EXCEPTIONAL_RANK:
        return len(exceptional_semisimple(spec))
    return len(_simple_order_union(spec))


def nr_semisimple_orders_bound(spec: LieSpec) -> int:
    """Upper bound: per-torus divisor counts are summed instead of
    materializing the union (quality level 1).  ``_level_one_pass`` sums
    tau(lcm) over every torus without listing them, split by the parity
    of the number of +1 blocks, and the family reads its half or the
    total; the lcm is the simple-group exponent from three blocks on, so
    each torus with one or two blocks whose cut is not 1 then trades
    tau(lcm) for tau(its exponent)."""
    if spec.family in EXCEPTIONAL_RANK:
        return len(exceptional_semisimple(spec))
    size, signs, parity = _block_model(spec.family, spec.d)
    q = spec.q
    pair = _level_one_pass(size, signs, q)
    total = sum(pair) if parity is None else pair[parity]
    for torus, _ in _tori(size, q, signs, parity, most=2):
        cut = _torus_cut(spec.family, q, torus)
        if cut > 1:
            lcm = _support_lcm(q, torus)
            total += _fact_tau(_fact_divide(lcm, cut)) - _fact_tau(lcm)
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


def suzuki_spectrum(Q: int) -> OrderSet:
    """Element orders of the Suzuki group at Q = 2**(2k+1): the divisors
    of 4, Q - 1, Q + r + 1 and Q - r + 1 where r = sqrt(2 Q)."""
    r = math.isqrt(2 * Q)
    if r * r != 2 * Q:
        raise DomainError("Q must be an odd power of 2")
    return _DivisorUnion([dict(arith.factorize(m))
                          for m in (4, Q - 1, Q + r + 1, Q - r + 1)]).orders()


def _ingested_spectrum(spec: LieSpec, provider: SpectrumProvider | None) -> OrderSet:
    got = None if provider is None else provider.get(spec.family, spec.Q)
    if got is None:
        raise DataMissing(f"spectrum {spec.family} {spec.Q}")
    return got


def exceptional_spectrum(spec: LieSpec, provider: SpectrumProvider | None = None) -> OrderSet:
    """Full element-order spectrum of an exceptional-family group."""
    family = spec.family
    if family not in EXCEPTIONAL_RANK:
        raise DomainError(f"{family} is not an exceptional family")
    if family == "E8":
        raise NotAvailable("No full element-order spectrum is available for family E8.")
    if family == "2B2":
        return suzuki_spectrum(spec.Q)
    return _ingested_spectrum(spec, provider)


def exceptional_semisimple(spec: LieSpec, provider: SpectrumProvider | None = None) -> OrderSet:
    """Semisimple (prime-to-p) subset of the exceptional spectrum; for E8,
    whose records are semisimple spectra, the ingested record itself."""
    if spec.family == "E8":
        return _ingested_spectrum(spec, provider)
    full = exceptional_spectrum(spec, provider)
    return OrderSet(tuple(v for v in full.values if v % spec.p != 0))
