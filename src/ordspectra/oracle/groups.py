"""Brute-force construction of small classical groups.

Groups are realized as permutation groups: a matrix group acts
faithfully on the nonzero vectors of its natural module, and projective
quotients act on normalized projective points (first nonzero coordinate
scaled to 1).  Closures adjoin the generators one at a time by coset
enumeration, so the elements and the generators kept are deterministic.
Class representatives follow set order, which moves with the hash seed
of ``bytes``; no result depends on which one is picked.

The class walk conjugates by two elements when there are more than two
generators: the first of ``PAIR_TRIES`` product-replacement pairs
(words in the generators from a fixed-seed ``random.Random``, never
from set order) whose closure passes half the group order.  A proper
subgroup has at most half the elements (Lagrange), so such a pair
generates the group, and a pair that fails only builds a proper
subgroup.  If none passes, the walk conjugates by every generator.

A permutation is the ``bytes`` of images of 0..degree-1, and products
read left to right: ``perm_compose(a, b)`` applies a first, then b, so
its entry i is b[a[i]].  That is ``a.translate(perm_table(b))``, where
``perm_table(b)`` fills b out to a 256-byte translation table with fixed
points; the hot loops build each table once and reuse it across every
``translate``.  One byte per point caps the degree at 256: a larger
construction raises ``CapacityError`` before any closure work
(``check_degree``).

Fixed forms (documented so constructions are reproducible bit for bit):

* symplectic: B(x, y) = sum over i < n/2 of x_i y_(n-1-i) - x_(n-1-i) y_i;
* hermitian:  H(x, y) = sum over i of conj(x_i) y_(n-1-i);
* quadratic, odd dim 2m+1:  Q(x) = x_m**2 + sum over i < m of x_i x_(n-1-i);
* quadratic, even dim plus: Q(x) = sum over i < m of x_i x_(n-1-i);
* quadratic, even dim minus: hyperbolic pairs on the outer coordinates and
  the anisotropic binary form x**2 + a x y + b y**2 (smallest irreducible
  t**2 + a t + b over F_q) on the middle two.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..errors import CapacityError, CapExceeded, DomainError
from ..torus_spectra import OrderSet
from .ffield import Fq

Perm = bytes
Matrix = tuple[int, ...]  # row-major, n*n field codes


# ---------------------------------------------------------------------------
# permutations


MAX_DEGREE = 256
PAD = bytes(range(MAX_DEGREE))


def check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise CapacityError(
            f"permutation degree {degree} exceeds the {MAX_DEGREE}-point limit",
            needed=degree,
        )


def identity(degree: int) -> Perm:
    check_degree(degree)
    return PAD[:degree]


def perm_table(b: Perm) -> bytes:
    """The translation table of b: x -> x.translate(table) is x then b."""
    return b + PAD[len(b):]


def perm_compose(a: Perm, b: Perm) -> Perm:
    """Apply a first, then b."""
    return a.translate(perm_table(b))


def perm_inverse(a: Perm) -> Perm:
    out = bytearray(len(a))
    for i, x in enumerate(a):
        out[x] = i
    return bytes(out)


def perm_order(a: Perm) -> int:
    seen = [False] * len(a)
    order = 1
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = a[x]
            length += 1
        order = order * length // math.gcd(order, length)
    return order


# ---------------------------------------------------------------------------
# matrices


def mat_identity(n: int) -> Matrix:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mat_apply(F: Fq, n: int, a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    mul = F.mul
    add = F.add
    out = []
    for i in range(n):
        acc = 0
        row = i * n
        for j in range(n):
            x = a[row + j]
            if x and v[j]:
                acc = add[acc][mul[x][v[j]]]
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# forms


def hermitian_value(F: Fq, n: int, half: int, x, y) -> int:
    acc = 0
    for i in range(n):
        if x[i] and y[n - 1 - i]:
            acc = F.add[acc][F.mul[F.conj(x[i], half)][y[n - 1 - i]]]
    return acc


def symplectic_value(F: Fq, n: int, x, y) -> int:
    acc = 0
    for i in range(n // 2):
        j = n - 1 - i
        acc = F.add[acc][F.sub(F.mul[x[i]][y[j]], F.mul[x[j]][y[i]])]
    return acc


def quadratic_coeffs(F: Fq, n: int, sign: int) -> list[tuple[int, int, int]]:
    """Q(x) = sum of c * x_i * x_j over returned (i, j, c)."""
    terms = []
    if n % 2 == 1:
        m = n // 2
        terms.append((m, m, 1))
        for i in range(m):
            terms.append((i, n - 1 - i, 1))
        return terms
    m = n // 2
    if sign == 1:
        for i in range(m):
            terms.append((i, n - 1 - i, 1))
        return terms
    for i in range(m - 1):
        terms.append((i, n - 1 - i, 1))
    a, b = _anisotropic_coeffs(F)
    terms.append((m - 1, m - 1, 1))
    terms.append((m - 1, m, a))
    terms.append((m, m, b))
    return terms


def _anisotropic_coeffs(F: Fq) -> tuple[int, int]:
    """Smallest (a, b) with t**2 + a t + b irreducible over F_q."""
    for a in range(F.q):
        for b in range(1, F.q):
            ok = True
            for t in range(F.q):
                val = F.add[F.add[F.mul[t][t]][F.mul[a][t]]][b]
                if val == 0:
                    ok = False
                    break
            if ok:
                return a, b
    raise DomainError("no irreducible quadratic found")


def quadratic_value(F: Fq, terms, x) -> int:
    acc = 0
    for i, j, c in terms:
        if x[i] and x[j]:
            acc = F.add[acc][F.mul[F.mul[c][x[i]]][x[j]]]
    return acc


# ---------------------------------------------------------------------------
# vector enumeration


def all_vectors(F: Fq, n: int) -> list[tuple[int, ...]]:
    vecs = [()]
    for _ in range(n):
        vecs = [v + (c,) for v in vecs for c in range(F.q)]
    return [v for v in vecs if any(v)]


def projective_points(F: Fq, n: int) -> list[tuple[int, ...]]:
    points = []
    seen = set()
    for v in all_vectors(F, n):
        nv = normalize(F, v)
        if nv not in seen:
            seen.add(nv)
            points.append(nv)
    return points


def normalize(F: Fq, v: tuple[int, ...]) -> tuple[int, ...]:
    lead = next(x for x in v if x)
    if lead == 1:
        return v
    inv = F.inv[lead]
    return tuple(F.mul[inv][x] for x in v)


# ---------------------------------------------------------------------------
# the group container


@dataclass
class SmallGroup:
    """Explicit permutation group: its generators and all its elements."""

    degree: int
    gens: list[Perm]
    elements: set[Perm]
    meta: dict = field(default_factory=dict)
    #: the generators the class walk conjugates by, set by its first run
    conjugators: list[Perm] | None = field(default=None, init=False, compare=False)
    _classes: tuple[dict[Perm, int], list[Perm]] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_orders(self) -> OrderSet:
        """Orders are constant on conjugacy classes: one per representative."""
        return OrderSet.from_iterable(
            perm_order(rep) for rep in self.class_representatives()
        )

    def nr_element_orders(self) -> int:
        return len(self.element_orders())

    def conjugacy_classes(self) -> tuple[dict[Perm, int], list[Perm]]:
        """(element -> class index, class representatives).

        The classes are the orbits under conjugation by a generating set,
        ``class_conjugators``: a pair whose closure has more than half the
        elements, and so is the whole group (Lagrange), or else ``gens``.
        The set used is kept as ``conjugators``.
        """
        if self._classes is not None:
            return self._classes
        self.conjugators = class_conjugators(self.gens, self.degree, self.order)
        # g^-1 x g = perm_compose(perm_compose(g^-1, x), g)
        conjugators = [(perm_inverse(g), perm_table(g)) for g in self.conjugators]
        pad = PAD[self.degree:]
        class_of: dict[Perm, int] = {}
        reps: list[Perm] = []
        for e in self.elements:
            if e in class_of:
                continue
            cid = len(reps)
            reps.append(e)
            frontier = [e]
            class_of[e] = cid
            while frontier:
                x_table = frontier.pop() + pad
                for ginv, g_table in conjugators:
                    y = ginv.translate(x_table).translate(g_table)
                    if y not in class_of:
                        class_of[y] = cid
                        frontier.append(y)
        self._classes = (class_of, reps)
        return self._classes

    def class_representatives(self) -> list[Perm]:
        return self.conjugacy_classes()[1]

    def conjugacy_class_count(self) -> int:
        return len(self.class_representatives())


def close_under_products(gens, degree: int, limit: int | None = None):
    """Incremental closure by coset enumeration (Dimino's algorithm):
    adjoin the generators (any iterable) in order, skipping each one
    already in the group generated so far.

    Returns ``(used, elements)``: the adjoined generators and the group
    they generate.  Adjoining g to the closed group H walks a growing
    list of right-coset representatives from the identity; a product
    r * t by a used generator t outside the elements found so far adds
    the whole coset H * (r * t), since (H r) t = H (r t) and right
    cosets are disjoint.  Each new element costs one product, plus one
    per representative and used generator.  Raises
    ``CapExceeded`` once the count passes ``limit``, which it may
    overshoot by at most one coset of H.
    """
    elements = {identity(degree)}
    used: list[Perm] = []
    tables: list[bytes] = []
    for g in gens:
        if g in elements:
            continue
        used.append(g)
        tables.append(perm_table(g))
        subgroup = list(elements)
        reps = [identity(degree)]
        for rep in reps:  # grows while it is walked
            for table in tables:
                nxt = rep.translate(table)
                if nxt not in elements:
                    nxt_table = perm_table(nxt)
                    elements.update([h.translate(nxt_table) for h in subgroup])
                    if limit is not None and len(elements) > limit:
                        raise CapExceeded(len(elements), limit)
                    reps.append(nxt)
    return used, elements


#: candidate pairs ``class_conjugators`` tests before it keeps every generator
PAIR_TRIES = 8


def candidate_pairs(gens: list[Perm]):
    """PAIR_TRIES pairs of words in ``gens`` by product replacement: between
    pairs, 2 * len(gens) times, one slot of a copy of ``gens`` is replaced by
    its product with another slot, the slots drawn from a ``random.Random``
    of fixed seed.  The pairs depend on ``gens`` alone, never on set order."""
    rng = random.Random(0)
    state = list(gens)
    slots = range(len(state))
    for _ in range(PAIR_TRIES):
        for _ in range(2 * len(state)):
            i, j = rng.sample(slots, 2)
            state[i] = perm_compose(state[i], state[j])
        yield state[0], state[1]


def generates(pair, degree: int, order: int) -> bool:
    """Whether ``pair`` generates a group of the given order that contains
    it: true once its closure passes order / 2, since a proper subgroup has
    at most half the elements (Lagrange)."""
    try:
        close_under_products(pair, degree, limit=order // 2)
    except CapExceeded:
        return True
    return False


def class_conjugators(gens: list[Perm], degree: int, order: int) -> list[Perm]:
    """The first of ``candidate_pairs(gens)`` that ``generates`` the group
    of ``gens``, or ``gens`` themselves when they are at most two or no
    candidate passes."""
    if len(gens) > 2:
        for pair in candidate_pairs(gens):
            if generates(pair, degree, order):
                return list(pair)
    return gens


def matrices_to_perms(F: Fq, n: int, mats: list[Matrix], points, projective: bool):
    index = {pt: i for i, pt in enumerate(points)}
    perms = []
    for m in mats:
        images = []
        for pt in points:
            w = mat_apply(F, n, m, pt)
            if projective:
                w = normalize(F, w)
            images.append(index[w])
        perms.append(bytes(images))
    return perms

