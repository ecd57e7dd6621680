"""Brute-force construction of small classical groups.

Groups are realized as permutation groups: a matrix group acts
faithfully on the nonzero vectors of its natural module, and projective
quotients act on normalized projective points (first nonzero coordinate
scaled to 1).  Closures adjoin the generators one at a time by
breadth-first products, so everything is deterministic.

A permutation is the tuple of images of 0..degree-1, and products read
left to right: ``perm_compose(a, b)`` applies a first, then b, so its
entry i is b[a[i]].  That is ``operator.itemgetter(*a)(b)``; the getter
of a is built once by ``perm_getter`` and reused across every b in the
hot loops.  At degree 1 (trivial groups such as PSL(1, q) or Sym(1))
``itemgetter`` with one index returns a scalar, not a tuple, so
``perm_getter`` builds a tuple there itself.

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
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from ..errors import CapExceeded, DomainError
from ..torus_spectra import OrderSet
from .ffield import Fq

Perm = tuple[int, ...]
Matrix = tuple[int, ...]  # row-major, n*n field codes


# ---------------------------------------------------------------------------
# permutations


def perm_getter(a: Perm) -> Callable[[Perm], Perm]:
    """The map b -> perm_compose(a, b)."""
    if len(a) < 2:
        return lambda b: tuple(b[x] for x in a)
    return itemgetter(*a)


def perm_compose(a: Perm, b: Perm) -> Perm:
    """Apply a first, then b."""
    return perm_getter(a)(b)


def perm_inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


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


def mat_mul(F: Fq, n: int, a: Matrix, b: Matrix) -> Matrix:
    mul = F.mul
    add = F.add
    out = [0] * (n * n)
    for i in range(n):
        row = i * n
        for k in range(n):
            aik = a[row + k]
            if not aik:
                continue
            brow = k * n
            mrow = mul[aik]
            for j in range(n):
                v = mrow[b[brow + j]]
                if v:
                    out[row + j] = add[out[row + j]][v]
    return tuple(out)


def mat_identity(n: int) -> Matrix:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mat_transpose(n: int, a: Matrix) -> Matrix:
    return tuple(a[j * n + i] for i in range(n) for j in range(n))


def mat_inverse(F: Fq, n: int, a: Matrix) -> Matrix:
    aug = [[a[i * n + j] for j in range(n)] + [1 if i == j else 0 for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = F.inv[aug[col][col]]
        aug[col] = [F.mul[inv][v] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [F.sub(v, F.mul[factor][w]) for v, w in zip(aug[r], aug[col])]
    return tuple(aug[i][n + j] for i in range(n) for j in range(n))


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


def symplectic_gram(F: Fq, n: int) -> Matrix:
    m = n // 2
    g = [0] * (n * n)
    for i in range(m):
        g[i * n + (n - 1 - i)] = 1
    for i in range(m, n):
        g[i * n + (n - 1 - i)] = F.neg[1]
    return tuple(g)


def bilinear(F: Fq, n: int, gram: Matrix, x, y) -> int:
    acc = 0
    for i in range(n):
        if not x[i]:
            continue
        row = i * n
        for j in range(n):
            g = gram[row + j]
            if g and y[j]:
                acc = F.add[acc][F.mul[F.mul[x[i]][g]][y[j]]]
    return acc


def hermitian_value(F: Fq, n: int, half: int, x, y) -> int:
    acc = 0
    for i in range(n):
        if x[i] and y[n - 1 - i]:
            acc = F.add[acc][F.mul[F.conj(x[i], half)][y[n - 1 - i]]]
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
    """Explicit permutation group, optionally with matrix witnesses."""

    degree: int
    gens: list[Perm]
    elements: set[Perm]
    meta: dict = field(default_factory=dict)
    witnesses: dict[Perm, Matrix] | None = None

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
        """(element -> class index, class representatives)."""
        if getattr(self, "_classes", None) is not None:
            return self._classes
        # g^-1 x g = perm_compose(g^-1, perm_compose(x, g))
        conjugators = [(perm_getter(perm_inverse(g)), g) for g in self.gens]
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
                x_then = perm_getter(frontier.pop())
                for ginv_then, g in conjugators:
                    y = ginv_then(x_then(g))
                    if y not in class_of:
                        class_of[y] = cid
                        frontier.append(y)
        self._classes = (class_of, reps)
        return self._classes

    def class_representatives(self) -> list[Perm]:
        return self.conjugacy_classes()[1]

    def conjugacy_class_count(self) -> int:
        return len(self.class_representatives())

    def is_abelian(self) -> bool:
        return all(
            perm_compose(a, b) == perm_compose(b, a)
            for a in self.gens for b in self.gens
        )


def close_under_products(gens, degree: int, gen_mats=None, field_obj=None,
                         n=None, limit: int | None = None):
    """Incremental closure: adjoin the generators (any iterable) in order,
    skipping each one already in the group generated so far.

    Returns ``(used, elements, witnesses)``: the adjoined generators, the
    group they generate, and (when ``gen_mats`` runs parallel to
    ``gens``) one matrix witness per permutation.  Adjoining g only
    multiplies the old elements by g, since they are already closed
    under the earlier generators; each new element is multiplied by
    every generator used.
    """
    identity = tuple(range(degree))
    elements = {identity}
    witnesses = None
    if gen_mats is not None:
        witnesses = {identity: mat_identity(n)}
        pairs = zip(gens, gen_mats)
    else:
        pairs = ((g, None) for g in gens)
    used: list[tuple[Perm, Matrix | None]] = []
    for g, g_mat in pairs:
        if g in elements:
            continue
        used.append((g, g_mat))
        frontier = list(elements)
        step = [(g, g_mat)]
        while frontier:
            new_frontier = []
            for cur in frontier:
                cur_then = perm_getter(cur)
                for h, h_mat in step:
                    nxt = cur_then(h)
                    if nxt not in elements:
                        elements.add(nxt)
                        if limit is not None and len(elements) > limit:
                            raise CapExceeded(len(elements), limit)
                        if witnesses is not None:
                            # perm composition "cur then h" matches h_mat * cur_mat
                            witnesses[nxt] = mat_mul(field_obj, n, h_mat, witnesses[cur])
                        new_frontier.append(nxt)
            frontier = new_frontier
            step = used
    return [g for g, _ in used], elements, witnesses


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
        perms.append(tuple(images))
    return perms

