"""Generator recipes and the public entry point for constructing small
classical groups as explicit permutation groups.

Canonical kind names: GL SL PSL GU SU PSU Sp PSp, GO SO Omega (odd
dimension), GOplus GOminus SOplus SOminus Omegaplus Omegaminus
POmegaplus POmegaminus (even dimension).
"""

from __future__ import annotations

import itertools
import math

from ..errors import CapExceeded, DomainError
from .ffield import Fq, get_field
from .groups import (
    Matrix,
    SmallGroup,
    all_vectors,
    bilinear,
    close_under_products,
    hermitian_value,
    mat_identity,
    matrices_to_perms,
    perm_compose,
    perm_inverse,
    projective_points,
    quadratic_coeffs,
    quadratic_value,
    symplectic_gram,
)

DEFAULT_CAP = 10**7

KINDS = (
    "GL", "SL", "PSL", "GU", "SU", "PSU", "Sp", "PSp",
    "GO", "SO", "Omega",
    "GOplus", "GOminus", "SOplus", "SOminus",
    "Omegaplus", "Omegaminus", "POmegaplus", "POmegaminus",
)


def expected_order(kind: str, n: int, q: int) -> int:
    """Order polynomial of the requested group (q is the base parameter;
    unitary kinds are matrix groups over F(q**2))."""
    if kind == "GL":
        return math.prod(q**n - q**i for i in range(n))
    if kind == "SL":
        return expected_order("GL", n, q) // (q - 1)
    if kind == "PSL":
        return expected_order("SL", n, q) // math.gcd(n, q - 1)
    if kind == "GU":
        return q ** (n * (n - 1) // 2) * math.prod(q**i - (-1) ** i for i in range(1, n + 1))
    if kind == "SU":
        return expected_order("GU", n, q) // (q + 1)
    if kind == "PSU":
        return expected_order("SU", n, q) // math.gcd(n, q + 1)
    if kind in ("Sp", "PSp"):
        m = n // 2
        sp = q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))
        return sp if kind == "Sp" else sp // math.gcd(2, q - 1)
    if kind in ("GO", "SO", "Omega"):
        if n % 2 == 0:
            raise DomainError("even dimension needs a plus/minus kind")
        m = n // 2
        so = q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))
        if kind == "GO":
            return 2 * so
        if kind == "SO":
            return so
        return so // math.gcd(2, q - 1)
    sign = 1 if kind.endswith("plus") else -1
    base = kind[: -4 if sign == 1 else -5]
    m = n // 2
    go = 2 * q ** (m * (m - 1)) * (q**m - sign) * math.prod(
        q ** (2 * i) - 1 for i in range(1, m)
    )
    if base == "GO":
        return go
    if base == "SO":
        return go // 2
    omega = go // 2 // math.gcd(2, q - 1)
    if base == "Omega":
        return omega
    if base == "POmega":
        center = math.gcd(4, q**m - sign) // math.gcd(2, q - 1)
        return omega // center
    raise DomainError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# generator matrices


def _elementary(F: Fq, n: int, i: int, j: int, value: int) -> Matrix:
    m = list(mat_identity(n))
    m[i * n + j] = value
    return tuple(m)


def _cols_to_matrix(cols: list[list[int]], n: int) -> Matrix:
    """cols[i] is the image of the i-th basis vector."""
    return tuple(cols[j][i] for i in range(n) for j in range(n))


def _gl_gens(F: Fq, n: int, special: bool) -> list[Matrix]:
    gens = []
    values = [1]
    if F.q > 2:
        values.append(F.generator)
    for i in range(n - 1):
        for v in values:
            gens.append(_elementary(F, n, i, i + 1, v))
            gens.append(_elementary(F, n, i + 1, i, v))
    if not special and F.q > 2:
        diag = list(mat_identity(n))
        diag[0] = F.generator
        gens.append(tuple(diag))
    return gens


def _sp_gens(F: Fq, n: int) -> list[Matrix]:
    """Symplectic transvections x -> x + lam*B(x,v)*v along a vector list."""
    gram = symplectic_gram(F, n)
    vectors = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    vectors += [tuple(1 if k in (0, i) else 0 for k in range(n)) for i in range(1, n)]
    values = [1] + ([F.generator] if F.q > 2 else [])
    gens = []
    for v in vectors:
        for lam in values:
            cols = []
            for i in range(n):
                basis = tuple(1 if k == i else 0 for k in range(n))
                coeff = F.mul[lam][bilinear(F, n, gram, basis, v)]
                cols.append([F.add[basis[k]][F.mul[coeff][v[k]]] for k in range(n)])
            gens.append(_cols_to_matrix(cols, n))
    return gens


def _unitary_gens(F: Fq, n: int, special: bool) -> list[Matrix]:
    """F is F(q0**2).  Unitary transvections x -> x + lam*H(v,x)*v need v
    isotropic and lam of trace zero; they generate SU_n(q0) except for
    SU_3(2) = 3^(1+2):Q8, where they generate only 3^(1+2):2.  Monomial
    isometries do not close that gap (the 18 of GU_3(2) have orders 1,
    2, 3 and 6); the root elements appended for odd n do
    (``_unitary_root_elements``).  Diagonal isometries extend to GU."""
    half = F.e // 2
    q0 = F.p**half
    trace_zero = [x for x in range(1, F.q) if F.add[x][F.conj(x, half)] == 0]
    isotropic = [pt for pt in projective_points(F, n)
                 if hermitian_value(F, n, half, pt, pt) == 0]
    gens = []
    for v in isotropic:
        for lam in trace_zero:
            cols = []
            for i in range(n):
                basis = tuple(1 if k == i else 0 for k in range(n))
                coeff = F.mul[lam][hermitian_value(F, n, half, v, basis)]
                cols.append([F.add[basis[k]][F.mul[coeff][v[k]]] for k in range(n)])
            gens.append(_cols_to_matrix(cols, n))
    if not special:
        alpha = F.generator
        diag = list(mat_identity(n))
        diag[0] = alpha
        diag[(n - 1) * n + (n - 1)] = F.inv[F.conj(alpha, half)]
        gens.append(tuple(diag))
        if n % 2 == 1:
            beta = 1
            for _ in range(q0 - 1):
                beta = F.mul[beta][F.generator]  # generator**(q0-1): norm 1
            mid = n // 2
            diag2 = list(mat_identity(n))
            diag2[mid * n + mid] = beta
            gens.append(tuple(diag2))
    gens.extend(_unitary_root_elements(F, n, half))
    return gens


def _unitary_root_elements(F: Fq, n: int, half: int) -> list[Matrix]:
    """For odd n >= 3, the root elements x(a, b) on the block (e_0, e_mid,
    e_{n-1}) of the antidiagonal form: e_mid -> e_mid + a*e_0 and
    e_{n-1} -> e_{n-1} + b*e_0 - conj(a)*e_mid with b + conj(b) =
    -a*conj(a), and their lower-triangular counterparts (e_0 and e_{n-1}
    swapped).  With a = 1 and a = the field generator, the ones of order
    4 generate the quaternion Sylow 2-subgroup Q8 of SU_3(2), which the
    transvections miss.  They have determinant 1."""
    if n % 2 == 0 or n < 3:
        return []
    mid = n // 2
    gens = []
    for a in (1, F.generator):
        minus_norm = F.neg[F.mul[a][F.conj(a, half)]]
        b = next(x for x in range(F.q) if F.add[x][F.conj(x, half)] == minus_norm)
        for low, high in ((0, n - 1), (n - 1, 0)):
            m = list(mat_identity(n))
            m[low * n + mid] = a
            m[low * n + high] = b
            m[mid * n + high] = F.neg[F.conj(a, half)]
            gens.append(tuple(m))
    return gens


def orthogonal_group_gens(F: Fq, n: int, sign: int) -> list[Matrix]:
    """Generators of the full orthogonal group: reflections (q odd) or
    orthogonal transvections (q even) along the non-singular vectors, one
    per projective point.  For q odd the reflections generate it
    (Cartan-Dieudonne), so every generator is a reflection.  For q even
    the transvections generate it except for O+_4(2), where they give a
    subgroup of index 2; so for q even, plus type and n >= 4 the isometry
    swapping the hyperbolic pairs (e_0, e_{n-1}) and (e_1, e_{n-2}) comes
    last (the closure skips it wherever it is redundant)."""
    terms = quadratic_coeffs(F, n, sign)

    def polar(x, y):
        xy = tuple(F.add[a][b] for a, b in zip(x, y))
        return F.sub(
            F.sub(quadratic_value(F, terms, xy), quadratic_value(F, terms, x)),
            quadratic_value(F, terms, y),
        )

    gens = []
    for v in projective_points(F, n):
        qv = quadratic_value(F, terms, v)
        if qv == 0:
            continue
        inv_qv = F.inv[qv]
        cols = []
        for i in range(n):
            basis = tuple(1 if k == i else 0 for k in range(n))
            coeff = F.mul[inv_qv][polar(basis, v)]
            if F.p == 2:
                cols.append([F.add[basis[k]][F.mul[coeff][v[k]]] for k in range(n)])
            else:
                cols.append([F.sub(basis[k], F.mul[coeff][v[k]]) for k in range(n)])
        gens.append(_cols_to_matrix(cols, n))
    if F.p == 2 and sign == 1 and n >= 4:
        images = list(range(n))
        images[0], images[1] = 1, 0
        images[n - 1], images[n - 2] = n - 2, n - 1
        gens.append(_cols_to_matrix(
            [[1 if k == images[i] else 0 for k in range(n)] for i in range(n)], n))
    return gens


def orthogonal_similitude(F: Fq, n: int, sign: int) -> Matrix:
    """A similitude of the even-dimensional form with multiplier the field
    generator lam: diag(1^m, lam^m) on the plus form.  On the minus form
    it scales the hyperbolic pairs the same way and takes, on the middle
    plane, the first 2x2 block in lexicographic order that scales
    x**2 + a x y + b y**2 by lam."""
    lam = F.generator
    m = n // 2
    sim = list(mat_identity(n))
    for i in range(m, n):
        sim[i * n + i] = lam
    if sign == -1:
        terms = quadratic_coeffs(F, n, sign)

        def form(x, y):
            return quadratic_value(F, terms, (0,) * (m - 1) + (x, y) + (0,) * (m - 1))

        plane = [(x, y) for x in range(F.q) for y in range(F.q)]
        a, b, c, d = next(blk for blk in itertools.product(range(F.q), repeat=4)
                          if all(form(F.add[F.mul[blk[0]][x]][F.mul[blk[1]][y]],
                                      F.add[F.mul[blk[2]][x]][F.mul[blk[3]][y]])
                                 == F.mul[lam][form(x, y)] for x, y in plane))
        sim[(m - 1) * n + m - 1], sim[(m - 1) * n + m] = a, b
        sim[m * n + m - 1], sim[m * n + m] = c, d
    return tuple(sim)


# ---------------------------------------------------------------------------
# the public builder


def build_classical(kind: str, n: int, q: int, cap: int = DEFAULT_CAP,
                    witnesses: bool = False) -> SmallGroup:
    """Construct the named group as an explicit permutation group.

    Projective kinds act on projective points; the others act on the
    nonzero vectors of the natural module.  The recipe of the kind is
    closed once (``close_under_products``), keeping only the generators
    it needs.  SO, Omega and POmega are not closed from GO: they are the
    kernel of a map GO -> (Z/2)^2 read off each recipe matrix
    (``_character``), generated by its Schreier generators (``_kernel``).
    Matrix witnesses are kept for PSL and on request (not for SO, Omega
    and POmega).  Raises CapExceeded when the order polynomial exceeds
    ``cap``; raises DomainError if the closure does not reach the
    expected order (a construction bug, never a silent approximation).
    """
    if kind not in KINDS:
        raise DomainError(f"unknown kind {kind!r}")
    target = expected_order(kind, n, q)
    if target > cap:
        raise CapExceeded(target, cap)
    F = _field_for(kind, q)
    projective = kind in ("PSL", "PSU", "PSp", "POmegaplus", "POmegaminus")
    points = projective_points(F, n) if projective else all_vectors(F, n)
    meta = {"kind": kind, "n": n, "q": q, "field": F,
            "projective": projective, "points": points}

    def finish(gens, elements, wit=None, extra_meta=None) -> SmallGroup:
        group = SmallGroup(degree=len(points), gens=list(gens),
                           elements=elements, witnesses=wit)
        group.meta = dict(meta)
        if extra_meta:
            group.meta.update(extra_meta)
        if group.order != target:
            raise DomainError(
                f"construction of {kind}({n},{q}) gave order {group.order}, "
                f"expected {target}"
            )
        return group

    if kind in ("GL", "SL", "PSL"):
        mats = _gl_gens(F, n, special=kind != "GL")
    elif kind in ("GU", "SU", "PSU"):
        mats = _unitary_gens(F, n, special=kind != "GU")
    elif kind in ("Sp", "PSp"):
        if n % 2:
            raise DomainError("symplectic groups need even dimension")
        mats = _sp_gens(F, n)
    else:
        if n % 2 == 0 and kind in ("GO", "SO", "Omega"):
            raise DomainError("even dimension needs a plus/minus kind")
        if n % 2 == 1 and q % 2 == 0:
            raise DomainError(
                "odd-dimensional orthogonal groups over even q coincide "
                "with Sp; build that instead"
            )
        sign = 0 if n % 2 else 1 if "plus" in kind else -1
        mats = orthogonal_group_gens(F, n, sign)
    perm_gens = matrices_to_perms(F, n, mats, points, projective)
    if kind.startswith(("SO", "Omega", "POmega")):
        terms = quadratic_coeffs(F, n, sign)
        spinor = q % 2 == 1 and "Omega" in kind
        labels = [_character(F, n, terms, m, spinor) for m in mats]
        return finish(*_kernel(perm_gens, labels, len(points), 2 * target),
                      extra_meta={"parent_gens": perm_gens})
    if witnesses or kind == "PSL":
        return finish(*close_under_products(perm_gens, len(points), gen_mats=mats,
                                            field_obj=F, n=n, limit=2 * target))
    return finish(*close_under_products(perm_gens, len(points), limit=2 * target))


def _character(F: Fq, n: int, terms, m: Matrix, spinor: bool) -> int:
    """The value on a recipe matrix of the map GO -> (Z/2)^2 whose kernels
    are SO (bit 0) and Omega (both bits).  Bit 0 is the Dickson invariant,
    which is the determinant on a reflection for q odd.  Bit 1 (spinor)
    is the spinor norm of a reflection r_v for q odd: Q(v) modulo
    squares, read off any nonzero column of m - I, a multiple of v."""
    value = _dickson_invariant(F, n, m)
    if spinor:
        v = next(col for col in ([F.sub(m[i * n + j], int(i == j)) for i in range(n)]
                                 for j in range(n)) if any(col))
        squares = {F.mul[x][x] for x in range(1, F.q)}
        value |= (quadratic_value(F, terms, v) not in squares) << 1
    return value


def _kernel(gens: list, labels: list[int], degree: int, limit: int):
    """Generators and elements of the kernel of the character that takes
    the value labels[i] (bits under xor) on gens[i], by Schreier's lemma:
    a transversal t_c over the reachable values c, and the generators
    t_c * g * t_(c xor label g)^-1."""
    transversal = {0: tuple(range(degree))}
    reached = [0]
    for c in reached:  # grows while it is walked
        for g, label in zip(gens, labels):
            if c ^ label not in transversal:
                transversal[c ^ label] = perm_compose(transversal[c], g)
                reached.append(c ^ label)
    schreier = (perm_compose(perm_compose(t, g), perm_inverse(transversal[c ^ label]))
                for c, t in transversal.items() for g, label in zip(gens, labels))
    used, elements, _ = close_under_products(schreier, degree, limit=limit)
    return used, elements


def _dickson_invariant(F: Fq, n: int, m: Matrix) -> int:
    """rank(m - I) mod 2: the homomorphism GO_n(q) -> Z/2 for q even, and
    the determinant on a reflection for q odd."""
    rows = [[F.sub(m[i * n + j], 1 if i == j else 0) for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F.inv[rows[rank][col]]
        for i in range(rank + 1, n):
            if rows[i][col]:
                f = F.mul[rows[i][col]][inv]
                rows[i] = [F.sub(x, F.mul[f][y]) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank % 2


def _field_for(kind: str, q: int) -> Fq:
    from .. import arith

    split = arith.prime_power_split(q)
    if split is None:
        raise DomainError(f"{q} is not a prime power")
    p, e = split
    if kind in ("GU", "SU", "PSU"):
        return get_field(p, 2 * e)
    return get_field(p, e)
