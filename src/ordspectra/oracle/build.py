"""Generator recipes and the public entry point for constructing small
classical groups as explicit permutation groups.

Canonical kind names: GL SL PSL GU SU PSU Sp PSp, GO SO Omega (odd
dimension), GOplus GOminus SOplus SOminus Omegaplus Omegaminus
POmegaplus POmegaminus (even dimension).
"""

from __future__ import annotations

import itertools
import math

from .. import arith
from ..errors import CapacityError, CapExceeded, DomainError
from .ffield import Fq, get_field, pow_elem
from .groups import (
    MAX_DEGREE,
    Matrix,
    SmallGroup,
    all_vectors,
    check_degree,
    close_under_products,
    hermitian_value,
    identity,
    mat_identity,
    matrices_to_perms,
    perm_compose,
    perm_inverse,
    projective_points,
    quadratic_coeffs,
    quadratic_value,
    symplectic_value,
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
        # Omega_1(q) = SO_1(q) is trivial
        return so // math.gcd(2, q - 1) if m else so
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


def _elementary(n: int, i: int, j: int, value: int) -> Matrix:
    m = list(mat_identity(n))
    m[i * n + j] = value
    return tuple(m)


def _rank_one(F: Fq, n: int, v, coeff) -> Matrix:
    """x -> x + coeff(x)*v for a linear functional coeff: column i is
    e_i + coeff(e_i)*v."""
    m = list(mat_identity(n))
    for i in range(n):
        c = coeff(tuple(1 if k == i else 0 for k in range(n)))
        for k in range(n):
            m[k * n + i] = F.add[m[k * n + i]][F.mul[c][v[k]]]
    return tuple(m)


def _gl_gens(F: Fq, n: int, special: bool) -> list[Matrix]:
    gens = []
    values = [1]
    if F.q > 2:
        values.append(F.generator)
    for i in range(n - 1):
        for v in values:
            gens.append(_elementary(n, i, i + 1, v))
            gens.append(_elementary(n, i + 1, i, v))
    if not special and F.q > 2:
        gens.append(gl_diagonal(F, n))
    return gens


def gl_diagonal(F: Fq, n: int) -> Matrix:
    """diag(lam, 1, ..., 1), lam the field generator: it extends SL to GL."""
    return _elementary(n, 0, 0, F.generator)


def _sp_gens(F: Fq, n: int) -> list[Matrix]:
    """Symplectic transvections x -> x + lam*B(x,v)*v along a vector list."""
    vectors = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    vectors += [tuple(1 if k in (0, i) else 0 for k in range(n)) for i in range(1, n)]
    values = [1] + ([F.generator] if F.q > 2 else [])
    return [_rank_one(F, n, v, lambda x: F.mul[lam][symplectic_value(F, n, x, v)])
            for v in vectors for lam in values]


def _unitary_gens(F: Fq, n: int, special: bool) -> list[Matrix]:
    """F is F(q0**2).  Unitary transvections x -> x + lam*H(v,x)*v need v
    isotropic and lam of trace zero; they generate SU_n(q0) except for
    SU_3(2) = 3^(1+2):Q8, where they generate only 3^(1+2):2.  Monomial
    isometries do not close that gap (the 18 of GU_3(2) have orders 1,
    2, 3 and 6); the root elements appended for odd n do
    (``_unitary_root_elements``).  Diagonal isometries extend to GU; for
    n = 1, GU is the norm-1 scalars, which the middle one alone gives."""
    half = F.e // 2
    trace_zero = [x for x in range(1, F.q) if F.add[x][F.conj(x, half)] == 0]
    isotropic = [pt for pt in projective_points(F, n)
                 if hermitian_value(F, n, half, pt, pt) == 0]
    gens = [_rank_one(F, n, v, lambda x: F.mul[lam][hermitian_value(F, n, half, v, x)])
            for v in isotropic for lam in trace_zero]
    if not special:
        if n > 1:
            gens.append(unitary_diagonal(F, n))
        if n % 2 == 1:
            # generator**(q0 - 1) has norm 1
            beta = pow_elem(F, F.generator, F.p**half - 1)
            gens.append(_elementary(n, n // 2, n // 2, beta))
    gens.extend(_unitary_root_elements(F, n, half))
    return gens


def unitary_diagonal(F: Fq, n: int) -> Matrix:
    """diag(alpha, 1, ..., 1, conj(alpha)**-1), alpha the generator of
    F(q0**2): an isometry of the hermitian form that extends SU to GU."""
    diag = list(gl_diagonal(F, n))
    diag[n * n - 1] = F.inv[F.conj(F.generator, F.e // 2)]
    return tuple(diag)


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


def orthogonal_group_gens(F: Fq, n: int, sign: int) -> list[tuple[Matrix, int]]:
    """Generators of the full orthogonal group, each paired with its value
    under the map GO -> (Z/2)^2 whose kernels are SO (bit 0) and Omega
    (both bits).

    The generators are the reflections (q odd) or orthogonal transvections
    (q even) r_v along the non-singular vectors v, one per projective
    point.  For q odd the reflections generate GO (Cartan-Dieudonne).  For
    q even the transvections generate it except for O+_4(2), where they
    give a subgroup of index 2; so for q even, plus type and n >= 4 the
    isometry swapping the hyperbolic pairs (e_0, e_{n-1}) and (e_1,
    e_{n-2}) comes last (the closure skips it wherever it is redundant).

    The labels need no elimination (Taylor, The Geometry of the Classical
    Groups, ch. 11).  Bit 0 is the Dickson invariant: rank(g - I) mod 2
    for q even, and det g = -1 for q odd.  r_v - I has rank one, so r_v
    has bit 0 set (for q odd, det r_v = -1).  Bit 1 is the spinor norm of r_v
    for q odd, Q(v) modulo squares; for q even every element is a square,
    so it is 0.  The swap is a permutation matrix that moves four basis
    vectors in two 2-cycles, so swap - I has rank 2 and its value is 0.
    """
    terms = quadratic_coeffs(F, n, sign)
    squares = {F.mul[x][x] for x in range(1, F.q)}

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
        # q even: the transvection x + polar(x, v)/Q(v) * v; q odd: the
        # reflection x - polar(x, v)/Q(v) * v
        scale = F.inv[qv] if F.p == 2 else F.neg[F.inv[qv]]
        gens.append((_rank_one(F, n, v, lambda x: F.mul[scale][polar(x, v)]),
                     1 | (qv not in squares) << 1))
    if F.p == 2 and sign == 1 and n >= 4:
        images = list(range(n))
        images[0], images[1] = 1, 0
        images[n - 1], images[n - 2] = n - 2, n - 1
        gens.append((tuple(int(images[j] == i) for i in range(n) for j in range(n)), 0))
    return gens


def orthogonal_similitude(F: Fq, n: int, sign: int) -> Matrix:
    """A similitude of the even-dimensional form with multiplier the field
    generator lam: diag(1^m, lam^m) on the plus form, which scales the
    symplectic form by lam as well.  On the minus form
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


def build_classical(kind: str, n: int, q: int, cap: int = DEFAULT_CAP) -> SmallGroup:
    """Construct the named group as an explicit permutation group.

    Projective kinds act on projective points; the others act on the
    nonzero vectors of the natural module.  The recipe of the kind is
    closed once (``close_under_products``), keeping only the generators
    it needs.  SO, Omega and POmega are not closed from GO: they are the
    kernel of a map GO -> (Z/2)^2 whose value on each recipe generator
    comes with it (``orthogonal_group_gens``; SO reads bit 0 alone),
    generated by its Schreier generators (``_kernel``).
    Raises DomainError before any work when n < 1, n has the wrong parity
    (even for Sp, PSp and the plus/minus kinds, odd for GO, SO and Omega)
    or q is not a prime power; CapExceeded when the order polynomial
    exceeds ``cap``; DomainError for GO, SO and Omega over even q, and
    CapacityError when the field has more than MAX_DEGREE + 1 elements
    or the points number more than MAX_DEGREE, all before the field is
    built; and DomainError if the closure misses the expected order or
    passes twice it (a construction bug, never a silent approximation).
    """
    if kind not in KINDS:
        raise DomainError(f"unknown kind {kind!r}")
    if n < 1:
        raise DomainError(f"dimension n must be >= 1; got {n}")
    if (kind in ("Sp", "PSp") or kind.endswith(("plus", "minus"))) and n % 2:
        raise DomainError(f"{kind} needs an even dimension; got {n}")
    if kind in ("GO", "SO", "Omega") and n % 2 == 0:
        raise DomainError("even dimension needs a plus/minus kind")
    if arith.prime_power_split(q) is None:
        raise DomainError(f"{q} is not a prime power")
    target = expected_order(kind, n, q)
    if target > cap:
        raise CapExceeded(target, cap)
    if kind in ("GO", "SO", "Omega") and q % 2 == 0:
        raise DomainError(
            "odd-dimensional orthogonal groups over even q coincide "
            "with Sp; build that instead"
        )
    projective = kind in ("PSL", "PSU", "PSp", "POmegaplus", "POmegaminus")
    Q = q * q if kind in ("GU", "SU", "PSU") else q
    if Q > MAX_DEGREE + 1:  # such a field fits the points only in trivial PSL_1, PSU_1
        raise CapacityError(f"a field of {Q} elements exceeds the {MAX_DEGREE}-point limit",
                            needed=Q - 1)
    check_degree((Q**n - 1) // (Q - 1) if projective else Q**n - 1)
    F = _field_for(kind, q)
    points = projective_points(F, n) if projective else all_vectors(F, n)
    meta = {"kind": kind, "n": n, "q": q, "field": F,
            "projective": projective, "points": points}

    if kind in ("GL", "SL", "PSL"):
        mats = _gl_gens(F, n, special=kind != "GL")
    elif kind in ("GU", "SU", "PSU"):
        mats = _unitary_gens(F, n, special=kind != "GU")
    elif kind in ("Sp", "PSp"):
        mats = _sp_gens(F, n)
    else:
        sign = 0 if n % 2 else 1 if "plus" in kind else -1
        mats, labels = zip(*orthogonal_group_gens(F, n, sign))
    perm_gens = matrices_to_perms(F, n, mats, points, projective)
    try:
        if kind.startswith(("SO", "Omega", "POmega")):
            mask = 3 if "Omega" in kind else 1  # SO is the kernel of bit 0 alone
            gens, elements = _kernel(perm_gens, [label & mask for label in labels],
                                     len(points), 2 * target)
            meta["parent_gens"] = perm_gens
        else:
            gens, elements = close_under_products(perm_gens, len(points), limit=2 * target)
    except CapExceeded as exc:
        raise DomainError(f"construction of {kind}({n},{q}) passed {exc.order} elements, "
                          f"expected {target}") from exc
    if len(elements) != target:
        raise DomainError(
            f"construction of {kind}({n},{q}) gave order {len(elements)}, expected {target}")
    return SmallGroup(degree=len(points), gens=gens, elements=elements, meta=meta)


def _kernel(gens: list, labels: list[int], degree: int, limit: int):
    """Generators and elements of the kernel of the character that takes
    the value labels[i] (bits under xor) on gens[i], by Schreier's lemma:
    a transversal t_c over the reachable values c, and the generators
    t_c * g * t_(c xor label g)^-1."""
    transversal = {0: identity(degree)}
    reached = [0]
    for c in reached:  # grows while it is walked
        for g, label in zip(gens, labels):
            if c ^ label not in transversal:
                transversal[c ^ label] = perm_compose(transversal[c], g)
                reached.append(c ^ label)
    schreier = (perm_compose(perm_compose(t, g), perm_inverse(transversal[c ^ label]))
                for c, t in transversal.items() for g, label in zip(gens, labels))
    return close_under_products(schreier, degree, limit=limit)


def _field_for(kind: str, q: int) -> Fq:
    p, e = arith.prime_power_split(q)
    if kind in ("GU", "SU", "PSU"):
        return get_field(p, 2 * e)
    return get_field(p, e)
