"""Validated descriptors of finite simple groups of Lie type and their
basic invariants: order, log-log order, outer automorphism group order,
diagonal-outer order, Coxeter number.

A descriptor is built from (family, rank d, field parameter Q) where
Q = q**t and t is the twist degree (1 untwisted; 2 for 2A/2D/2E6 and the
Suzuki/Ree families; 3 for 3D4).  For the Suzuki/Ree families q is the
irrational square root of Q, so q is stored exactly as p raised to a
half-integer exponent (p, 2f).

``FAMILY_TABLE`` holds every fact about a family once, in one ``Family``
row: its twist, its fixed (exceptional) or least (classical) rank, the
Suzuki/Ree prime, the order's N and signed degrees, the Coxeter number
of its untwisted type, ``outdiag(d, q)`` = |Outdiag(S)|, ``graph(d, p)``
the number of graph automorphisms, and ``omega`` and ``omicron``, the
quality levels its Aut-orbit and element-order-count bounds accept
(empty for the exceptional families, which take no level).  The order
is the standard identity
(Carter, *Finite Groups of Lie Type*, 1985, section 2.9)

    |S| = base**N * prod(base**k - e) / |Z|,  |Z| = |Outdiag(S)|,

with base = Q for 2B2/2G2/2F4 and base = q otherwise.  A signed degree
k > 0 stands for base**k - 1 and -k for base**k + 1.  3D4 also divides
by its row's ``over`` factor q^4 - 1, as q^8 + q^4 + 1 = (q^12 - 1)/(q^4 - 1).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .errors import (
    DomainError,
    NotAvailable,
    NotPrimePower,
    RankOutOfRange,
    WrongTwistForm,
)


@dataclass(frozen=True)
class Family:
    """One Lie family.  N, degrees and coxeter are functions of the rank d
    so that classical and exceptional rows read alike."""

    t: int  # twist degree: Q = q**t
    rank: int  # the fixed rank of an exceptional family, the least of a classical one
    classical: bool
    N: Callable[[int], int]  # the power of base in the order
    degrees: Callable[[int], tuple[int, ...]]  # signed degrees of the order
    coxeter: Callable[[int], int]  # Coxeter number of the untwisted type
    outdiag: Callable[[int, int | None], int] = lambda d, q: 1  # |Outdiag(S)| from (d, q)
    graph: Callable[[int, int], int] = lambda d, p: 1  # graph automorphisms from (d, p)
    omega: tuple[int, ...] = ()  # accepted Aut-orbit bound levels
    omicron: tuple[int, ...] = ()  # accepted element-order-count bound levels
    sqrt_p: int | None = None  # Suzuki/Ree prime: Q = p**(2k+1), q = sqrt(Q)
    over: tuple[int, ...] = ()  # signed degrees the order is divided by


def _fixed(t, rank, N, degrees, coxeter, **facts):
    """An exceptional row, whose rank fixes N, degrees and Coxeter number."""
    return Family(t, rank, False, lambda d: N, lambda d: degrees, lambda d: coxeter, **facts)


def _even(d):
    """The degrees 2, 4, ..., 2d of B_d and C_d."""
    return tuple(range(2, 2 * d + 1, 2))


def _gcd_2(d, q):
    """|Outdiag| of B_d, C_d and E7."""
    return math.gcd(2, q - 1)


#: B_d and C_d agree in every fact of a row; only p = 2 gives B_2 = C_2 a graph map
_BC = Family(1, 1, True, lambda d: d * d, _even, lambda d: 2 * d, _gcd_2,
             lambda d, p: 2 if d == 2 and p == 2 else 1, omega=(1, 2), omicron=(1, 2))

FAMILY_TABLE = {
    "A": Family(1, 1, True, lambda d: d * (d + 1) // 2, lambda d: tuple(range(2, d + 2)),
                lambda d: d + 1, lambda d, q: math.gcd(d + 1, q - 1),
                lambda d, p: 2 if d >= 2 else 1, omega=(2,), omicron=(1, 2, 3)),
    "2A": Family(2, 1, True, lambda d: d * (d + 1) // 2,
                 lambda d: tuple(k if k % 2 == 0 else -k for k in range(2, d + 2)),
                 lambda d: d + 1, lambda d, q: math.gcd(d + 1, q + 1), omega=(2,),
                 omicron=(1, 2, 3)),
    "B": _BC,
    "C": _BC,
    # Rank 4 has the triality graph group S3; gcd(4, q**4 - 1) already
    # equals the Klein diagonal order gcd(2, q-1)**2 there.
    "D": Family(1, 2, True, lambda d: d * (d - 1), lambda d: _even(d - 1) + (d,),
                lambda d: 2 * d - 2, lambda d, q: math.gcd(4, q**d - 1),
                lambda d, p: 6 if d == 4 else 2, omega=(1, 2), omicron=(1, 2, 3)),
    "2D": Family(2, 2, True, lambda d: d * (d - 1), lambda d: _even(d - 1) + (-d,),
                 lambda d: 2 * d - 2, lambda d, q: math.gcd(4, q**d + 1), omega=(1, 2),
                 omicron=(1, 2, 3)),
    "2B2": _fixed(2, 2, 2, (-2, 1), 4, sqrt_p=2),
    "G2": _fixed(1, 2, 6, (6, 2), 6, graph=lambda d, p: 2 if p == 3 else 1),
    "2G2": _fixed(2, 2, 3, (-3, 1), 6, sqrt_p=3),
    "3D4": _fixed(3, 4, 12, (12, 6, 2), 6, over=(4,)),
    "F4": _fixed(1, 4, 24, (12, 8, 6, 2), 12, graph=lambda d, p: 2 if p == 2 else 1),
    "2F4": _fixed(2, 4, 12, (-6, 4, -3, 1), 12, sqrt_p=2),
    "E6": _fixed(1, 6, 36, (12, 9, 8, 6, 5, 2), 12, outdiag=lambda d, q: math.gcd(3, q - 1),
                 graph=lambda d, p: 2),
    "2E6": _fixed(2, 6, 36, (12, -9, 8, 6, -5, 2), 12,
                  outdiag=lambda d, q: math.gcd(3, q + 1)),
    "E7": _fixed(1, 7, 63, (18, 14, 12, 10, 8, 6, 2), 18, outdiag=_gcd_2),
    "E8": _fixed(1, 8, 120, (30, 24, 20, 18, 14, 12, 8, 2), 30),
}

FAMILIES = tuple(FAMILY_TABLE)
CLASSICAL_FAMILIES = tuple(f for f, row in FAMILY_TABLE.items() if row.classical)
#: Fixed rank per exceptional family.
EXCEPTIONAL_RANK = {f: row.rank for f, row in FAMILY_TABLE.items() if not row.classical}

#: Parameter points that name non-simple groups; accepted with a warning.
_NON_SIMPLE = {
    ("A", 1, 2): "A1(2) is solvable of order 6",
    ("A", 1, 3): "A1(3) is solvable of order 12",
    ("2A", 2, 4): "2A2(4) is solvable",
    ("B", 1, 2): "B1(2) coincides with A1(2), not simple",
    ("B", 1, 3): "B1(3) coincides with A1(3), not simple",
    ("C", 1, 2): "C1(2) coincides with A1(2), not simple",
    ("C", 1, 3): "C1(3) coincides with A1(3), not simple",
    ("B", 2, 2): "B2(2) has a simple subgroup of index 2 but is not simple itself",
    ("C", 2, 2): "C2(2) has a simple subgroup of index 2 but is not simple itself",
    ("G2", 2, 2): "G2(2) has a simple subgroup of index 2 but is not simple itself",
    ("2B2", 2, 2): "2B2(2) is solvable of order 20",
    ("2G2", 2, 3): "2G2(3) has a simple subgroup of index 3 but is not simple itself",
    ("2F4", 4, 2): "2F4(2) has a simple subgroup of index 2 but is not simple itself",
}


@dataclass(frozen=True)
class LieSpec:
    """Validated (family, d, Q) descriptor with derived (p, f, t).

    f is half-integral exactly for the Suzuki/Ree families; it is stored
    as ``f2 = 2*f`` so that everything stays exact.
    """

    family: str
    d: int
    Q: int
    p: int
    f2: int  # twice the field exponent f, with Q = p**(f*t)
    t: int
    warning: str | None = None

    @property
    def f(self) -> Fraction:
        return Fraction(self.f2, 2)

    @property
    def q(self) -> int | None:
        """The base field size q = p**f, or None when f is half-integral."""
        if self.f2 % 2:
            return None
        return self.p ** (self.f2 // 2)

    def __str__(self) -> str:
        return f"{self.family}_{self.d}({self.Q})"


def make_spec(family: str, d: int | None = None, Q: int | None = None) -> LieSpec:
    """Validate (family, d, Q) and derive the twist parameters.

    Non-simple small parameter points are accepted but flagged through the
    ``warning`` attribute.
    """
    row = FAMILY_TABLE.get(family)
    if row is None:
        raise DomainError(f"unknown family {family!r}")
    if Q is None:
        raise DomainError("field parameter Q is required")
    if not row.classical:
        if d is not None and d != row.rank:
            raise RankOutOfRange(f"{family} has fixed rank {row.rank}")
        d = row.rank
    elif d is None:
        raise DomainError("rank d is required for classical families")
    elif d < row.rank:
        raise RankOutOfRange(f"family {family} requires d >= {row.rank}")
    split = arith.prime_power_split(Q)
    if split is None:
        raise NotPrimePower(f"Q = {Q} is not a prime power")
    p, e = split
    if row.sqrt_p is not None:
        if p != row.sqrt_p or e % 2 == 0:
            raise WrongTwistForm(
                f"{family} requires Q = {row.sqrt_p}^(2k+1); got {Q}"
            )
    elif e % row.t:
        raise WrongTwistForm(f"{family} requires Q = q^{row.t} for a prime power q")

    warning = _NON_SIMPLE.get((family, d, Q))
    if warning is None and family == "D" and d == 2:
        warning = "D2(q) is a direct product of two simple groups, not simple"
    if warning is None and family == "2A" and d == 1:
        warning = "2A1 coincides with A1; family formulas refer to the 2A shape"
    return LieSpec(family=family, d=d, Q=Q, p=p, f2=2 * e // row.t, t=row.t,
                   warning=warning)


# ---------------------------------------------------------------------------
# group orders


def _signed_product(base: int, degrees: tuple[int, ...]) -> int:
    """prod(base**k - 1) over k > 0 times prod(base**k + 1) over -k < 0."""
    return math.prod(base**k - 1 if k > 0 else base**-k + 1 for k in degrees)


def group_order(spec: LieSpec) -> int:
    """Order of the (possibly non-simple at flagged points) group named
    by the spec: base**N * prod(base**k - e) / |Outdiag(S)|."""
    row = FAMILY_TABLE[spec.family]
    base = spec.Q if row.sqrt_p else spec.q
    return (base ** row.N(spec.d) * _signed_product(base, row.degrees(spec.d))
            // (_signed_product(base, row.over) * outdiag_order(spec)))


def log_log_group_order(spec: LieSpec) -> float:
    """log log |S|; never overflows regardless of the parameter size."""
    return arith.log_log(group_order(spec))


# ---------------------------------------------------------------------------
# outer automorphisms


def outdiag_order(spec: LieSpec) -> int:
    """Order of the diagonal-outer automorphism group."""
    return FAMILY_TABLE[spec.family].outdiag(spec.d, spec.q)


def out_order(spec: LieSpec) -> int:
    """|Out(S)| as the product of diagonal, field and graph parts."""
    field = spec.f2 * spec.t // 2  # Q = p**(f*t): the field automorphisms
    return outdiag_order(spec) * field * FAMILY_TABLE[spec.family].graph(spec.d, spec.p)


def coxeter_number(family: str, d: int | None = None) -> int:
    """Coxeter number of the untwisted families that define one."""
    row = FAMILY_TABLE.get(family)
    if row is None or row.t != 1:
        raise NotAvailable(f"no Coxeter number function for family {family}")
    if row.classical and (d is None or d < row.rank):
        raise DomainError("rank required")
    return row.coxeter(d)
