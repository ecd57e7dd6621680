"""Validated descriptors of finite simple groups of Lie type and their
basic invariants: order, log-log order, outer automorphism group order,
diagonal-outer order, Coxeter number.

A descriptor is built from (family, rank d, field parameter Q) where
Q = q**t and t is the twist degree (1 untwisted; 2 for 2A/2D/2E6 and the
Suzuki/Ree families; 3 for 3D4).  For the Suzuki/Ree families q is the
irrational square root of Q, so q is stored exactly as p raised to a
half-integer exponent (p, 2f).
"""

from __future__ import annotations

import math
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

CLASSICAL_FAMILIES = ("A", "2A", "B", "C", "D", "2D")

#: Fixed rank per exceptional family.
EXCEPTIONAL_RANK = {
    "2B2": 2,
    "G2": 2,
    "2G2": 2,
    "3D4": 4,
    "F4": 4,
    "2F4": 4,
    "E6": 6,
    "2E6": 6,
    "E7": 7,
    "E8": 8,
}

FAMILIES = CLASSICAL_FAMILIES + tuple(EXCEPTIONAL_RANK)

#: Twist degree t with Q = q**t.
TWIST = {
    "A": 1, "B": 1, "C": 1, "D": 1, "G2": 1, "F4": 1,
    "E6": 1, "E7": 1, "E8": 1,
    "2A": 2, "2D": 2, "2E6": 2, "2B2": 2, "2G2": 2, "2F4": 2,
    "3D4": 3,
}

#: Families whose q = sqrt(Q) is irrational (odd power of the characteristic).
_SQRT_FAMILIES = {"2B2": 2, "2G2": 3, "2F4": 2}

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
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    if Q is None:
        raise DomainError("field parameter Q is required")
    if family in EXCEPTIONAL_RANK:
        fixed = EXCEPTIONAL_RANK[family]
        if d is not None and d != fixed:
            raise RankOutOfRange(f"{family} has fixed rank {fixed}")
        d = fixed
    else:
        if d is None:
            raise DomainError("rank d is required for classical families")
        minimum = 2 if family in ("D", "2D") else 1
        if d < minimum:
            raise RankOutOfRange(f"family {family} requires d >= {minimum}")
    split = arith.prime_power_split(Q)
    if split is None:
        raise NotPrimePower(f"Q = {Q} is not a prime power")
    p, e = split

    t = TWIST[family]
    if family in _SQRT_FAMILIES:
        want_p = _SQRT_FAMILIES[family]
        if p != want_p or e % 2 == 0:
            raise WrongTwistForm(
                f"{family} requires Q = {want_p}^(2k+1); got {Q}"
            )
        f2 = e  # f = e/2, half-integral
    elif t == 2:
        if e % 2:
            raise WrongTwistForm(f"{family} requires Q = q^2 for a prime power q")
        f2 = e  # f = e/2 integral here since e is even
    elif t == 3:
        if e % 3:
            raise WrongTwistForm(f"{family} requires Q = q^3 for a prime power q")
        f2 = 2 * (e // 3)
    else:
        f2 = 2 * e

    warning = _NON_SIMPLE.get((family, d, Q))
    if warning is None and family == "D" and d == 2:
        warning = "D2(q) is a direct product of two simple groups, not simple"
    if warning is None and family == "2A" and d == 1:
        warning = "2A1 coincides with A1; family formulas refer to the 2A shape"
    return LieSpec(family=family, d=d, Q=Q, p=p, f2=f2, t=t, warning=warning)


# ---------------------------------------------------------------------------
# group orders


def group_order(spec: LieSpec) -> int:
    """Order of the (possibly non-simple at flagged points) group named
    by the spec, via the standard order polynomials."""
    family, d, Q = spec.family, spec.d, spec.Q
    q = spec.q
    if family == "A":
        n = d + 1
        return (
            q ** (d * (d + 1) // 2)
            * math.prod(q**i - 1 for i in range(2, n + 1))
            // math.gcd(n, q - 1)
        )
    if family == "2A":
        n = d + 1
        return (
            q ** (d * (d + 1) // 2)
            * math.prod(q**i - (-1) ** i for i in range(2, n + 1))
            // math.gcd(n, q + 1)
        )
    if family in ("B", "C"):
        return (
            q ** (d * d)
            * math.prod(q ** (2 * i) - 1 for i in range(1, d + 1))
            // math.gcd(2, q - 1)
        )
    if family == "D":
        return (
            q ** (d * (d - 1))
            * (q**d - 1)
            * math.prod(q ** (2 * i) - 1 for i in range(1, d))
            // math.gcd(4, q**d - 1)
        )
    if family == "2D":
        return (
            q ** (d * (d - 1))
            * (q**d + 1)
            * math.prod(q ** (2 * i) - 1 for i in range(1, d))
            // math.gcd(4, q**d + 1)
        )
    if family == "2B2":
        return Q * Q * (Q * Q + 1) * (Q - 1)
    if family == "G2":
        return q**6 * (q**6 - 1) * (q**2 - 1)
    if family == "2G2":
        return Q**3 * (Q**3 + 1) * (Q - 1)
    if family == "3D4":
        return q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1)
    if family == "F4":
        return q**24 * math.prod(q**i - 1 for i in (12, 8, 6, 2))
    if family == "2F4":
        return Q**12 * (Q**6 + 1) * (Q**4 - 1) * (Q**3 + 1) * (Q - 1)
    if family == "E6":
        return (
            q**36
            * math.prod(q**i - 1 for i in (12, 9, 8, 6, 5, 2))
            // math.gcd(3, q - 1)
        )
    if family == "2E6":
        return (
            q**36
            * (q**12 - 1) * (q**9 + 1) * (q**8 - 1)
            * (q**6 - 1) * (q**5 + 1) * (q**2 - 1)
            // math.gcd(3, q + 1)
        )
    if family == "E7":
        return (
            q**63
            * math.prod(q**i - 1 for i in (18, 14, 12, 10, 8, 6, 2))
            // math.gcd(2, q - 1)
        )
    if family == "E8":
        return q**120 * math.prod(q**i - 1 for i in (30, 24, 20, 18, 14, 12, 8, 2))
    raise DomainError(f"unknown family {family!r}")


def log_log_group_order(spec: LieSpec) -> float:
    """log log |S|; never overflows regardless of the parameter size."""
    return arith.log_log(group_order(spec))


# ---------------------------------------------------------------------------
# outer automorphisms


def outdiag_order(spec: LieSpec) -> int:
    """Order of the diagonal-outer automorphism group."""
    family, d, q = spec.family, spec.d, spec.q
    if family == "A":
        return math.gcd(d + 1, q - 1)
    if family == "2A":
        return math.gcd(d + 1, q + 1)
    if family in ("B", "C", "E7"):
        return math.gcd(2, q - 1)
    if family == "D":
        return math.gcd(4, q**d - 1)
    if family == "2D":
        return math.gcd(4, q**d + 1)
    if family == "E6":
        return math.gcd(3, q - 1)
    if family == "2E6":
        return math.gcd(3, q + 1)
    return 1


def _field_part(spec: LieSpec) -> int:
    """Order of the field-automorphism contribution to Out."""
    if spec.family in _SQRT_FAMILIES:
        return spec.f2  # 2k+1
    f = spec.f2 // 2
    if spec.t == 2:
        return 2 * f
    if spec.t == 3:
        return 3 * f
    return f


def out_order(spec: LieSpec) -> int:
    """|Out(S)| as the product of diagonal, field and graph parts."""
    family, d, p = spec.family, spec.d, spec.p
    diag = outdiag_order(spec)
    field = _field_part(spec)
    graph = 1
    if family == "A" and d >= 2:
        graph = 2
    elif family == "D":
        # Rank 4 has the triality graph group S3; gcd(4, q**4 - 1) already
        # equals the Klein diagonal order gcd(2, q-1)**2 there.
        graph = 6 if d == 4 else 2
    elif family == "E6":
        graph = 2
    elif family in ("B", "C") and d == 2 and p == 2:
        graph = 2
    elif family == "G2" and p == 3:
        graph = 2
    elif family == "F4" and p == 2:
        graph = 2
    return diag * field * graph


def coxeter_number(family: str, d: int | None = None) -> int:
    """Coxeter number of the untwisted families that define one."""
    if family == "A":
        if d is None or d < 1:
            raise DomainError("rank required")
        return d + 1
    if family in ("B", "C"):
        if d is None or d < 1:
            raise DomainError("rank required")
        return 2 * d
    if family == "D":
        if d is None or d < 2:
            raise DomainError("rank required")
        return 2 * d - 2
    fixed = {"G2": 6, "F4": 12, "E6": 12, "E7": 18, "E8": 30}
    if family in fixed:
        return fixed[family]
    raise NotAvailable(f"no Coxeter number function for family {family}")
