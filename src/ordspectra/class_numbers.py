"""Exact conjugacy-class counts (provider-backed) and the printed
class-number lower bounds.

Exact counts come from an ingested table (seeded from the brute-force
oracle for small parameters); the closed-form lower bounds and the
piecewise level-2 combinations are computed natively.  Some level
formulas are genuinely non-integral rationals (the even-orthogonal
level-1 bound divides by gcd(2, q-1)**2 without a ceiling); those are
returned as exact Fractions and the ceiling happens downstream.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import messages
from .errors import DataMissing, DomainError, NotAvailable
from .lie_catalog import LieSpec, outdiag_order

#: label -> number of integer parameters following it in a classnum record
LABELS = {
    "PSL": 2, "PSU": 2, "Sp": 2,
    "SOplus": 2, "SOminus": 2, "OmegaPlus": 2, "OmegaMinus": 2,
    "OmegaSum": 2, "OmegaDiff": 2, "SOSum": 2, "SODiff": 2,
    "B": 2,
    "InndiagE6": 2, "Inndiag2E6": 2, "InndiagE7": 2,
    "2B2": 2, "G2": 2, "2G2": 2, "3D4": 2, "F4": 2, "2F4": 2, "E8": 2,
}

#: exceptional families whose class number is exact (table-backed)
EXACT_K_FAMILIES = ("2B2", "G2", "2G2", "3D4", "F4", "2F4", "E8")


class ClassNumberProvider:
    """Read-only-after-load table of exact class numbers."""

    def __init__(self) -> None:
        self._store: dict[tuple[str, int, int], int] = {}

    def ingest(self, label: str, a: int, b: int, value: int) -> None:
        if label not in LABELS:
            raise DomainError(f"unknown classnum label {label!r}")
        if value < 1:
            raise DomainError("class numbers are positive")
        self._store[(label, a, b)] = value

    def lookup(self, label: str, a: int, b: int) -> int | None:
        return self._store.get((label, a, b))

    def require(self, label: str, a: int, b: int) -> int:
        got = self.lookup(label, a, b)
        if got is None:
            raise DataMissing(f"classnum {label} {a} {b}")
        return got


def k_omega(provider: ClassNumberProvider, sign: int, n: int, q: int) -> int:
    """k(Omega^sign_n(q)) from a direct entry or from sum/difference
    entries via the exact linear reconstruction ((s+d)/2, (s-d)/2)."""
    label = "OmegaPlus" if sign == 1 else "OmegaMinus"
    direct = provider.lookup(label, n, q)
    if direct is not None:
        return direct
    s = provider.lookup("OmegaSum", n, q)
    d = provider.lookup("OmegaDiff", n, q)
    if s is not None and d is not None:
        if (s + d) % 2:
            raise DomainError("Omega sum/difference entries have mixed parity")
        return (s + sign * d) // 2
    raise DataMissing(f"classnum {label} {n} {q}")


def k_so(provider: ClassNumberProvider, sign: int, n: int, q: int) -> int:
    """k(SO^sign_n(q)), with the same sum/difference fallback."""
    label = "SOplus" if sign == 1 else "SOminus"
    direct = provider.lookup(label, n, q)
    if direct is not None:
        return direct
    s = provider.lookup("SOSum", n, q)
    d = provider.lookup("SODiff", n, q)
    if s is not None and d is not None:
        if (s + d) % 2:
            raise DomainError("SO sum/difference entries have mixed parity")
        return (s + sign * d) // 2
    raise DataMissing(f"classnum {label} {n} {q}")


def class_number_exact(spec: LieSpec, provider: ClassNumberProvider) -> int:
    """Exact class number of the group named by the spec, where one is
    defined: A/2A (via PSL/PSU), B, and the exceptional families with
    table-backed counts."""
    family, d, q = spec.family, spec.d, spec.q
    if family == "A":
        return provider.require("PSL", d + 1, q)
    if family == "2A":
        return provider.require("PSU", d + 1, q)
    if family == "B":
        if q % 2 == 0:
            # B_d(2^f) coincides with C_d(2^f) = Sp_2d(2^f), which is simple
            return provider.require("Sp", 2 * d, q)
        return provider.require("B", d, q)
    if family in EXACT_K_FAMILIES:
        return provider.require(family, spec.d, spec.Q)
    raise NotAvailable(
        f"no exact class-number function for family {family}; "
        "use class_number_lower_bound"
    )


def class_number_lower_bound(spec: LieSpec, level: int | None,
                             provider: ClassNumberProvider) -> int | Fraction:
    """Lower bound on the class number of the simple group at the given
    quality level; exact Fractions are returned when the printed formula
    is non-integral."""
    family, d, q = spec.family, spec.d, spec.q
    if family in ("A", "2A"):
        if level != 2:
            raise NotAvailable(messages.LEVEL_ONLY_2)
        return class_number_exact(spec, provider)
    if family in ("B", "C"):
        if level not in (1, 2):
            raise NotAvailable(messages.LEVEL_1_OR_2)
        if level == 1:
            return -(-q**d // math.gcd(2, q - 1))
        if family == "B":
            return class_number_exact(spec, provider)
        k_sp = provider.require("Sp", 2 * d, q)
        return -(-k_sp // math.gcd(2, q - 1))
    if family in ("D", "2D"):
        if level not in (1, 2):
            raise NotAvailable(messages.LEVEL_1_OR_2)
        sign = 1 if family == "D" else -1
        if level == 1:
            value = Fraction(q**d, math.gcd(2, q - 1) ** 2)
            return int(value) if value.denominator == 1 else value
        if q % 2 == 0:
            return k_omega(provider, sign, 2 * d, q)
        # q odd: the two printed case splits are mirrored between D and 2D
        half_so = Fraction(k_so(provider, sign, 2 * d, q), 2)
        ceil_half_omega = -(-k_omega(provider, sign, 2 * d, q) // 2)
        if family == "D":
            if q % 4 == 3 and d % 2 == 1:
                return int(half_so) if half_so.denominator == 1 else half_so
            return ceil_half_omega
        if q % 4 == 1 or d % 2 == 0:
            return int(half_so) if half_so.denominator == 1 else half_so
        return ceil_half_omega
    if family in ("E6", "2E6", "E7"):
        if level is not None:
            raise DomainError(
                f"family {family} has a single class-number bound; no levels"
            )
        label = {"E6": "InndiagE6", "2E6": "Inndiag2E6", "E7": "InndiagE7"}[family]
        k_inndiag = provider.require(label, spec.d, spec.Q)
        return -(-k_inndiag // outdiag_order(spec))
    if family in EXACT_K_FAMILIES:
        if level is not None:
            raise DomainError(
                f"family {family} has an exact class number; no levels"
            )
        return class_number_exact(spec, provider)
    raise DomainError(f"unknown family {family!r}")
