"""Aut-orbit lower bounds, element-order-count upper bounds, and the
epsilon statistics, with quality-level dispatch and frozen messages.

Quality levels:

* Aut-orbit bounds: families A/2A accept only level 2; B/C/D/2D accept
  1 and 2; the exceptional families take no level at all.
* Element-order-count bounds: B/C accept 1 and 2; A/2A/D/2D name levels
  1, 2 and 3, but the level-3 method (counting orders sharply divisible
  by each power of p) is not reproduced here, so level 3 raises
  OutOfScope rather than the message reserved for levels the interface
  itself rejects.
* epsilon_q bounds take a pair of levels, one for each of the two;
  ``LEVELS`` holds the accepted levels and their messages per family.

All divisions stay exact rationals until the final log-log step.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from . import arith, messages
from .class_numbers import ClassNumberProvider, class_number_lower_bound
from .errors import DataMissing, DomainError, NotAvailable, OutOfScope
from .lie_catalog import (
    CLASSICAL_FAMILIES,
    LieSpec,
    group_order,
    make_spec,
    out_order,
)
from .torus_spectra import (
    SpectrumProvider,
    exceptional_semisimple,
    exceptional_spectrum,
    nr_semisimple_orders,
    nr_semisimple_orders_bound,
)


@dataclass(frozen=True)
class FamilyLevels:
    """A classical family's accepted levels of the Aut-orbit (omega) and
    element-order-count (omicron) bounds, the frozen message refusing
    any other, and the multiplier M in the count (1 + ceil(log_p M)) of
    p-power element orders.  epsilon_q takes any (omega, omicron) pair.
    """

    omega: tuple[int, ...]
    omega_message: str
    omicron: tuple[int, ...]
    omicron_message: str
    epsilon_q_message: str
    p_part: Callable[[int], int]

    @property
    def epsilon_q(self) -> tuple[tuple[int, int], ...]:
        return tuple(itertools.product(self.omega, self.omicron))


#: The level table of the classical families, one row per shape.
LEVELS = {family: row for families, row in (
    (("A", "2A"), FamilyLevels((2,), messages.LEVEL_ONLY_2,
                               (1, 2, 3), messages.LEVEL_1_2_OR_3,
                               messages.COMBO_A, lambda d: d + 1)),
    (("B", "C"), FamilyLevels((1, 2), messages.LEVEL_1_OR_2,
                              (1, 2), messages.LEVEL_1_OR_2,
                              messages.COMBO_BC, lambda d: 2 * d)),
    (("D", "2D"), FamilyLevels((1, 2), messages.LEVEL_1_OR_2,
                               (1, 2, 3), messages.LEVEL_1_2_OR_3,
                               messages.COMBO_D, lambda d: 2 * d - 2)),
) for family in families}


@dataclass(frozen=True)
class EpsilonResult:
    """An epsilon bound with the exact ingredients it was computed from."""

    value: float
    omega_bound: int | Fraction | None
    omicron_bound: int | None
    loglog_order: float


def _ceil_div(a: int | Fraction, b: int) -> int:
    return math.ceil(Fraction(a) / b)


def nr_aut_orbits_lower(spec: LieSpec, level: int | None = None,
                        provider: ClassNumberProvider | None = None) -> int:
    """ceil(class-number bound / |Out|), a lower bound on the number of
    Aut-orbits on the simple group."""
    family = spec.family
    provider = provider if provider is not None else ClassNumberProvider()
    if family in CLASSICAL_FAMILIES:
        if level not in LEVELS[family].omega:
            raise NotAvailable(LEVELS[family].omega_message)
        k_bound = class_number_lower_bound(spec, level, provider)
    else:
        if level is not None:
            raise DomainError("exceptional families take no quality level")
        k_bound = class_number_lower_bound(spec, None, provider)
    return _ceil_div(k_bound, out_order(spec))


def epsilon_omega_lower(spec: LieSpec, level: int | None = None,
                        provider: ClassNumberProvider | None = None) -> EpsilonResult:
    """log log (Aut-orbit bound) / log log |S|."""
    omega = nr_aut_orbits_lower(spec, level, provider)
    if omega < 3:
        raise DomainError(
            f"Aut-orbit bound {omega} is below 3; log log is not positive"
        )
    loglog_order = arith.log_log(group_order(spec))
    value = arith.log_log(omega) / loglog_order
    return EpsilonResult(value=value, omega_bound=omega, omicron_bound=None,
                         loglog_order=loglog_order)


def nr_element_orders_upper(spec: LieSpec, level: int | None = None,
                            spectra: SpectrumProvider | None = None) -> int:
    """Upper bound on the number of element orders.

    Classical families: (semisimple-order count bound at the level)
    times the exact count of p-power orders.  Exceptional families with
    a full spectrum return the exact count; E8 uses its semisimple count
    times (1 + ceil(log_p 30)).
    """
    family = spec.family
    if family in CLASSICAL_FAMILIES:
        if level not in LEVELS[family].omicron:
            raise NotAvailable(LEVELS[family].omicron_message)
        if level == 3:
            raise OutOfScope(
                "the level-3 sharply-divisible order counts are not reproduced here"
            )
        if level == 2:
            ss = nr_semisimple_orders(spec)
        else:
            ss = nr_semisimple_orders_bound(spec)
        m = LEVELS[family].p_part(spec.d)
        return ss * (1 + arith.ceil_log(spec.p, m))
    if level is not None:
        raise DomainError("exceptional families take no quality level")
    if family == "E8":
        ss = len(exceptional_semisimple(spec, spectra))
        return ss * (1 + arith.ceil_log(spec.p, 30))
    return len(exceptional_spectrum(spec, spectra))


def epsilon_q_lower(spec: LieSpec, levels: tuple[int, int] | None = None,
                    provider: ClassNumberProvider | None = None,
                    spectra: SpectrumProvider | None = None) -> EpsilonResult:
    """log log (omega-bound / omicron-bound + 3) / log log |S|, with the
    quotient held as an exact rational until the logs."""
    family = spec.family
    if family in CLASSICAL_FAMILIES:
        if levels is None or tuple(levels) not in LEVELS[family].epsilon_q:
            raise NotAvailable(LEVELS[family].epsilon_q_message)
        l1, l2 = levels
        omega = nr_aut_orbits_lower(spec, l1, provider)
        omicron = nr_element_orders_upper(spec, l2, spectra)
    else:
        if levels is not None:
            raise DomainError("exceptional families take no quality levels")
        omega = nr_aut_orbits_lower(spec, None, provider)
        omicron = nr_element_orders_upper(spec, None, spectra)
    return _epsilon_q_from_parts(omega, omicron, group_order(spec))


def _epsilon_q_from_parts(omega: int | Fraction, omicron: int,
                          order: int) -> EpsilonResult:
    x = Fraction(omega, omicron) + 3
    loglog_order = arith.log_log(order)
    value = arith.log_log_fraction(x) / loglog_order
    return EpsilonResult(value=value, omega_bound=omega, omicron_bound=omicron,
                         loglog_order=loglog_order)


# ---------------------------------------------------------------------------
# the fixed-field-size variants used for mid-range ranks


def epsilon_q_fixed_small_q(family: str, d: int, constants: dict,
                            provider: ClassNumberProvider | None = None) -> EpsilonResult:
    """The per-family display with the semisimple-count factor frozen at
    rank 90: a lower bound on epsilon_q at the family's fixed field size
    (2, or 4 for the twisted families) when d <= 90.

    The rank-90 semisimple counts are expensive to recompute, so they
    are read from the constants store (names like ``oss_B_90_2``);
    missing constants fail closed.
    """
    if family not in CLASSICAL_FAMILIES:
        raise DomainError("fixed-small-q bounds exist for classical families only")
    if not 54 <= d <= 90:
        warnings.warn(f"d = {d} is outside the intended range 54..90")
    q_fixed = 4 if family in ("2A", "2D") else 2
    const_name = f"oss_{family}_90_{q_fixed}"
    if const_name not in constants:
        raise DataMissing(f"constant {const_name}")
    oss_90 = int(constants[const_name])
    spec = make_spec(family, d, q_fixed)
    if family == "A":
        numerator: int | Fraction = 2 ** (d - 1)
    elif family == "2A":
        numerator = Fraction(2**d, 2 * math.gcd(d + 1, 3) ** 2)
    else:
        numerator = nr_aut_orbits_lower(spec, 2, provider)
    log_count = 1 + arith.ceil_log(2, LEVELS[family].p_part(d))
    return _epsilon_q_from_parts(numerator, oss_90 * log_count, group_order(spec))
