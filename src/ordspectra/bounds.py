"""Aut-orbit lower bounds, element-order-count upper bounds, and the
epsilon statistics, with quality-level dispatch and frozen messages.

Quality levels, read from the family's ``FAMILY_TABLE`` row:

* Aut-orbit bounds accept the row's ``omega`` levels: only 2 for A/2A,
  1 and 2 for B/C/D/2D; the exceptional families take no level at all.
* Element-order-count bounds accept the row's ``omicron`` levels: 1 and
  2 for B/C; A/2A/D/2D name levels 1, 2 and 3, but the level-3 method
  (counting orders sharply divisible by each power of p) is not
  reproduced here, so level 3 raises OutOfScope rather than the message
  reserved for levels the interface itself rejects.
* epsilon_q bounds take a pair of levels, one for each of the two, and
  accept every pair in ``omega`` x ``omicron``.  ``messages.LEVELS`` and
  ``messages.COMBOS`` give the refusal of a level or pair outside them.

All divisions stay exact rationals until the final log-log step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import arith, messages
from .class_numbers import ClassNumberProvider, class_number_lower_bound
from .errors import DataMissing, DomainError, NotAvailable, OutOfScope
from .lie_catalog import (
    CLASSICAL_FAMILIES,
    FAMILY_TABLE,
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
class EpsilonResult:
    """An epsilon bound with the exact ingredients it was computed from."""

    value: float
    omega_bound: int | Fraction | None
    omicron_bound: int | None
    loglog_order: float


def _p_power_orders(spec: LieSpec) -> int:
    """1 + ceil(log_p h), h the Coxeter number of the untwisted type: the
    count of p-power element orders that the bounds multiply by."""
    return 1 + arith.ceil_log(spec.p, FAMILY_TABLE[spec.family].coxeter(spec.d))


def _ceil_div(a: int | Fraction, b: int) -> int:
    return math.ceil(Fraction(a) / b)


def nr_aut_orbits_lower(spec: LieSpec, level: int | None = None,
                        provider: ClassNumberProvider | None = None) -> int:
    """ceil(class-number bound / |Out|), a lower bound on the number of
    Aut-orbits on the simple group."""
    if spec.family not in CLASSICAL_FAMILIES and level is not None:
        raise DomainError("exceptional families take no quality level")
    provider = provider if provider is not None else ClassNumberProvider()
    return _ceil_div(class_number_lower_bound(spec, level, provider), out_order(spec))


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
    times (1 + ceil(log_p h)), h = 30 its Coxeter number.
    """
    family, row = spec.family, FAMILY_TABLE[spec.family]
    if row.classical:
        if level not in row.omicron:
            raise NotAvailable(messages.LEVELS[row.omicron])
        if level == 3:
            raise OutOfScope(
                "the level-3 sharply-divisible order counts are not reproduced here"
            )
        if level == 2:
            ss = nr_semisimple_orders(spec)
        else:
            ss = nr_semisimple_orders_bound(spec)
        return ss * _p_power_orders(spec)
    if level is not None:
        raise DomainError("exceptional families take no quality level")
    if family == "E8":
        return len(exceptional_semisimple(spec, spectra)) * _p_power_orders(spec)
    return len(exceptional_spectrum(spec, spectra))


def epsilon_q_lower(spec: LieSpec, levels: tuple[int, int] | None = None,
                    provider: ClassNumberProvider | None = None,
                    spectra: SpectrumProvider | None = None) -> EpsilonResult:
    """log log (omega-bound / omicron-bound + 3) / log log |S|, with the
    quotient held as an exact rational until the logs."""
    row = FAMILY_TABLE[spec.family]
    if row.classical:
        if levels is None or levels[0] not in row.omega or levels[1] not in row.omicron:
            raise NotAvailable(messages.COMBOS[row.omega, row.omicron])
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
    q_fixed = 2 ** FAMILY_TABLE[family].t
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
    return _epsilon_q_from_parts(numerator, oss_90 * _p_power_orders(spec),
                                 group_order(spec))
