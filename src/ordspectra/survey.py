"""Uniform epsilon lower bounds and candidate-exception searches.

The displayed expressions are evaluated at 50 decimal digits.  Sign
decisions that determine a typed Undefined result are made exactly
where the expression is rational in logs of integers (an integer power
comparison) and otherwise at 50 digits with a 1e-20 guard band; a value
inside the band raises PrecisionError rather than guessing.  The
package never emits NaN: the Undefined singleton stands in for every
"not a number" output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import arith, bounds
from .class_numbers import ClassNumberProvider
from .errors import (DataMissing, DomainError, NotAvailable, OrdspectraError,
                     PrecisionError)
from .lie_catalog import EXCEPTIONAL_RANK, FAMILY_TABLE, LieSpec, make_spec
from .sym_partitions import g2
from .torus_spectra import SpectrumProvider
from . import messages

_DPS = 50
_GUARD = mpmath.mpf("1e-20")


class _UndefinedType:
    """Typed stand-in for the paper-level "nan" outputs."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Undefined"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _UndefinedType()


def _guarded_sign(x) -> int:
    """Sign of a 50-digit quantity, refusing to decide inside the band."""
    if abs(x) < _GUARD:
        raise PrecisionError("sign decision falls inside the 1e-20 guard band")
    return 1 if x > 0 else -1


def _log_q(q) -> "mpmath.mpf":
    """log q where q is an int or an exact (p, e2) meaning p**(e2/2)."""
    if isinstance(q, tuple):
        p, e2 = q
        return mpmath.mpf(e2) / 2 * mpmath.log(p)
    return mpmath.log(q)


def _q_value(q) -> "mpmath.mpf":
    if isinstance(q, tuple):
        p, e2 = q
        return mpmath.power(p, mpmath.mpf(e2) / 2)
    return mpmath.mpf(q)


def _log_ratio(inner, d: int, shift=0):
    """Undefined when the 50-digit ``inner`` is negative, else
    (log(inner) + shift) / (log(4 d**2) + shift)."""
    if _guarded_sign(inner) < 0:
        return UNDEFINED
    return float((mpmath.log(inner) + shift) / (mpmath.log(4 * d * d) + shift))


def epsilon_omega_general2(d: int):
    """Uniform lower bound at field parameter 2; Undefined when the
    leading log argument is nonpositive (exactly when 2**d <= 6(d+1)**2,
    an exact integer test)."""
    if d < 3:
        raise DomainError("d must be >= 3")
    if 2**d <= 6 * (d + 1) ** 2:
        return UNDEFINED
    with mpmath.workdps(_DPS):
        ln2 = mpmath.log(2)
        inner = d - 2 * mpmath.log(d + 1) / ln2 - mpmath.log(6) / ln2
        return _log_ratio(inner, d, mpmath.log(ln2))


def epsilon_omega_general3(d: int, q):
    """Uniform lower bound for field parameter q > 2; q may be an exact
    irrational (p, e2) pair for the Suzuki/Ree field sizes."""
    if d < 3:
        raise DomainError("d must be >= 3")
    with mpmath.workdps(_DPS):
        if _q_value(q) <= 2:
            raise DomainError("q must exceed 2")
        logq = _log_q(q)
        inner = (d - 2 * mpmath.log(d + 1) / logq - mpmath.log(6) / logq
                 - 1 / (mpmath.e * mpmath.log(2)))
        return _log_ratio(inner, d)


def epsilon_q_classical1(d: int, kind: int):
    """The four uniform classical epsilon_q displays; ``kind`` selects
    the variant (1, 2: small ranks via the 2*pi/sqrt(3) term; 3, 4:
    large ranks via log g2(d))."""
    if kind not in (1, 2, 3, 4):
        raise NotAvailable(messages.TYPE_1_2_3_OR_4)
    if d < 1:
        raise DomainError("d must be >= 1")
    with mpmath.workdps(_DPS):
        ln2 = mpmath.log(2)
        ln3 = mpmath.log(3)
        tail = mpmath.log(2 + mpmath.log(2 * d) / ln2)
        if kind == 1:
            inner = ((1 - ln3 / mpmath.log(4)) * d
                     - (2 * mpmath.pi / mpmath.sqrt(3) * mpmath.sqrt(d)
                        + 3 * mpmath.log(d + 1) + tail + mpmath.log(4)) / ln2)
            return _log_ratio(inner, d, mpmath.log(ln2))
        if kind == 2:
            inner = ((1 - mpmath.log(4) / mpmath.log(9)) * d
                     - (2 * mpmath.pi / mpmath.sqrt(3) * mpmath.sqrt(d)
                        + 3 * mpmath.log(d + 1) + tail + mpmath.log(4)) / ln3
                     - 1 / (mpmath.e * ln2))
            return _log_ratio(inner, d)
        lg2 = mpmath.log(g2(d))
        if kind == 3:
            inner = ((1 - mpmath.mpf("0.311") * ln3 / ln2) * d
                     - (lg2 + 2 * ln3 + tail + ln2) / ln2)
            return _log_ratio(inner, d, mpmath.log(ln2))
        inner = ((1 - mpmath.log(4) / mpmath.log(27)) * d
                 - (lg2 + 2 * mpmath.log(d + 1) + tail + ln2) / ln3
                 - 1 / (mpmath.e * ln2))
        return _log_ratio(inner, d)


def epsilon_q_classical2(d: int, q: int):
    """Per-(d, q) classical epsilon_q lower bound; Undefined when the
    log-log argument is <= 1."""
    if d < 1:
        raise DomainError("d must be >= 1")
    if arith.prime_power_split(q) is None:
        raise DomainError("q must be a prime power")
    with mpmath.workdps(_DPS):
        log2q = mpmath.log(q) / mpmath.log(2)
        if d == 1:
            arg = (q + 1) / (8 * log2q * (mpmath.sqrt((q + 1) / mpmath.mpf(2))
                                          + mpmath.sqrt((q - 1) / mpmath.mpf(2))))
            if _guarded_sign(arg - 1) < 0:
                return UNDEFINED
            return float(mpmath.log(mpmath.log(arg))
                         / mpmath.log(mpmath.log(q * (q * q - 1))))
        c_d = 6 if d == 4 else 2
        denominator = (2 * c_d * log2q * min(d + 1, q + 1) ** 2 * g2(d)
                       * (1 + arith.ceil_log(2, 2 * d))
                       * mpmath.power(q + 1, mpmath.mpf(d) / 2))
        arg = mpmath.power(q, d) / denominator
        if _guarded_sign(arg - 1) < 0:
            return UNDEFINED
        return float(mpmath.log(mpmath.log(arg))
                     / mpmath.log(4 * d * d * mpmath.log(q)))


# ---------------------------------------------------------------------------
# thresholds and exception searches


@dataclass(frozen=True)
class Q0Table:
    """Per-key field-size cutoffs: keys are classical ranks (ints) or
    exceptional family symbols."""

    rows: dict

    def get(self, key):
        return self.rows.get(key)


@dataclass(frozen=True)
class ThresholdConfig:
    epsilon_omega_alt5: float
    epsilon_q_monster: float

    def __post_init__(self):
        if not (0 < self.epsilon_omega_alt5 < 1 and 0 < self.epsilon_q_monster < 1):
            raise DomainError("epsilon thresholds must lie in (0, 1)")


def make_thresholds(constants: dict) -> ThresholdConfig:
    """Alt(5)'s epsilon_omega is computed (orbit count 4, order 60); the
    Monster ingredients must be ingested and fail closed."""
    alt5 = arith.log_log(4) / arith.log_log(60)
    for name in ("monster_omega", "monster_omicron", "monster_order"):
        if name not in constants:
            raise DataMissing(f"constant {name}")
    x = Fraction(int(constants["monster_omega"]),
                 int(constants["monster_omicron"])) + 3
    monster = arith.log_log_fraction(x) / arith.log_log(int(constants["monster_order"]))
    return ThresholdConfig(epsilon_omega_alt5=alt5, epsilon_q_monster=monster)


@dataclass(frozen=True)
class ExceptionCandidate:
    family: str
    d: int
    Q: int
    bound: float | None  # None: no bound evaluable, kept conservatively
    reason: str

    def sort_key(self):
        return (self.family, self.d, self.Q)


def prime_powers_below(limit: int) -> list[int]:
    """The prime powers p**f (f >= 1) below ``limit``, ascending."""
    out = []
    for p in arith.primes_up_to(limit - 1):
        power = p
        while power < limit:
            out.append(power)
            power *= p
    return sorted(out)


def _valid_Q_values(family: str, q0: int) -> list[int]:
    """The field parameters Q of an exceptional family below q0: the odd
    powers p^3, p^5, ... below q0 for the Suzuki/Ree families, else
    q^t for each prime power q below q0."""
    row = FAMILY_TABLE[family]
    if row.sqrt_p:
        p = row.sqrt_p
        out, Q = [], p**3
        while Q < q0:
            out.append(Q)
            Q *= p * p
        return out
    return [q ** row.t for q in prime_powers_below(q0)]


def _specs(q0: Q0Table, kinds):
    """The groups named by the q0 rows whose keys are of type ``kinds``
    (int: a classical rank, str: an exceptional family), leaving out the
    flagged (non-simple) parameter points.  The ranks come from the
    highest down, so that the first level-1 pass per block model and q
    is the largest and serves every lower rank."""
    keys = [key for key in q0.rows if isinstance(key, kinds)]
    ranks = sorted((key for key in keys if isinstance(key, int)), reverse=True)
    for key in ranks + sorted(key for key in keys if isinstance(key, str)):
        cutoff = q0.rows[key]
        if isinstance(key, int):
            points = [(family, key, q ** row.t)
                      for q in prime_powers_below(cutoff)
                      for family, row in FAMILY_TABLE.items()
                      if row.classical and key >= row.rank]
        else:
            points = [(key, None, Q) for Q in _valid_Q_values(key, cutoff)]
        for family, d, Q in points:
            spec = make_spec(family, d, Q)
            if not spec.warning:
                yield spec


def _search(q0: Q0Table, kinds, threshold: float, best) -> list[ExceptionCandidate]:
    """Keep every group whose best bound ``best(spec) -> (value, how)``
    is missing or does not exceed ``threshold``."""
    out = []
    for spec in _specs(q0, kinds):
        value, how = best(spec)
        if value is None or value <= threshold:
            out.append(ExceptionCandidate(
                spec.family, spec.d, spec.Q, value,
                how if value is not None else f"unavailable: {how}"))
    return sorted(out, key=ExceptionCandidate.sort_key)


def _best_epsilon_omega(spec: LieSpec, provider: ClassNumberProvider):
    """Best available epsilon_omega lower bound: data-backed levels first,
    then the data-free uniform expressions."""
    if spec.family in EXCEPTIONAL_RANK:
        return None, "no data"
    for level in (2, 1):
        if level not in FAMILY_TABLE[spec.family].omega:
            continue
        try:
            return bounds.epsilon_omega_lower(spec, level, provider).value, f"level {level}"
        except (DataMissing, NotAvailable, DomainError):
            continue
    if spec.d < 3:
        return None, "no data-free bound below rank 3"
    if spec.q == 2:
        value = epsilon_omega_general2(spec.d)
    else:
        q_arg = (spec.p, spec.f2) if spec.q is None else spec.q
        value = epsilon_omega_general3(spec.d, q_arg)
    if value is UNDEFINED:
        return None, "uniform bound undefined"
    return value, "uniform"


def exceptions_omega(q0: Q0Table, thresholds: ThresholdConfig,
                     provider: ClassNumberProvider | None = None,
                     strict: bool = False) -> list[ExceptionCandidate]:
    """Candidate groups whose epsilon_omega bound fails to exceed the
    Alt(5) threshold.

    The contract is containment: a candidate with no evaluable bound is
    kept.  With ``strict`` the classical keys 3..18 must all be covered.
    """
    provider = provider if provider is not None else ClassNumberProvider()
    if strict:
        missing = [d for d in range(3, 19) if q0.get(d) is None]
        if missing:
            raise DataMissing(f"q0 rows for ranks {missing}")
    return _search(q0, (int, str), thresholds.epsilon_omega_alt5,
                   lambda spec: _best_epsilon_omega(spec, provider))


def _best_epsilon_q_classical(spec: LieSpec, provider, spectra):
    row = FAMILY_TABLE[spec.family]
    for pair in ((2, 2), (2, 1), (1, 1)):
        if pair[0] not in row.omega or pair[1] not in row.omicron:
            continue
        try:
            return bounds.epsilon_q_lower(spec, pair, provider, spectra).value, f"levels {pair}"
        except OrdspectraError:
            continue
    if spec.q is not None:
        value = epsilon_q_classical2(spec.d, spec.q)
        if value is not UNDEFINED:
            return value, "uniform"
    return None, "no bound evaluable"


def exceptions_q_classical(q0: Q0Table, thresholds: ThresholdConfig,
                           provider: ClassNumberProvider | None = None,
                           spectra: SpectrumProvider | None = None
                           ) -> list[ExceptionCandidate]:
    """Classical candidates whose epsilon_q bound fails to exceed the
    Monster threshold; containment contract as for exceptions_omega."""
    provider = provider if provider is not None else ClassNumberProvider()
    return _search(q0, int, thresholds.epsilon_q_monster,
                   lambda spec: _best_epsilon_q_classical(spec, provider, spectra))


def _best_epsilon_q_exceptional(spec: LieSpec, provider, spectra):
    try:
        return bounds.epsilon_q_lower(spec, None, provider, spectra).value, "exact ingredients"
    except OrdspectraError as exc:
        return None, type(exc).__name__


def exceptions_q_exceptional(q0: Q0Table, thresholds: ThresholdConfig,
                             provider: ClassNumberProvider | None = None,
                             spectra: SpectrumProvider | None = None
                             ) -> list[ExceptionCandidate]:
    """Exceptional-family candidates for the Monster epsilon_q threshold."""
    provider = provider if provider is not None else ClassNumberProvider()
    return _search(q0, str, thresholds.epsilon_q_monster,
                   lambda spec: _best_epsilon_q_exceptional(spec, provider, spectra))
