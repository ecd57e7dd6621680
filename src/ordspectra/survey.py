"""Uniform epsilon lower bounds and candidate-exception searches.

The displayed expressions are evaluated in binary fixed point: an int v
stands for the real v / 2**176, so one unit u = 2**-176 is about 1e-53,
finer than 50 decimal digits.  Sums and products by integers are exact;
a quotient, a product of two reals, a sqrt and an ln each round once, by
less than 2u (ln works 32 bits finer and rounds at the end, which holds
for arguments below 2**(2**20)).  That error is absolute, and ln turns
an absolute error a in its argument x into an error of about a/x.
Every ln argument is of one of three kinds:

* an integer of at least 1, which is exact;
* ``inner``: a sum of at most a dozen rounded terms, each built from at
  most d times a few rounded values, so off by less than 2**10 d u.  It
  has passed the 1e-20 guard band, so x >= 1e-20 and its ln is off by
  less than 2**10 d u * 1e20 < d * 2e-30;
* ``arg``: a quotient q**d / D, where each factor of D is an integer or
  a rounded real of at least 1, so arg is off by less than 2**6 u
  relative.  ``arg - 1`` has passed the guard band, so ln(arg) is at
  least 1e-20 / 2 and off by less than 2**7 u, and ln(ln(arg)) is off by
  less than 2**8 u * 1e20 < 1e-30.

Each display is a ratio of two such logs, of size at most 50, whose
denominator is at least 1/2, so it lies within d * 1e-29 of the true
value.  For d up to 1000 that is about 10**8 times less than half a
unit in the last place of a double of size 0.01, so the float is the
one that 50-digit evaluation gives unless the true value lies that
close to the midpoint of two doubles.

Sign decisions that determine a typed Undefined result are made exactly
where the expression is rational in logs of integers (an integer power
comparison) and otherwise in fixed point with a 1e-20 guard band; a
value inside the band raises PrecisionError rather than guessing.  The
package never emits NaN: the Undefined singleton stands in for every
"not a number" output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import arith, bounds
from .class_numbers import ClassNumberProvider
from .errors import (DataMissing, DomainError, NotAvailable, OrdspectraError,
                     PrecisionError)
from .lie_catalog import EXCEPTIONAL_RANK, FAMILY_TABLE, LieSpec, make_spec
from .sym_partitions import g2
from .torus_spectra import SpectrumProvider
from . import messages

_P = 176          # fraction bits of a _Real
_G = 32           # extra bits inside ln and the constants
_W = _P + _G
_GUARD = (1 << _P) // 10**20


class _Real:
    """The real number v / 2**_P for an int v; ints mix in exactly."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def __add__(self, other):
        return _Real(self.v + _fixed(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _Real(self.v - _fixed(other))

    def __rsub__(self, other):
        return _Real(_fixed(other) - self.v)

    def __mul__(self, other):
        if isinstance(other, _Real):
            return _Real(self.v * other.v >> _P)
        return _Real(self.v * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Real):
            return _Real((self.v << _P) // other.v)
        return _Real(self.v // other)

    def __rtruediv__(self, other):
        return _Real((other << 2 * _P) // self.v)

    def __le__(self, other) -> bool:
        return self.v <= _fixed(other)

    def __float__(self) -> float:
        return self.v / (1 << _P)  # int true division rounds correctly


def _fixed(x) -> int:
    return x.v if isinstance(x, _Real) else x << _P


def _atanh(z: int) -> int:
    """atanh of z / 2**_W for 0 <= z < 2**_W, at _W bits."""
    zz = z * z >> _W
    total = term = z
    k = 1
    while term:
        term = term * zz >> _W
        k += 2
        total += term // k
    return total


def _acot(x: int) -> int:
    """atan(1/x) for an int x >= 2, at _W bits."""
    total = term = (1 << _W) // x
    k, sign = 1, 1
    while term:
        term //= x * x
        k += 2
        sign = -sign
        total += sign * (term // k)
    return total


@lru_cache(maxsize=None)
def _constants():
    """(ln(1 + j/16) for j = 0..16 at _W bits, pi, e), made on first use."""
    table = [2 * _atanh((j << _W) // (32 + j)) for j in range(17)]
    term, e, k = 1 << _W, 0, 0
    while term:
        e += term
        k += 1
        term //= k
    pi = 16 * _acot(5) - 4 * _acot(239)  # Machin
    return table, _Real(pi >> _G), _Real(e >> _G)


def _ln(x) -> _Real:
    """ln of a positive int or _Real: x = 2**s * m with m in [1, 2), then
    m = (1 + j/16) * y with j nearest and |y - 1| <= 1/32, whose atanh
    series in z = (y - 1)/(y + 1) gains 12 bits a term."""
    v = _fixed(x)
    if v <= 0:
        raise DomainError("ln needs a positive argument")
    table = _constants()[0]
    top = v.bit_length() - 1
    m = v >> (top - _W) if top >= _W else v << (_W - top)
    j = (m - (1 << _W) + (1 << (_W - 5))) >> (_W - 4)
    c = (16 + j) << (_W - 4)
    s = _atanh((abs(m - c) << _W) // (m + c))
    ln_m = table[j] + 2 * (s if m >= c else -s)
    return _Real(((top - _P) * table[16] + ln_m) >> _G)


def _sqrt(x) -> _Real:
    return _Real(math.isqrt(_fixed(x) << _P))


def _power_half(n: int, k: int):
    """n**(k/2): an exact int power, times one sqrt(n) when k is odd."""
    return _sqrt(n) * n ** (k // 2) if k % 2 else n ** (k // 2)


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


def _guarded_sign(x: _Real) -> int:
    """Sign of a fixed-point quantity, refusing to decide inside the band."""
    if abs(x.v) < _GUARD:
        raise PrecisionError("sign decision falls inside the 1e-20 guard band")
    return 1 if x.v > 0 else -1


def _log_q(q) -> _Real:
    """log q where q is an int or an exact (p, e2) meaning p**(e2/2)."""
    if isinstance(q, tuple):
        p, e2 = q
        return _ln(p) * e2 / 2
    return _ln(q)


def _q_value(q):
    if isinstance(q, tuple):
        p, e2 = q
        return _power_half(p, e2)
    return q


def _log_ratio(inner: _Real, d: int, shift=0):
    """Undefined when ``inner`` is negative, else
    (log(inner) + shift) / (log(4 d**2) + shift)."""
    if _guarded_sign(inner) < 0:
        return UNDEFINED
    return float((_ln(inner) + shift) / (_ln(4 * d * d) + shift))


def epsilon_omega_general2(d: int):
    """Uniform lower bound at field parameter 2; Undefined when the
    leading log argument is nonpositive (exactly when 2**d <= 6(d+1)**2,
    an exact integer test)."""
    if d < 3:
        raise DomainError("d must be >= 3")
    if 2**d <= 6 * (d + 1) ** 2:
        return UNDEFINED
    ln2 = _ln(2)
    inner = d - 2 * _ln(d + 1) / ln2 - _ln(6) / ln2
    return _log_ratio(inner, d, _ln(ln2))


def epsilon_omega_general3(d: int, q):
    """Uniform lower bound for field parameter q > 2; q may be an exact
    irrational (p, e2) pair for the Suzuki/Ree field sizes."""
    if d < 3:
        raise DomainError("d must be >= 3")
    if _q_value(q) <= 2:
        raise DomainError("q must exceed 2")
    _, _, e = _constants()
    logq = _log_q(q)
    inner = (d - 2 * _ln(d + 1) / logq - _ln(6) / logq
             - 1 / (e * _ln(2)))
    return _log_ratio(inner, d)


def epsilon_q_classical1(d: int, kind: int):
    """The four uniform classical epsilon_q displays; ``kind`` selects
    the variant (1, 2: small ranks via the 2*pi/sqrt(3) term; 3, 4:
    large ranks via log g2(d))."""
    if kind not in (1, 2, 3, 4):
        raise NotAvailable(messages.TYPE_1_2_3_OR_4)
    if d < 1:
        raise DomainError("d must be >= 1")
    _, pi, e = _constants()
    ln2 = _ln(2)
    ln3 = _ln(3)
    tail = _ln(2 + _ln(2 * d) / ln2)
    if kind == 1:
        inner = ((1 - ln3 / _ln(4)) * d
                 - (2 * pi / _sqrt(3) * _sqrt(d)
                    + 3 * _ln(d + 1) + tail + _ln(4)) / ln2)
        return _log_ratio(inner, d, _ln(ln2))
    if kind == 2:
        inner = ((1 - _ln(4) / _ln(9)) * d
                 - (2 * pi / _sqrt(3) * _sqrt(d)
                    + 3 * _ln(d + 1) + tail + _ln(4)) / ln3
                 - 1 / (e * ln2))
        return _log_ratio(inner, d)
    lg2 = _ln(g2(d))
    if kind == 3:
        inner = ((1 - _Real((311 << _P) // 1000) * ln3 / ln2) * d
                 - (lg2 + 2 * ln3 + tail + ln2) / ln2)
        return _log_ratio(inner, d, _ln(ln2))
    inner = ((1 - _ln(4) / _ln(27)) * d
             - (lg2 + 2 * _ln(d + 1) + tail + ln2) / ln3
             - 1 / (e * ln2))
    return _log_ratio(inner, d)


def epsilon_q_classical2(d: int, q: int):
    """Per-(d, q) classical epsilon_q lower bound; Undefined when the
    log-log argument is <= 1."""
    if d < 1:
        raise DomainError("d must be >= 1")
    if arith.prime_power_split(q) is None:
        raise DomainError("q must be a prime power")
    log2q = _ln(q) / _ln(2)
    if d == 1:
        arg = (q + 1) / (8 * log2q * (_sqrt(_Real((q + 1) << _P) / 2)
                                      + _sqrt(_Real((q - 1) << _P) / 2)))
        if _guarded_sign(arg - 1) < 0:
            return UNDEFINED
        return float(_ln(_ln(arg)) / _ln(_ln(q * (q * q - 1))))
    c_d = 6 if d == 4 else 2
    denominator = (2 * c_d * log2q * min(d + 1, q + 1) ** 2 * g2(d)
                   * (1 + arith.ceil_log(2, 2 * d))
                   * _power_half(q + 1, d))
    arg = q**d / denominator
    if _guarded_sign(arg - 1) < 0:
        return UNDEFINED
    return float(_ln(_ln(arg)) / _ln(4 * d * d * _ln(q)))


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
