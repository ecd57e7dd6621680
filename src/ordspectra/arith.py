"""Exact integer utilities: divisor counts, lcm, primes, integer logs,
and overflow-safe log-log of huge integers.

Integers of any size are plain Python ``int`` (arbitrary precision), so
"BigNat" throughout the package simply means a nonnegative ``int``.
Approximate reals are floats produced by routines that guarantee the
documented relative error regardless of the magnitude of the inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CapacityError, DomainError

LN2 = math.log(2)

#: Trial-division bound used before switching to Pollard rho.
_TRIAL_BOUND = 100_000

#: Cap on Pollard rho iterations per factor.
DEFAULT_RHO_EFFORT = 2_000_000

# Test-visible instrumentation: factorization work counters.
counters = {"trial_divisions": 0, "rho_rounds": 0}


def reset_counters() -> None:
    counters["trial_divisions"] = 0
    counters["rho_rounds"] = 0


# ---------------------------------------------------------------------------
# primes


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending. ``limit < 2`` gives the empty list."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(limit + 1) if sieve[i]]


_SMALL_PRIMES = primes_up_to(1000)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24; strong-base test beyond."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # These bases are a deterministic witness set below 3.3 * 10^24; for
    # larger n they make an extremely strong probable-prime test.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# factorization (trial division + Pollard rho with an effort cap)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, or raise CapacityError."""
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        count = 0
        while d == 1:
            count += 1
            counters["rho_rounds"] += 1
            if count > DEFAULT_RHO_EFFORT:
                break
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if 1 < d < n:
            return d
        if count > DEFAULT_RHO_EFFORT:
            raise CapacityError(
                f"factorization effort cap exceeded for {n}", needed=count
            )
    raise CapacityError(f"factorization failed for {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime-power decomposition of n >= 1 as sorted (prime, exponent) pairs.

    The product of p**k over the pairs equals n; all bases are prime.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p <= _TRIAL_BOUND:
        counters["trial_divisions"] += 1
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(factors.items())


def nr_divisors(n: int) -> int:
    """Number of positive divisors of n >= 1, via the factorization only.

    Computed as the product of (exponent + 1) over the prime-power
    decomposition; the divisor list itself is never materialized.
    """
    if n < 1:
        raise DomainError("nr_divisors requires n >= 1")
    result = 1
    for _, k in factorize(n):
        result *= k + 1
    return result


def lcm_list(values) -> int:
    """Least common multiple of a list of positive integers; [] gives 1."""
    result = 1
    for v in values:
        if v < 1:
            raise DomainError("lcm_list entries must be >= 1")
        result = result // math.gcd(result, v) * v
    return result


# ---------------------------------------------------------------------------
# integer logarithms (exact powering, no floats)


def ceil_log(base: int, n: int) -> int:
    """Smallest e with base**e >= n (base >= 2, n >= 1)."""
    if base < 2 or n < 1:
        raise DomainError("ceil_log requires base >= 2 and n >= 1")
    e = 0
    power = 1
    while power < n:
        e += 1
        power *= base
    return e


# ---------------------------------------------------------------------------
# log / log-log of huge integers and exact rationals
#
# Floats overflow near 2**1024, so ln of a big integer is computed from the
# bit length and the top 64 bits: n = m * 2**e with m in [1, 2) gives
# ln n = e*ln2 + ln m, exact to ~1e-15 relative error at any magnitude.


def ln_int(n: int) -> float:
    """Natural log of n >= 1 with ~1e-15 relative accuracy at any size."""
    if n < 1:
        raise DomainError("ln_int requires n >= 1")
    e = n.bit_length() - 1
    if e <= 63:
        return math.log(n)
    m = (n >> (e - 63)) / float(1 << 63)  # top 64 bits, in [1, 2)
    return e * LN2 + math.log(m)


def frac_log(num: int, den: int = 1) -> float:
    """Natural log of the positive rational num/den, without cancellation.

    The quotient is normalized to m * 2**e with m in [1, 2) using exact
    integer shifts, so the result is accurate to ~1e-15 relative error
    even when num and den are both astronomically large.
    """
    if num < 1 or den < 1:
        raise DomainError("frac_log requires a positive rational")
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        shifted_den = den << e
    else:
        num = num << -e
        shifted_den = den
    m = ((num << 64) // shifted_den) / float(1 << 64)  # in [0.5, 2)
    return e * LN2 + math.log(m)


def log_log(n: int) -> float:
    """log(log n) for an integer n >= 3, safe for arbitrarily large n."""
    if n <= 2:
        raise DomainError("log_log requires n >= 3")
    return math.log(ln_int(n))


def log_log_fraction(x: Fraction) -> float:
    """log(log x) for an exact rational x with log(x) > 0 (i.e. x > 1)."""
    if x <= 1:
        raise DomainError("log_log_fraction requires x > 1")
    inner = frac_log(x.numerator, x.denominator)
    return math.log(inner)


# ---------------------------------------------------------------------------
# prime powers


def prime_power_split(n: int) -> tuple[int, int] | None:
    """(p, f) with n = p**f if n >= 2 is a prime power, else None."""
    if n < 2:
        return None
    factors = factorize(n)
    if len(factors) != 1:
        return None
    return factors[0]


def factored_qn_pm1(q: int, n: int, sign: int) -> dict[int, int]:
    """Factorization of q**n - 1 (sign=-1) or q**n + 1 (sign=+1).

    Splits along cyclotomic polynomials: q**n - 1 is the product of
    Phi_d(q) over the divisors d of n, and q**n + 1 = (q**2n - 1)/(q**n - 1)
    is the product over the divisors d of 2n that do not divide n, so both
    reduce to factoring the much smaller cyclotomic values.
    """
    if sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    m = n if sign == -1 else 2 * n
    out: dict[int, int] = {}
    for d in range(1, m + 1):
        if m % d or (sign == 1 and n % d == 0):
            continue
        for p, k in factorize(_cyclotomic_value(d, q)):
            out[p] = out.get(p, 0) + k
    return out


def _cyclotomic_value(d: int, q: int) -> int:
    """Phi_d(q) by Moebius product over divisors of d."""
    num = 1
    den = 1
    for e in range(1, d + 1):
        if d % e:
            continue
        mu = _moebius(d // e)
        if mu == 1:
            num *= q**e - 1
        elif mu == -1:
            den *= q**e - 1
    assert num % den == 0
    return num // den


def _moebius(n: int) -> int:
    result = 1
    for _, k in factorize(n):
        if k > 1:
            return 0
        result = -result
    return result
