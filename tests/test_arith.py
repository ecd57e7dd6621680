import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordspectra import arith
from ordspectra.errors import DomainError


def brute_divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_nr_divisors_examples():
    assert arith.nr_divisors(1) == 1
    assert arith.nr_divisors(12) == 6
    assert arith.nr_divisors(2**10 * 3**5) == 66


def test_nr_divisors_rejects_zero():
    with pytest.raises(DomainError):
        arith.nr_divisors(0)


@given(st.integers(min_value=1, max_value=10_000))
@settings(max_examples=300)
def test_nr_divisors_matches_brute_force(n):
    assert arith.nr_divisors(n) == brute_divisor_count(n)


def test_lcm_list_examples():
    assert arith.lcm_list([]) == 1
    assert arith.lcm_list([4, 6]) == 12
    assert arith.lcm_list([3, 5, 7, 9]) == 315
    with pytest.raises(DomainError):
        arith.lcm_list([4, 0])


@given(st.lists(st.integers(min_value=1, max_value=50), max_size=6))
def test_lcm_list_properties(values):
    result = arith.lcm_list(values)
    for v in values:
        assert result % v == 0
    product = math.prod(values) if values else 1
    assert product % result == 0


def test_primes_up_to():
    assert arith.primes_up_to(10) == [2, 3, 5, 7]
    assert arith.primes_up_to(2) == [2]
    assert arith.primes_up_to(1) == []
    full = arith.primes_up_to(25013)
    assert full[-1] == 25013


def floor_log(base: int, n: int) -> int:
    """Largest e with base**e <= n (base >= 2, n >= 1): the reference
    that brackets ``arith.ceil_log``."""
    e = 0
    power = base
    while power <= n:
        e += 1
        power *= base
    return e


def test_integer_logs():
    assert floor_log(2, 8) == 3
    assert arith.ceil_log(3, 10) == 3
    assert arith.ceil_log(2, 91) == 7
    assert arith.ceil_log(2, 1) == 0
    assert floor_log(10, 999) == 2


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=10**6))
def test_log_bracketing(base, n):
    lo, hi = floor_log(base, n), arith.ceil_log(base, n)
    assert base**lo <= n
    assert base**hi >= n
    assert lo <= hi <= lo + 1


def test_log_log_matches_reference():
    mpmath.mp.dps = 50
    for n in [3, 4, 10, 60, 29120, 10**6, 10**1000, 2**5000 + 12345]:
        expected = float(mpmath.log(mpmath.log(n)))
        got = arith.log_log(n)
        assert abs(got - expected) < 1e-12 * abs(expected)


@given(st.integers(min_value=3, max_value=10_000))
@settings(max_examples=200)
def test_log_log_relative_error(n):
    mpmath.mp.dps = 50
    expected = float(mpmath.log(mpmath.log(n)))
    assert abs(arith.log_log(n) - expected) < 1e-12 * abs(expected)


def test_log_log_domain():
    with pytest.raises(DomainError):
        arith.log_log(2)


def test_log_log_fraction():
    mpmath.mp.dps = 50
    x = Fraction(4, 6) + 3
    expected = float(mpmath.log(mpmath.log(mpmath.mpf(11) / 3)))
    assert abs(arith.log_log_fraction(x) - expected) < 1e-13
    huge = Fraction(2**4000 + 7, 3**100) + 3
    ref = float(mpmath.log(mpmath.log(
        (mpmath.mpf(2) ** 4000 + 7) / mpmath.mpf(3) ** 100 + 3)))
    assert abs(arith.log_log_fraction(huge) - ref) < 1e-12 * abs(ref)


def test_prime_power_split():
    assert arith.prime_power_split(8) == (2, 3)
    assert arith.prime_power_split(6) is None
    assert arith.prime_power_split(6561) == (3, 8)
    assert arith.prime_power_split(1) is None
    assert arith.prime_power_split(97) == (97, 1)


def test_factorize_roundtrip():
    for n in [2, 97, 1234, 2**20 * 7**3, 10**12 + 39]:
        factors = arith.factorize(n)
        assert math.prod(p**k for p, k in factors) == n
        assert all(arith.is_prime(p) for p, _ in factors)
        assert factors == sorted(factors)


def test_factored_qn_pm1():
    for q, n, sign in [(2, 10, -1), (3, 6, -1), (2, 7, 1), (5, 4, 1), (25, 29, 1)]:
        factors = arith.factored_qn_pm1(q, n, sign)
        assert math.prod(p**k for p, k in factors.items()) == q**n + sign
