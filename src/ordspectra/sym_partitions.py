"""Element-order counts in Sym(n) via partition-number matrices.

The number of element orders in Sym(n) is the sum of r(k) for k <= n,
where r(k) counts unordered partitions of k into pairwise coprime prime
powers greater than 1 (r(0) = 1: the empty partition).  Each prime
contributes at most one part, so r(0..n) are the first n + 1
coefficients of

    prod over primes p <= n of (1 + x**p + x**(p**2) + ...).

The product is taken as one list of n + 1 ints: multiplying by the
factor of p adds to the list each copy of itself shifted by a power of
p.  Walking the primes in descending order, the list before the factor
of p counts the partitions with every base above p and the list after
it those with every base at least p, so their difference is r_p(k), the
number of partitions of k whose smallest prime base is p.  The n-th
partition number matrix collects r_{p_j}(i) for i <= n and primes
p_j <= n; its row sums are r(i).

Also provided: the distinct-parts partition counts s(n) and the double
convolution g2(d) built from them, both used by the survey bounds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from types import SimpleNamespace

from . import arith
from .errors import CapacityError, DomainError


@dataclass(frozen=True)
class PartitionNumberMatrix:
    """Matrix with rows(i)/columns(j) holding r_{p_j}(i), i = 1..n.

    Column count is max(1, pi(n)); when n = 1 there are no primes <= n and
    the single column is identically zero.
    """

    n: int
    primes: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


def _prime_power_product(n: int, columns: dict[int, list[int]] | None = None) -> list[int]:
    """r(0..n), multiplying in the primes p <= n in descending order.

    If ``columns`` is given, columns[p] is set to r_p(0..n).
    """
    r = [1] + [0] * n
    for p in reversed(arith.primes_up_to(n)):
        before = r[:]
        power = p
        while power <= n:
            r[power:] = map(operator.add, r[power:], before)
            power *= p
        if columns is not None:
            columns[p] = list(map(operator.sub, r, before))
    return r


#: r(0..m) as the single row of ``_TABLE.rows``; r(k) does not depend on
#: m, so every n <= m reads a prefix.
_TABLE = SimpleNamespace(rows=[[1]])


def _r_values(n: int) -> list[int]:
    """r(0..m) for some m >= n.  A larger n rebuilds the list to at least
    twice its length, so n rising one by one rebuilds it O(log n) times."""
    if n < 1:
        raise DomainError("n must be >= 1")
    row = _TABLE.rows[0]
    if len(row) <= n:
        _TABLE.rows[0] = row = _prime_power_product(max(n, 2 * len(row)))
    return row


def partition_number_matrix(n: int, max_prime: int | None = None) -> PartitionNumberMatrix:
    """The n-th partition number matrix (n >= 1); a ``max_prime`` below n
    raises CapacityError."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if max_prime is not None and max_prime < n:
        raise CapacityError(f"prime cap {max_prime} too small for n = {n}", needed=n)
    columns: dict[int, list[int]] = {}
    _prime_power_product(n, columns)
    primes = tuple(sorted(columns))
    rows = zip(*(columns[p][1:] for p in primes)) if primes else [(0,)] * n
    return PartitionNumberMatrix(n=n, primes=primes, rows=tuple(rows))


def next_partition_number_matrix(m: PartitionNumberMatrix) -> PartitionNumberMatrix:
    """The (n+1)-th matrix from the n-th one."""
    if m.n < 1 or len(m.rows) != m.n:
        raise DomainError("not a valid partition number matrix")
    return partition_number_matrix(m.n + 1)


def nr_coprime_prime_power_partitions(n: int) -> int:
    """r(n): partitions of n into pairwise coprime prime powers > 1;
    r(0) = 1, the empty partition."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return _r_values(max(n, 1))[n]


def nr_element_orders_sym(n: int) -> int:
    """Number of distinct element orders in Sym(n): sum(r(k), k <= n)."""
    return sum(_r_values(n)[: n + 1])


def omicron_sym_constants(n: int) -> list[tuple[int, float]]:
    """The constants c_k = log(#orders in Sym(k)) / sqrt(k) for k = 1..n."""
    totals = accumulate(_r_values(n)[: n + 1])
    next(totals)  # k = 0
    return [(k, arith.ln_int(total) / k**0.5) for k, total in enumerate(totals, 1)]


# ---------------------------------------------------------------------------
# distinct-parts partitions and g2


@lru_cache(maxsize=None)
def _distinct_parts_table(n: int) -> tuple[int, ...]:
    """s(0..n) by the standard product DP over (1 + x**k)."""
    table = [0] * (n + 1)
    table[0] = 1
    for part in range(1, n + 1):
        for total in range(n, part - 1, -1):
            table[total] += table[total - part]
    return tuple(table)


def distinct_parts_partition_count(n: int) -> int:
    """s(n): partitions of n into pairwise distinct parts (s(0) = 1)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return _distinct_parts_table(max(n, 16))[n]


def g2(d: int) -> int:
    """Double convolution of prefix sums of s:

    g2(d) = sum over ordered pairs (d1, d2) with d1 + d2 = d of
            (sum of s(i), i <= d1) * (sum of s(i), i <= d2).
    """
    if d < 1:
        raise DomainError("d must be >= 1")
    table = _distinct_parts_table(d)
    prefix = [0] * (d + 1)
    acc = 0
    for i in range(d + 1):
        acc += table[i]
        prefix[i] = acc
    return sum(prefix[d1] * prefix[d - d1] for d1 in range(d + 1))
