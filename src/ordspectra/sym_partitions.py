"""Element-order counts in Sym(n) via partition-number matrices.

The number of element orders in Sym(n) is 1 + sum of r(k) for k <= n,
where r(k) counts unordered partitions of k into pairwise coprime prime
powers greater than 1.  r is computed through the recursion on r_p(k),
the number of such partitions whose smallest prime base is p:

    r_p(k) = sum over e >= 1 with p**e <= k of
                 ( 1                                   if k == p**e
                   sum of r_l(k - p**e) over primes l > p   otherwise )

The n-th partition number matrix collects r_{p_j}(i) for i <= n and
primes p_j <= n; its row sums are r(i).

Also provided: the distinct-parts partition counts s(n) and the double
convolution g2(d) built from them, both used by the survey bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


class _RTable:
    """Incrementally grown table of r_p values with row suffix sums.

    rows[k-1][j] = r_{p_j}(k); suffix[k-1][j] = sum of rows[k-1][j:].
    Shared, append-only cache: results never change once computed.
    """

    def __init__(self) -> None:
        self.primes: list[int] = []
        self.rows: list[list[int]] = []
        self.suffix: list[list[int]] = []

    def extend_to(self, n: int, max_prime: int | None) -> None:
        if n <= len(self.rows):
            return
        if self.primes and self.primes[-1] >= n:
            primes = self.primes
        else:
            cap = max(n, arith.DEFAULT_PRIME_CAP)
            if max_prime is not None:
                if max_prime < n:
                    raise CapacityError(
                        f"prime cap {max_prime} too small for n = {n}", needed=n
                    )
                cap = max_prime
            primes = arith.primes_up_to(cap)
            self.primes = primes
        index = {p: j for j, p in enumerate(primes)}
        for k in range(len(self.rows) + 1, n + 1):
            row = [0] * len(primes)
            for j, p in enumerate(primes):
                if p > k:
                    break
                total = 0
                power = p
                while power <= k:
                    if power == k:
                        total += 1
                    else:
                        rest = k - power
                        # sum of r_l(rest) over primes l > p
                        srow = self.suffix[rest - 1]
                        if j + 1 < len(srow):
                            total += srow[j + 1]
                    power *= p
                row[j] = total
            self.rows.append(row)
            suf = [0] * (len(row) + 1)
            for j in range(len(row) - 1, -1, -1):
                suf[j] = suf[j + 1] + row[j]
            self.suffix.append(suf)

    def r(self, k: int) -> int:
        return self.suffix[k - 1][0]


_TABLE = _RTable()


def partition_number_matrix(n: int, max_prime: int | None = None) -> PartitionNumberMatrix:
    """The n-th partition number matrix (n >= 1)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    _TABLE.extend_to(n, max_prime)
    primes = tuple(p for p in _TABLE.primes if p <= n)
    width = max(1, len(primes))
    rows = tuple(
        tuple(_TABLE.rows[i][j] if j < len(primes) else 0 for j in range(width))
        for i in range(n)
    )
    return PartitionNumberMatrix(n=n, primes=primes, rows=rows)


def next_partition_number_matrix(m: PartitionNumberMatrix) -> PartitionNumberMatrix:
    """The (n+1)-th matrix from the n-th one."""
    if m.n < 1 or len(m.rows) != m.n:
        raise DomainError("not a valid partition number matrix")
    return partition_number_matrix(m.n + 1)


def nr_coprime_prime_power_partitions(n: int) -> int:
    """r(n): partitions of n into pairwise coprime prime powers > 1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    _TABLE.extend_to(n, None)
    return _TABLE.r(n)


def nr_element_orders_sym(n: int) -> int:
    """Number of distinct element orders in Sym(n): 1 + sum(r(k), k <= n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    _TABLE.extend_to(n, None)
    return 1 + sum(_TABLE.r(k) for k in range(1, n + 1))


def omicron_sym_constants(n: int) -> list[tuple[int, float]]:
    """The constants c_k = log(#orders in Sym(k)) / sqrt(k) for k = 1..n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    _TABLE.extend_to(n, None)
    out = []
    total = 1
    for k in range(1, n + 1):
        total += _TABLE.r(k)
        out.append((k, arith.ln_int(total) / k**0.5))
    return out


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
