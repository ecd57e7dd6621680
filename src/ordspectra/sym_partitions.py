"""Element-order counts in Sym(n) via partition-number matrices.

The number of element orders in Sym(n) is the sum of r(k) for k <= n,
where r(k) counts unordered partitions of k into pairwise coprime prime
powers greater than 1 (r(0) = 1: the empty partition).  Each prime
contributes at most one part, so r(0..n) are the first n + 1
coefficients of

    prod over primes p <= n of (1 + x**p + x**(p**2) + ...).

The product is taken as one int R (Kronecker substitution): slot k, a
run of W bits, holds the coefficient of x**k, so multiplying by the
factor of p adds to R each copy of itself shifted by a power of p slots,
one big-int addition per prime power.  The top bit of every slot is a
guard: every slot stays below 2**(W - 1) before an addition, so no carry
crosses a slot, and the first sum to reach the guard widens the slots
(W doubles, starting at 64) without losing R.  Walking the primes in
descending order, R before the factor of p counts the partitions with
every base above p and R after it those with every base at least p, so
their difference is r_p(k), the number of partitions of k whose
smallest prime base is p.  The n-th partition number matrix collects
r_{p_j}(i) for i <= n and primes p_j <= n; its row sums are r(i).

Also provided: the distinct-parts partition counts s(n) and the double
convolution g2(d) built from them, both used by the survey bounds.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
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


def _unpack(packed: int, slots: int, size: int) -> list[int]:
    """The ``slots`` slots of ``size`` bytes each of ``packed``, slot 0 first."""
    data = packed.to_bytes(slots * size, "little")
    if size == 8 and sys.byteorder == "little":
        return memoryview(data).cast("Q").tolist()
    return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]


def _pack(values: list[int], size: int) -> int:
    """The inverse of ``_unpack``."""
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")


def _slot_masks(slots: int, size: int) -> tuple[int, int]:
    """All ones over ``slots`` slots of ``size`` bytes, and the top bit of
    each slot (the all-ones repunit of the slots, shifted up)."""
    width = 8 * size
    full = (1 << slots * width) - 1
    return full, full // ((1 << width) - 1) << width - 1


def _prime_power_product(n: int, columns: dict[int, list[int]] | None = None) -> list[int]:
    """r(0..n), multiplying in the primes p <= n in descending order.

    The coefficients live in one int R: slot k, bits k*W to (k + 1)*W - 1
    with W = 8*size, holds the coefficient of x**k.  The factor of p adds
    R before it, shifted up by p**j slots and cut to n + 1 slots, for each
    p**j <= n.  ``guard`` holds the top bit of every slot.  Every slot of
    R, and so of ``before`` (an earlier R), is below 2**(W - 1) before an
    addition, so each slot sum is below 2**W and no carry crosses a slot:
    R stays exact, and a slot at or above 2**(W - 1) after it trips the
    guard.  Then R and ``before`` are repacked in slots of twice the size,
    which puts every slot below 2**W <= 2**(2W - 1) again, and the product
    goes on where it was.  Slots start at 8 bytes.

    If ``columns`` is given, columns[p] is set to r_p(0..n), the slots of
    R after the factor of p minus those before it (no borrows: no
    coefficient drops).
    """
    slots, size, packed = n + 1, 8, 1
    mask, guard = _slot_masks(slots, size)
    for p in reversed(arith.primes_up_to(n)):
        before = packed
        power = p
        while power <= n:
            packed += (before << power * 8 * size) & mask
            if packed & guard:
                packed = _pack(_unpack(packed, slots, size), 2 * size)
                before = _pack(_unpack(before, slots, size), 2 * size)
                size *= 2
                mask, guard = _slot_masks(slots, size)
            power *= p
        if columns is not None:
            columns[p] = _unpack(packed - before, slots, size)
    return _unpack(packed, slots, size)


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


#: r_p(0..m) for the primes p <= m, the columns of the m-th matrix, and
#: those primes in ascending order; the n-th matrix reads the prefixes
#: r_p(0..n) for p <= n, as r_p(k) does not depend on m either.
_COLUMNS = SimpleNamespace(m=0, primes=(), columns={})


def _matrix_columns(n: int) -> SimpleNamespace:
    """``_COLUMNS`` with m >= n, rebuilt to at least twice its extent as
    ``_r_values`` is, so n rising one by one rebuilds it O(log n) times."""
    table = _COLUMNS
    if table.m < n:
        columns: dict[int, list[int]] = {}
        m = max(n, 2 * table.m)
        _prime_power_product(m, columns)
        table.m, table.primes, table.columns = m, tuple(sorted(columns)), columns
    return table


def partition_number_matrix(n: int, max_prime: int | None = None) -> PartitionNumberMatrix:
    """The n-th partition number matrix (n >= 1); a ``max_prime`` below n
    raises CapacityError."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if max_prime is not None and max_prime < n:
        raise CapacityError(f"prime cap {max_prime} too small for n = {n}", needed=n)
    table = _matrix_columns(n)
    primes = table.primes[: bisect_right(table.primes, n)]
    rows = (zip(*(table.columns[p][1 : n + 1] for p in primes)) if primes
            else [(0,)] * n)
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
    """Number of distinct element orders in Sym(n): sum(r(k), k <= n);
    Sym(0) is trivial and has 1."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return sum(_r_values(max(n, 1))[: n + 1])


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
