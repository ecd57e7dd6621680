import math
import operator
from types import SimpleNamespace

import pytest

from ordspectra import sym_partitions as sp
from ordspectra.errors import CapacityError, DomainError


def coprime_prime_power_partitions(n):
    """Independent exhaustive enumeration of partitions of n into
    pairwise coprime prime powers > 1 (distinct base primes)."""
    from ordspectra.arith import primes_up_to

    primes = primes_up_to(n)
    found = []

    def rec(remaining, allowed, chosen):
        if remaining == 0:
            found.append(tuple(chosen))
            return
        for i, p in enumerate(allowed):
            power = p
            while power <= remaining:
                rec(remaining - power, allowed[i + 1:], chosen + [power])
                power *= p

    rec(n, primes, [])
    return found


def recursive_r_p_rows(n):
    """r_{p_j}(k) for k = 1..n and primes p_j <= n by the recursion on the
    smallest prime base (independent of the generating-function route):

        r_p(k) = sum over e >= 1 with p**e <= k of
                     ( 1                                    if k == p**e
                       sum of r_l(k - p**e) over primes l > p   otherwise )
    """
    from ordspectra.arith import primes_up_to

    primes = primes_up_to(n)
    rows = []  # rows[k-1][j] = r_{p_j}(k)
    suffix = []  # suffix[k-1][j] = sum of rows[k-1][j:]
    for k in range(1, n + 1):
        row = []
        for j, p in enumerate(primes):
            total = 0
            power = p
            while power <= k:
                total += 1 if power == k else suffix[k - power - 1][j + 1]
                power *= p
            row.append(total)
        rows.append(row)
        suf = [0] * (len(primes) + 1)
        for j in range(len(primes) - 1, -1, -1):
            suf[j] = suf[j + 1] + row[j]
        suffix.append(suf)
    return primes, rows


def reference_product(n, columns=None):
    """r(0..n) as a list of n + 1 ints, multiplying in the primes p <= n in
    descending order (the list form of the packed product); columns[p] is
    set to r_p(0..n) if ``columns`` is given."""
    from ordspectra.arith import primes_up_to

    r = [1] + [0] * n
    for p in reversed(primes_up_to(n)):
        before = r[:]
        power = p
        while power <= n:
            r[power:] = map(operator.add, r[power:], before)
            power *= p
        if columns is not None:
            columns[p] = list(map(operator.sub, r, before))
    return r


def test_packed_product_matches_reference_up_to_300():
    for n in range(0, 301):
        assert sp._prime_power_product(n) == reference_product(n), n


def test_packed_product_matches_reference_prefixes():
    full = reference_product(6000)
    # r(k) fits the 63 value bits of an 8-byte slot up to k = 2100, not up
    # to 4599: the products for 4599 and 6000 widen to 16-byte slots
    assert max(full[:4600]).bit_length() > 63 > max(full[:2101]).bit_length()
    for n in (1000, 2100, 4599, 6000):
        assert sp._prime_power_product(n) == full[: n + 1], n


def test_packed_columns_match_reference():
    expected = {}
    reference_product(2500, expected)
    columns = {}
    sp._prime_power_product(2500, columns)
    assert columns == expected
    m = sp.partition_number_matrix(2500)
    assert m.primes == tuple(sorted(expected))
    assert m.rows == tuple(zip(*(expected[p][1:] for p in m.primes)))


def test_matrix_base_cases():
    m1 = sp.partition_number_matrix(1)
    assert m1.rows == ((0,),)
    m2 = sp.partition_number_matrix(2)
    assert m2.rows == ((0,), (1,))
    m3 = sp.partition_number_matrix(3)
    assert m3.rows == ((0, 0), (1, 0), (0, 1))


def test_next_matrix_step():
    m5 = sp.partition_number_matrix(5)
    m6 = sp.next_partition_number_matrix(m5)
    assert m6.n == 6
    assert sum(m6.rows[5]) == 0  # no valid partition of 6
    assert m6 == sp.partition_number_matrix(6)


def test_row_seven():
    m7 = sp.partition_number_matrix(7)
    # by smallest base: {4,3} and {2,5} have base 2; {7} has base 7
    assert m7.rows[6] == (2, 0, 0, 1)
    assert sum(m7.rows[6]) == 3


def test_prefix_consistency_up_to_200():
    big = sp.partition_number_matrix(201)
    for n in range(1, 201):
        small = sp.partition_number_matrix(n)
        width = len(small.rows[0])
        for i in range(n):
            assert tuple(big.rows[i][:width]) == small.rows[i]
            assert all(v == 0 for v in big.rows[i][width:])


def test_row_matches_enumeration_by_smallest_base():
    for n in range(1, 26):
        m = sp.partition_number_matrix(n)
        parts = coprime_prime_power_partitions(n)
        by_base = {}
        for combo in parts:
            base = min(min(p for p in range(2, v + 1) if v % p == 0) for v in combo)
            by_base[base] = by_base.get(base, 0) + 1
        for j, prime in enumerate(m.primes):
            assert m.rows[n - 1][j] == by_base.get(prime, 0)


def test_r_values():
    assert sp.nr_coprime_prime_power_partitions(0) == 1  # the empty partition
    with pytest.raises(DomainError, match="n must be >= 0"):
        sp.nr_coprime_prime_power_partitions(-1)
    assert sp.nr_coprime_prime_power_partitions(1) == 0
    assert sp.nr_coprime_prime_power_partitions(5) == 2
    assert sp.nr_coprime_prime_power_partitions(6) == 0
    for n in range(1, 41):
        assert sp.nr_coprime_prime_power_partitions(n) == len(
            coprime_prime_power_partitions(n)
        )


def test_nr_element_orders_sym():
    assert sp.nr_element_orders_sym(0) == 1  # Sym(0) is trivial
    with pytest.raises(DomainError, match="n must be >= 0"):
        sp.nr_element_orders_sym(-1)
    assert sp.nr_element_orders_sym(1) == 1
    assert sp.nr_element_orders_sym(4) == 4
    assert sp.nr_element_orders_sym(7) == 9
    values = [sp.nr_element_orders_sym(n) for n in range(1, 61)]
    assert values == sorted(values)  # nondecreasing


def test_constants():
    constants = sp.omicron_sym_constants(66)
    assert constants[0] == (1, 0.0)
    c4 = constants[3][1]
    assert abs(c4 - math.log(4) / 2) < 1e-12


def test_capacity_error_with_pinned_cap():
    with pytest.raises(CapacityError):
        sp.partition_number_matrix(30000, max_prime=25013)


def test_capacity_error_with_warm_cache():
    sp.nr_element_orders_sym(200)
    with pytest.raises(CapacityError):
        sp.partition_number_matrix(100, max_prime=50)
    assert sp.partition_number_matrix(100, max_prime=100) == sp.partition_number_matrix(100)


def test_matrix_matches_recursion_up_to_400():
    primes, rows = recursive_r_p_rows(400)
    for n in range(1, 401):
        m = sp.partition_number_matrix(n)
        width = sum(1 for p in primes if p <= n)
        assert m.primes == tuple(primes[:width])
        assert m.rows == tuple(tuple(row[:width]) or (0,) for row in rows[:n])


def test_survey_sym_outputs_match_pinned(capsys):
    import json
    from pathlib import Path

    from ordspectra import cli

    pinned = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    with open(pinned, encoding="utf-8") as handle:
        outputs = json.load(handle)["survey"]["cli"]
    # largest first: the cached r(0..4599) then serves every other call
    for n in reversed(range(4500, 4600)):
        assert sp.nr_element_orders_sym(n) == int(outputs[f"sym omicron --n {n}"]), n
    for top in range(2000, 2100):
        command = f"sym constants --max {top} --argmax"
        assert cli.main(command.split()) == 0
        assert capsys.readouterr().out == outputs[command], top


def test_element_orders_memory(monkeypatch):
    import tracemalloc

    monkeypatch.setattr(sp._TABLE, "rows", [[1]])  # start from a cold cache
    tracemalloc.start()
    try:
        sp.nr_element_orders_sym(1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sp._TABLE.rows[0]) == 1001
    assert peak < 2_000_000


def test_rising_n_rebuilds_logarithmically(monkeypatch):
    builds = []
    product = sp._prime_power_product

    def counted(n, *args):
        builds.append(n)
        return product(n, *args)

    monkeypatch.setattr(sp._TABLE, "rows", [[1]])
    monkeypatch.setattr(sp, "_prime_power_product", counted)
    totals = [sp.nr_element_orders_sym(n) for n in range(100, 200)]
    assert builds == [100, 202]
    assert totals == [sum(product(n)) for n in range(100, 200)]


def test_rising_matrices_rebuild_logarithmically(monkeypatch):
    builds = []
    product = sp._prime_power_product

    def counted(n, *args):
        builds.append(n)
        return product(n, *args)

    monkeypatch.setattr(sp, "_COLUMNS", SimpleNamespace(m=0, primes=(), columns={}))
    monkeypatch.setattr(sp, "_prime_power_product", counted)
    expected = {}
    reference_product(220, expected)
    m = sp.partition_number_matrix(100)
    while m.n < 220:
        m = sp.next_partition_number_matrix(m)
        assert m.primes == tuple(p for p in sorted(expected) if p <= m.n)
        assert m.rows == tuple(zip(*(expected[p][1 : m.n + 1] for p in m.primes)))
    assert builds == [100, 200, 400]


def test_distinct_parts_counts():
    assert sp.distinct_parts_partition_count(0) == 1
    assert sp.distinct_parts_partition_count(5) == 3
    assert sp.distinct_parts_partition_count(10) == 10
    with pytest.raises(DomainError):
        sp.distinct_parts_partition_count(-1)


def odd_part_partition_count(n):
    """Partitions of n into odd parts, by direct DP (independent route)."""
    table = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def test_euler_identity_up_to_200():
    for n in range(0, 201):
        assert sp.distinct_parts_partition_count(n) == odd_part_partition_count(n)


def test_g2_small_values():
    # direct triple-sum evaluation, independent of the prefix-sum route
    def g2_direct(d):
        s = sp.distinct_parts_partition_count
        total = 0
        for d_plus in range(d + 1):
            d_minus = d - d_plus
            for i_plus in range(d_plus + 1):
                for i_minus in range(d_minus + 1):
                    total += s(i_plus) * s(i_minus)
        return total

    assert sp.g2(1) == 4
    for d in range(1, 25):
        assert sp.g2(d) == g2_direct(d)


def test_g2_90_fast():
    import time

    start = time.time()
    value = sp.g2(90)
    assert value > 0
    assert time.time() - start < 1.0
