"""Brute-force ground truth for small groups.

Everything here is an explicit permutation-group computation: element
enumeration, element orders, conjugacy classes, Aut-orbit counts, and
the lcm-knapsack spectrum oracle for symmetric groups.  These are the
reference values that gate the formula-based modules.
"""

from __future__ import annotations

import math

from ..errors import AutGenerationFailed, DomainError
from ..torus_spectra import OrderSet
from .autos import (
    automorphisms_up_to_inner,
    conjugation_map,
    duality_automorphism,
    field_automorphism,
    generic_aut_order,
    generic_nr_aut_orbits,
    matrix_conjugation,
    nr_aut_orbits_from_maps,
)
from .build import (
    DEFAULT_CAP,
    build_classical,
    expected_order,
    gl_diagonal,
    orthogonal_similitude,
    unitary_diagonal,
)
from .ffield import get_field
from .groups import SmallGroup, close_under_products, identity

AUT_CAP = 100_000


def element_orders(G: SmallGroup) -> OrderSet:
    return G.element_orders()


def nr_element_orders(G: SmallGroup) -> int:
    return G.nr_element_orders()


def conjugacy_class_count(G: SmallGroup) -> int:
    return G.conjugacy_class_count()


def semisimple_orders(G: SmallGroup, p: int) -> OrderSet:
    full = G.element_orders()
    return OrderSet.from_iterable(v for v in full.values if v % p != 0)


# ---------------------------------------------------------------------------
# symmetric / alternating groups


def build_symmetric(n: int) -> SmallGroup:
    one = identity(n)
    gens = [one[1::-1] + one[2:], one[1:] + one[:1]] if n > 1 else [one]
    _, elements = close_under_products(gens, n)
    g = SmallGroup(degree=n, gens=gens, elements=elements)
    g.meta = {"kind": "Sym", "n": n}
    return g


def build_alternating(n: int) -> SmallGroup:
    one = identity(max(n, 1))
    if n < 3:
        gens = [one]
    else:
        gens = [one[:i] + bytes((i + 1, i + 2, i)) + one[i + 3:] for i in range(n - 2)]
    _, elements = close_under_products(gens, max(n, 1))
    g = SmallGroup(degree=max(n, 1), gens=gens, elements=elements)
    g.meta = {"kind": "Alt", "n": n}
    return g


def build_cyclic(n: int) -> SmallGroup:
    one = identity(n)
    gens = [one[1:] + one[:1]]
    _, elements = close_under_products(gens, n)
    g = SmallGroup(degree=n, gens=gens, elements=elements)
    g.meta = {"kind": "Cyclic", "n": n}
    return g


# ---------------------------------------------------------------------------
# Aut-orbit counting with curated outer maps


def outer_maps_for(G: SmallGroup) -> list | None:
    """Outer automorphism generators for the named constructions, or None
    when no curated set is known."""
    kind = G.meta.get("kind")
    if kind in ("PSL", "PSU", "PSp", "POmegaplus", "POmegaminus"):
        F = G.meta["field"]
        n = G.meta["n"]
        if kind == "PSp" and n == 4 and F.p == 2:
            return None  # the graph automorphism of B2(2^f) is not realized here
        # F.e > 1 for every PSU: its matrices are over F(q0**2)
        maps = [field_automorphism(G)] if F.e > 1 else []
        if kind == "PSL" and math.gcd(n, F.q - 1) > 1:
            maps.append(matrix_conjugation(G, gl_diagonal(F, n)))
        if kind == "PSL" and n >= 3:
            maps.append(duality_automorphism(G))
        if kind == "PSU" and math.gcd(n, F.p ** (F.e // 2) + 1) > 1:
            maps.append(matrix_conjugation(G, unitary_diagonal(F, n)))
        if kind.startswith("POmega"):
            # the parent generators are the recipe of the ambient orthogonal
            # group acting on the same projective points
            maps += [conjugation_map(pg) for pg in G.meta["parent_gens"]]
        if kind not in ("PSL", "PSU") and F.q % 2 == 1:
            # similitude with non-square multiplier; the plus-type one
            # scales the symplectic form too
            sign = -1 if kind == "POmegaminus" else 1
            maps.append(matrix_conjugation(G, orthogonal_similitude(F, n, sign)))
        return maps
    if kind == "Alt":
        n = G.meta["n"]
        if n == 6:
            return None  # the exceptional automorphism is not realized here
        if G.degree < 2:
            return []  # one point (Alt(1)): nothing to swap
        one = identity(G.degree)
        return [conjugation_map(one[1::-1] + one[2:])]
    return None


def nr_aut_orbits(G: SmallGroup) -> int:
    """Number of orbits of Aut(G) on G.

    Uses curated outer generators for the named constructions and the
    generic search otherwise, which raises above its order cap rather
    than approximating.
    """
    if G.order > AUT_CAP:
        raise AutGenerationFailed(f"order {G.order} exceeds the Aut cap {AUT_CAP}")
    maps = outer_maps_for(G)
    if maps is not None:
        return nr_aut_orbits_from_maps(G, maps)
    return generic_nr_aut_orbits(G)


# ---------------------------------------------------------------------------
# symmetric-group spectrum oracle


def sym_spectrum_oracle(n: int) -> OrderSet:
    """Element orders of Sym(n), by a least-sum lcm knapsack.

    An element of Sym(n) has order L exactly when some set of distinct
    parts >= 2 with lcm L sums to at most n: repeated cycle lengths never
    change the lcm, and fixed points fill the remainder.  The knapsack
    takes the parts k = 2..n once each, in increasing order, and keeps
    ``least[L]``, the least sum of a set of parts already taken whose lcm
    is L.  Keeping only the least sum loses nothing: the parts still to
    come are larger than every part taken so far, so any of them that
    join another set with lcm L can join the set of least sum instead,
    with the same lcm and a sum no larger.  Step k reads the entries
    (L, s) with s <= n - k as they stood before the step and lowers
    ``least[lcm(L, k)]`` to s + k; an entry with k | L is skipped, as k
    leaves it unchanged.  The orders are the keys.

    Entries sit in one bucket per sum, so step k reads only the buckets
    0..n - k.  A lowered entry joins its new bucket after the step, and
    its stale copy is skipped where ``least`` disagrees; an entry lowered
    during step k is a multiple of k, so skipping it there changes nothing.

    Nothing here uses prime powers, so this is independent of the r_p
    formula of ``sym_partitions``.
    """
    if n < 1 or n > 200:
        raise DomainError("n out of the supported oracle range")
    least = {1: 0}
    by_sum: list[list[int]] = [[1]] + [[] for _ in range(n)]
    for k in range(2, n + 1):
        lowered: set[int] = set()
        for s in range(n - k + 1):
            for L in by_sum[s]:
                if L % k and least[L] == s:
                    M = math.lcm(L, k)
                    if least.get(M, n + 1) > s + k:
                        least[M] = s + k
                        lowered.add(M)
        for M in lowered:
            by_sum[least[M]].append(M)
    return OrderSet.from_iterable(least)


__all__ = [
    "AUT_CAP",
    "DEFAULT_CAP",
    "SmallGroup",
    "automorphisms_up_to_inner",
    "build_alternating",
    "build_classical",
    "build_cyclic",
    "build_symmetric",
    "conjugacy_class_count",
    "element_orders",
    "expected_order",
    "generic_aut_order",
    "generic_nr_aut_orbits",
    "get_field",
    "nr_aut_orbits",
    "nr_element_orders",
    "outer_maps_for",
    "semisimple_orders",
    "sym_spectrum_oracle",
]
