"""Brute-force ground truth for small groups.

Everything here is an explicit permutation-group computation: element
enumeration, element orders, conjugacy classes, Aut-orbit counts, and
the partition-lcm oracle for symmetric groups.  These are the reference
values that gate the formula-based modules.
"""

from __future__ import annotations

import math

from ..errors import AutGenerationFailed, DomainError
from ..torus_spectra import OrderSet
from .autos import (
    conjugation_map,
    duality_automorphism,
    enumerate_automorphisms,
    field_automorphism,
    generic_aut_order,
    generic_nr_aut_orbits,
    matrix_conjugation,
    nr_aut_orbits_from_maps,
)
from .build import DEFAULT_CAP, build_classical, expected_order, orthogonal_similitude
from .ffield import get_field
from .groups import SmallGroup, close_under_products, mat_identity

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
    gens = [tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])]
    if n == 1:
        gens = [tuple(range(1))]
    _, elements, _ = close_under_products(gens, n)
    g = SmallGroup(degree=n, gens=gens, elements=elements)
    g.meta = {"kind": "Sym", "n": n}
    return g


def build_alternating(n: int) -> SmallGroup:
    if n < 3:
        gens = [tuple(range(n))]
    else:
        gens = []
        for i in range(n - 2):
            img = list(range(n))
            img[i], img[i + 1], img[i + 2] = img[i + 1], img[i + 2], img[i]
            gens.append(tuple(img))
    _, elements, _ = close_under_products(gens, max(n, 1))
    g = SmallGroup(degree=max(n, 1), gens=gens, elements=elements)
    g.meta = {"kind": "Alt", "n": n}
    return g


def build_cyclic(n: int) -> SmallGroup:
    gens = [tuple(list(range(1, n)) + [0])]
    _, elements, _ = close_under_products(gens, n)
    g = SmallGroup(degree=n, gens=gens, elements=elements)
    g.meta = {"kind": "Cyclic", "n": n}
    return g


# ---------------------------------------------------------------------------
# Aut-orbit counting with curated outer maps


def outer_maps_for(G: SmallGroup) -> list | None:
    """Outer automorphism generators for the named constructions, or None
    when no curated set is known."""
    kind = G.meta.get("kind")
    if kind == "PSL":
        F = G.meta["field"]
        n = G.meta["n"]
        maps = []
        if math.gcd(n, F.q - 1) > 1:
            diag = list(mat_identity(n))
            diag[0] = F.generator
            maps.append(matrix_conjugation(G, tuple(diag)))
        if F.e > 1:
            maps.append(field_automorphism(G))
        if n >= 3:
            maps.append(duality_automorphism(G))
        return maps
    if kind == "PSU":
        F = G.meta["field"]
        n = G.meta["n"]
        half = F.e // 2
        q0 = F.p**half
        maps = []
        if math.gcd(n, q0 + 1) > 1:
            diag = list(mat_identity(n))
            diag[0] = F.generator
            diag[(n - 1) * n + (n - 1)] = F.inv[F.conj(F.generator, half)]
            maps.append(matrix_conjugation(G, tuple(diag)))
        maps.append(field_automorphism(G))
        return maps
    if kind == "PSp":
        F = G.meta["field"]
        n = G.meta["n"]
        maps = []
        if F.q % 2 == 1:
            m = n // 2
            sim = list(mat_identity(n))
            for i in range(m, n):
                sim[i * n + i] = F.generator
            maps.append(matrix_conjugation(G, tuple(sim)))
        if F.e > 1:
            maps.append(field_automorphism(G))
        return maps
    if kind in ("POmegaplus", "POmegaminus"):
        # the parent generators are the recipe of the ambient orthogonal
        # group acting on the same projective points
        F = G.meta["field"]
        maps = [conjugation_map(pg) for pg in G.meta["parent_gens"]]
        if F.q % 2 == 1:
            sign = 1 if kind == "POmegaplus" else -1
            maps.append(matrix_conjugation(G, orthogonal_similitude(F, G.meta["n"], sign)))
        if F.e > 1:
            maps.append(field_automorphism(G))
        return maps
    if kind == "Alt":
        n = G.meta["n"]
        if n == 6:
            return None  # the exceptional automorphism is not realized here
        img = list(range(G.degree))
        img[0], img[1] = img[1], img[0]
        return [conjugation_map(tuple(img))]
    return None


def nr_aut_orbits(G: SmallGroup, small_cap: int = 10_000) -> int:
    """Number of orbits of Aut(G) on G.

    Uses curated outer generators for the named constructions and the
    generic backtrack for tiny arbitrary groups; raises when neither is
    applicable rather than approximating.
    """
    if G.order > AUT_CAP:
        raise AutGenerationFailed(f"order {G.order} exceeds the Aut cap {AUT_CAP}")
    maps = outer_maps_for(G)
    if maps is not None:
        return nr_aut_orbits_from_maps(G, maps)
    if G.order <= small_cap:
        return generic_nr_aut_orbits(G, small_cap)
    raise AutGenerationFailed(
        f"no curated outer maps for {G.meta.get('kind')} and order "
        f"{G.order} is too large for the generic search"
    )


# ---------------------------------------------------------------------------
# symmetric-group spectrum oracle


def sym_spectrum_oracle(n: int) -> OrderSet:
    """Distinct lcm values over partitions of n (= element orders of
    Sym(n)); parts equal to 1 never change the lcm, so only parts >= 2
    are enumerated."""
    if n < 1 or n > 200:
        raise DomainError("n out of the supported oracle range")
    out: set[int] = set()

    def rec(remaining: int, max_part: int, acc: int) -> None:
        out.add(acc)
        for part in range(min(remaining, max_part), 1, -1):
            rec(remaining - part, part, acc * part // math.gcd(acc, part))

    rec(n, n, 1)
    return OrderSet.from_iterable(out)


__all__ = [
    "AUT_CAP",
    "DEFAULT_CAP",
    "SmallGroup",
    "build_alternating",
    "build_classical",
    "build_cyclic",
    "build_symmetric",
    "conjugacy_class_count",
    "element_orders",
    "enumerate_automorphisms",
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
