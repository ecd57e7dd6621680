"""Automorphism-orbit counts for the oracle groups.

The orbit count is obtained by fusing conjugacy classes under a set of
outer automorphisms.  For the named simple groups the outer generators
are explicit: field automorphisms act entrywise on matrix coordinates
(hence permute the underlying points), diagonal automorphisms are
conjugations by elements of the ambient isometry/similitude group, and
the duality automorphism of PSL_n uses inverse-transpose on stored
matrix witnesses.  For tiny arbitrary groups a generic backtrack over
generator images enumerates the full automorphism group.  Failures
raise; nothing is approximated silently.
"""

from __future__ import annotations

from typing import Callable

from ..errors import AutGenerationFailed
from .ffield import Fq
from .groups import (
    Matrix,
    Perm,
    SmallGroup,
    close_under_products,
    mat_apply,
    mat_inverse,
    mat_transpose,
    normalize,
    perm_compose,
    perm_inverse,
    perm_order,
)

AutoMap = Callable[[Perm], Perm]


def conjugation_map(pi: Perm) -> AutoMap:
    pi_inv = perm_inverse(pi)
    return lambda g: perm_compose(perm_compose(pi_inv, g), pi)


def point_relabel_map(G: SmallGroup, relabel: Callable) -> AutoMap:
    """Automorphism induced by a permutation of the underlying points
    (e.g. a semilinear map normalizing the group)."""
    points = G.meta["points"]
    F: Fq = G.meta["field"]
    index = {pt: i for i, pt in enumerate(points)}
    pi = tuple(index[relabel(pt)] for pt in points)
    return conjugation_map(pi)


def field_automorphism(G: SmallGroup) -> AutoMap:
    """Entrywise x -> x**p on coordinates, projectively normalized."""
    F: Fq = G.meta["field"]
    projective = G.meta["projective"]

    def relabel(pt):
        w = tuple(F.frob[x] for x in pt)
        return normalize(F, w) if projective else w

    return point_relabel_map(G, relabel)


def matrix_conjugation(G: SmallGroup, mat: Matrix) -> AutoMap:
    """Conjugation by an explicit ambient matrix (point permutation)."""
    F: Fq = G.meta["field"]
    n = G.meta["n"]
    projective = G.meta["projective"]
    points = G.meta["points"]
    index = {pt: i for i, pt in enumerate(points)}
    images = []
    for pt in points:
        w = mat_apply(F, n, mat, pt)
        if projective:
            w = normalize(F, w)
        images.append(index[w])
    return conjugation_map(tuple(images))


def duality_automorphism(G: SmallGroup) -> AutoMap:
    """g -> inverse-transpose(g), computed through matrix witnesses."""
    if G.witnesses is None:
        raise AutGenerationFailed("duality needs matrix witnesses")
    F: Fq = G.meta["field"]
    n = G.meta["n"]
    points = G.meta["points"]
    index = {pt: i for i, pt in enumerate(points)}

    def act(perm: Perm) -> Perm:
        m = G.witnesses[perm]
        dual = mat_transpose(n, mat_inverse(F, n, m))
        images = []
        for pt in points:
            w = normalize(F, mat_apply(F, n, dual, pt))
            images.append(index[w])
        return tuple(images)

    return act


def nr_aut_orbits_from_maps(G: SmallGroup, outer_maps: list[AutoMap]) -> int:
    """Number of orbits of <Inn(G), outer_maps> on G: fuse conjugacy
    classes under the given maps."""
    class_of, reps = G.conjugacy_classes()
    parent = list(range(len(reps)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in outer_maps:
        for cid, rep in enumerate(reps):
            image = f(rep)
            if image not in class_of:
                raise AutGenerationFailed("outer map does not preserve the group")
            a, b = find(cid), find(class_of[image])
            if a != b:
                parent[a] = b
    return len({find(i) for i in range(len(reps))})


# ---------------------------------------------------------------------------
# generic automorphism search for tiny groups


def _generating_sequence(G: SmallGroup) -> list[Perm]:
    """The elements, in sorted order, that are not in the group generated
    by the ones before them."""
    return close_under_products(sorted(G.elements), G.degree)[0]


def enumerate_automorphisms(G: SmallGroup, max_order: int = 10_000):
    """All automorphisms of a tiny group, as element->element dicts.

    Backtracks over images of a generating sequence, using order and
    class-size invariants to prune, then verifies multiplicativity on
    the whole Cayley closure.
    """
    if G.order > max_order:
        raise AutGenerationFailed(f"group too large ({G.order}) for generic search")
    identity = tuple(range(G.degree))
    gens = _generating_sequence(G)
    class_of, reps = G.conjugacy_classes()
    class_size = [0] * len(reps)
    for e in G.elements:
        class_size[class_of[e]] += 1

    def signature(e: Perm):
        # order, class size, and the class sizes of the power map images:
        # all Aut-invariant, and cheap enough for tiny groups
        order = perm_order(e)
        powers = []
        x = e
        for j in range(2, order):
            x = perm_compose(x, e)
            if order % j == 0:
                powers.append((j, class_size[class_of[x]]))
        return (order, class_size[class_of[e]], tuple(powers))

    candidates = [
        [e for e in G.elements if signature(e) == signature(g)] for g in gens
    ]

    # derivation DAG: every element as parent*gen
    parent_of: dict[Perm, tuple[Perm, int]] = {}
    frontier = [identity]
    seen = {identity}
    while frontier:
        new_frontier = []
        for cur in frontier:
            for idx, g in enumerate(gens):
                nxt = perm_compose(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    parent_of[nxt] = (cur, idx)
                    new_frontier.append(nxt)
        frontier = new_frontier

    elements = list(G.elements)
    autos = []

    def build_map(images: list[Perm]):
        phi = {identity: identity}

        def resolve(e: Perm) -> Perm:
            stack = []
            while e not in phi:
                stack.append(e)
                e = parent_of[e][0]
            val = phi[e]
            while stack:
                e = stack.pop()
                par, idx = parent_of[e]
                val = perm_compose(phi[par], images[idx])
                phi[e] = val
            return val

        for e in elements:
            resolve(e)
        # verify: phi(x * g_i) == phi(x) * images[i] for all x, i
        for x in elements:
            px = phi[x]
            for idx, g in enumerate(gens):
                if phi[perm_compose(x, g)] != perm_compose(px, images[idx]):
                    return None
        if len(set(phi.values())) != len(elements):
            return None
        return phi

    def backtrack(pos: int, chosen: list[Perm]):
        if pos == len(gens):
            phi = build_map(chosen)
            if phi is not None:
                autos.append(phi)
            return
        for cand in candidates[pos]:
            # cheap pairwise invariant: orders of products must match
            ok = True
            for prev_g, prev_c in zip(gens[:pos], chosen):
                if perm_order(perm_compose(prev_g, gens[pos])) != perm_order(
                    perm_compose(prev_c, cand)
                ):
                    ok = False
                    break
            if ok:
                backtrack(pos + 1, chosen + [cand])

    backtrack(0, [])
    return autos


def generic_nr_aut_orbits(G: SmallGroup, max_order: int = 10_000) -> int:
    """Orbit count via full enumeration of Aut for tiny groups."""
    autos = enumerate_automorphisms(G, max_order)
    if not autos:
        raise AutGenerationFailed("no automorphisms found (bug)")
    class_of, reps = G.conjugacy_classes()
    parent = list(range(len(reps)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for phi in autos:
        for cid, rep in enumerate(reps):
            a, b = find(cid), find(class_of[phi[rep]])
            if a != b:
                parent[a] = b
    return len({find(i) for i in range(len(reps))})


def generic_aut_order(G: SmallGroup, max_order: int = 10_000) -> int:
    return len(enumerate_automorphisms(G, max_order))
