"""Automorphism-orbit counts for the oracle groups.

The orbit count is obtained by fusing conjugacy classes under a set of
outer automorphisms.  For the named simple groups the outer generators
are explicit: field automorphisms act entrywise on matrix coordinates
(hence permute the underlying points), diagonal automorphisms are
conjugations by elements of the ambient isometry/similitude group, and
the duality automorphism of PSL_n (inverse-transpose) is read off how
each point permutation moves the hyperplanes.  For other tiny groups a
generic backtrack over generator images lists Aut up to inner
automorphisms (the maps sending the first generator to a class
representative), which gives both the orbit count and |Aut|.  Failures
raise; nothing is approximated silently.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from ..errors import AutGenerationFailed
from .ffield import Fq
from .groups import (
    Matrix,
    Perm,
    SmallGroup,
    close_under_products,
    identity,
    matrices_to_perms,
    perm_compose,
    perm_inverse,
    perm_order,
    perm_table,
)

AutoMap = Callable[[Perm], Perm]


def conjugation_map(pi: Perm) -> AutoMap:
    pi_inv, pi_table = perm_inverse(pi), perm_table(pi)
    return lambda g: pi_inv.translate(perm_table(g)).translate(pi_table)


def field_automorphism(G: SmallGroup) -> AutoMap:
    """Entrywise x -> x**p on coordinates.  It fixes 0 and 1, so it maps
    normalized projective points to normalized points; conjugation by
    the permutation it induces on the points is the automorphism."""
    F: Fq = G.meta["field"]
    points = G.meta["points"]
    index = {pt: i for i, pt in enumerate(points)}
    return conjugation_map(bytes(index[tuple(F.frob[x] for x in pt)] for pt in points))


def matrix_conjugation(G: SmallGroup, mat: Matrix) -> AutoMap:
    """Conjugation by an explicit ambient matrix (point permutation)."""
    meta = G.meta
    return conjugation_map(matrices_to_perms(meta["field"], meta["n"], [mat],
                                             meta["points"], meta["projective"])[0])


def duality_automorphism(G: SmallGroup) -> AutoMap:
    """g -> inverse-transpose(g) on PSL_n, from the point permutation alone.

    g maps the hyperplane {x : w^T x = 0} of the point w onto the
    hyperplane of g^-T w.  So the image of g sends the point w to the
    point whose hyperplane is g's image of the hyperplane of w."""
    F: Fq = G.meta["field"]
    points = G.meta["points"]

    def dot(w, x) -> int:  # w^T x
        acc = 0
        for a, b in zip(w, x):
            acc = F.add[acc][F.mul[a][b]]
        return acc

    hyperplanes = [bytes(i for i, x in enumerate(points) if not dot(w, x)) for w in points]
    point_of = {frozenset(h): i for i, h in enumerate(hyperplanes)}

    def image(perm: Perm) -> Perm:
        table = perm_table(perm)
        return bytes(point_of[frozenset(h.translate(table))] for h in hyperplanes)

    return image


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

GENERIC_CAP = 10_000  # the largest group order the generic search takes


def automorphisms_up_to_inner(G: SmallGroup) -> list[dict[Perm, Perm]]:
    """The automorphisms that send g1, the least non-identity element, to
    a class representative, as element->element dicts.

    If r = c^-1 psi(g1) c represents the class of psi(g1), then the map
    x -> c^-1 psi(x) c is listed, so Aut is Inn(G) times the listed maps.
    Inner maps fix every class, so fusing classes under the listed maps
    gives the Aut-orbits.  Conjugation by c maps the automorphisms with
    g1 -> r one to one onto those with g1 -> c^-1 r c, so as many send g1
    to each element of a class C as to its representative: |Aut| is the
    sum over listed phi of |class of phi(g1)|.  Representatives follow
    the hash seed, so the list moves from run to run but neither count
    does: conjugate representatives have fibres of equal size.

    Backtracks over images of a generating sequence (the sorted elements
    not in the group generated by the ones before them, g1 first),
    pruning by element order, class size and the orders of pairwise
    products.  Each complete choice of images is extended in one
    breadth-first pass along x -> x*g_i: the first edge into y sets
    phi(y) = phi(x)*image_i, every later edge checks it, and the
    candidate is dropped at the first mismatch.  The edges are walked
    once per search.  A map that passes every edge is a homomorphism; it
    is kept when it is also a bijection.
    """
    if G.order > GENERIC_CAP:
        raise AutGenerationFailed(
            f"order {G.order} exceeds the generic-search cap {GENERIC_CAP}")
    one = identity(G.degree)
    gens = close_under_products(sorted(G.elements), G.degree)[0]
    class_of, reps = G.conjugacy_classes()
    class_size = Counter(class_of.values())
    class_order = [perm_order(rep) for rep in reps]
    invariant = {e: (class_order[c], class_size[c]) for e, c in class_of.items()}
    # each candidate image with its table, built once per search
    candidates = [
        [(e, perm_table(e)) for e in (reps if pos == 0 else G.elements)
         if invariant[e] == invariant[g]]
        for pos, g in enumerate(gens)
    ]
    # orders of g_j * g_pos for j < pos, which each choice must reproduce
    pair_orders = [[invariant[perm_compose(prev, g)][0] for prev in gens[:pos]]
                   for pos, g in enumerate(gens)]
    # the Cayley graph in breadth-first order: each x with, per generator,
    # y = x*g_i and whether this edge is the first one into y
    gen_tables = [perm_table(g) for g in gens]
    steps = []
    seen = {one}
    frontier = [one]
    while frontier:
        new_frontier = []
        for x in frontier:
            targets = []
            for table in gen_tables:
                y = x.translate(table)
                first = y not in seen
                targets.append((y, first))
                if first:
                    seen.add(y)
                    new_frontier.append(y)
            steps.append((x, targets))
        frontier = new_frontier
    autos = []

    def extend(tables: list[bytes]):
        """phi from the tables of the chosen images, or None."""
        phi = {one: one}
        for x, targets in steps:
            px = phi[x]
            for table, (y, first) in zip(tables, targets):
                py = px.translate(table)
                if first:
                    phi[y] = py
                elif phi[y] != py:
                    return None
        if len(set(phi.values())) != len(phi):
            return None
        return phi

    def backtrack(pos: int, chosen: list[Perm], tables: list[bytes]):
        if pos == len(gens):
            phi = extend(tables)
            if phi is not None:
                autos.append(phi)
            return
        need = pair_orders[pos]
        for cand, table in candidates[pos]:
            # cheap pairwise invariant: orders of products must match
            if all(invariant[prev.translate(table)][0] == order
                   for prev, order in zip(chosen, need)):
                backtrack(pos + 1, chosen + [cand], tables + [table])

    backtrack(0, [], [])
    return autos


def generic_nr_aut_orbits(G: SmallGroup) -> int:
    """Orbit count by fusing classes under the automorphisms up to inner."""
    autos = automorphisms_up_to_inner(G)
    if not autos:
        raise AutGenerationFailed("no automorphisms found (bug)")
    return nr_aut_orbits_from_maps(G, [phi.__getitem__ for phi in autos])


def generic_aut_order(G: SmallGroup) -> int:
    """|Aut(G)| = sum over the listed maps of |class of phi(g1)|."""
    class_of, _ = G.conjugacy_classes()
    class_size = Counter(class_of.values())
    one = identity(G.degree)
    g1 = min(G.elements - {one}, default=one)
    return sum(class_size[class_of[phi[g1]]] for phi in automorphisms_up_to_inner(G))
