"""The oracle's permutation kernel: bytes.translate composition, the
256-point limit, the class walk's generating pair, and per-class orders."""

import os
import subprocess
import sys
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordspectra import cli, oracle
from ordspectra.errors import CapacityError, CapExceeded
from ordspectra.oracle import groups
from ordspectra.oracle.autos import conjugation_map
from ordspectra.oracle.groups import (SmallGroup, candidate_pairs, class_conjugators,
                                      close_under_products, generates, perm_compose,
                                      perm_inverse, perm_order, perm_table)
from ordspectra.torus_spectra import OrderSet


def _perm_triples():
    perm = lambda n: st.permutations(range(n)).map(bytes)  # noqa: E731
    return st.integers(1, 256).flatmap(lambda n: st.tuples(perm(n), perm(n), perm(n)))


@settings(max_examples=200, deadline=None)
@given(_perm_triples())
def test_compose_and_conjugation_match_reference(triple):
    a, b, g = triple
    reference = bytes(b[x] for x in a)
    assert perm_compose(a, b) == reference
    assert a.translate(perm_table(b)) == reference
    conj = perm_compose(perm_compose(perm_inverse(g), a), g)
    assert conjugation_map(g)(a) == conj
    # the form the conjugacy-class walk uses
    assert perm_inverse(g).translate(perm_table(a)).translate(perm_table(g)) == conj


def test_degree_limit_is_256_points():
    assert oracle.build_cyclic(256).order == 256
    with pytest.raises(CapacityError, match="degree 257 exceeds the 256-point limit"):
        oracle.build_cyclic(257)
    with pytest.raises(CapacityError, match="degree 342 exceeds the 256-point limit"):
        oracle.build_classical("GO", 3, 7)  # 7**3 - 1 nonzero vectors


# -- the tuple/itemgetter kernel the oracle used before, kept as the reference


def _getter(a):
    if len(a) < 2:  # itemgetter with one index returns a scalar
        return lambda b: tuple(b[x] for x in a)
    return itemgetter(*a)


def _inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def reference_closure(gens, degree):
    elements = {tuple(range(degree))}
    used = []
    for g in gens:
        if g in elements:
            continue
        used.append(g)
        frontier = list(elements)
        step = [g]
        while frontier:
            new_frontier = []
            for cur in frontier:
                cur_then = _getter(cur)
                for h in step:
                    nxt = cur_then(h)
                    if nxt not in elements:
                        elements.add(nxt)
                        new_frontier.append(nxt)
            frontier = new_frontier
            step = used
    return used, elements


def reference_classes(elements, gens):
    conjugators = [(_getter(_inverse(g)), g) for g in gens]
    class_of, reps = {}, []
    for e in elements:
        if e in class_of:
            continue
        cid = len(reps)
        reps.append(e)
        frontier = [e]
        class_of[e] = cid
        while frontier:
            x_then = _getter(frontier.pop())
            for ginv_then, g in conjugators:
                y = ginv_then(x_then(g))
                if y not in class_of:
                    class_of[y] = cid
                    frontier.append(y)
    return class_of, reps


def _partition(class_of, reps):
    """Each class as a frozenset of tuples, with the order of its representative."""
    members = [set() for _ in reps]
    for e, cid in class_of.items():
        members[cid].add(tuple(e))
    return {frozenset(m): perm_order(rep) for m, rep in zip(members, reps)}


@pytest.mark.parametrize("kind, n, q", [
    ("PSL", 3, 2), ("PSU", 3, 3), ("PSp", 4, 3), ("GU", 3, 2), ("Alt", 5, None),
    ("Sym", 5, None), ("PSL", 1, 5), ("Cyclic", 1, None), ("Sym", 1, None),
    ("Alt", 1, None), ("Alt", 2, None),
    # closed from Schreier generators (build._kernel)
    ("SOminus", 4, 2), ("POmegaminus", 4, 3),
    # five or six generators, walked by a generating pair
    ("PSU", 4, 2), ("PSL", 3, 4), ("PSL", 4, 2),
])
def test_kernel_matches_tuple_reference(get_group, kind, n, q):
    builders = {"Alt": oracle.build_alternating, "Sym": oracle.build_symmetric,
                "Cyclic": oracle.build_cyclic}
    group = builders[kind](n) if kind in builders else get_group(kind, n, q)
    tuple_gens = [tuple(g) for g in group.gens]
    used, elements = reference_closure(tuple_gens, group.degree)
    kept, closed = close_under_products(group.gens, group.degree)
    assert [tuple(g) for g in kept] == used
    assert {tuple(e) for e in closed} == {tuple(e) for e in group.elements} == elements
    reference = _partition(*reference_classes(elements, tuple_gens))
    assert _partition(*group.conjugacy_classes()) == reference
    assert group.conjugators == class_conjugators(group.gens, group.degree, group.order)
    if len(group.gens) > 2 and group.order > 1:
        assert len(group.conjugators) == 2


# -- the generating pair of the class walk


def _sym5(gens):
    """Sym(5) (or a subgroup) on the given generators."""
    return SmallGroup(degree=5, gens=gens, elements=close_under_products(gens, 5)[1])


def _all_generator_partition(group):
    return _partition(*reference_classes({tuple(e) for e in group.elements},
                                         [tuple(g) for g in group.gens]))


TRANSPOSITION = bytes((1, 0, 2, 3, 4))
THREE_CYCLE = bytes((1, 2, 0, 3, 4))
FIVE_CYCLE = bytes((1, 2, 3, 4, 0))
ADJACENT_TRANSPOSITIONS = [bytes((*range(i), i + 1, i, *range(i + 2, 5))) for i in range(4)]


def test_pair_of_exactly_half_the_order_is_refused():
    # a 3-cycle and a 5-cycle generate Alt(5): 60 elements, |Sym(5)| / 2
    assert len(close_under_products([THREE_CYCLE, FIVE_CYCLE], 5)[1]) == 60
    assert not generates((THREE_CYCLE, FIVE_CYCLE), 5, 120)
    assert generates((THREE_CYCLE, FIVE_CYCLE), 5, 60)
    assert generates((TRANSPOSITION, FIVE_CYCLE), 5, 120)


def test_generating_pair_is_accepted():
    group = _sym5(ADJACENT_TRANSPOSITIONS)
    assert group.order == 120
    pair = class_conjugators(group.gens, 5, 120)
    assert tuple(pair) in set(candidate_pairs(group.gens))
    assert len(close_under_products(pair, 5)[1]) == 120
    assert _partition(*group.conjugacy_classes()) == _all_generator_partition(group)
    assert group.conjugators == pair
    assert group.conjugacy_class_count() == 7
    # at most two generators are walked as they are
    assert class_conjugators([TRANSPOSITION, FIVE_CYCLE], 5, 120) == [TRANSPOSITION, FIVE_CYCLE]


def test_walk_falls_back_to_every_generator(monkeypatch):
    # every candidate lies in Alt(5), a proper subgroup of Sym(5)
    monkeypatch.setattr(groups, "candidate_pairs",
                        lambda gens: [(THREE_CYCLE, FIVE_CYCLE)] * groups.PAIR_TRIES)
    group = _sym5(ADJACENT_TRANSPOSITIONS)
    assert _partition(*group.conjugacy_classes()) == _all_generator_partition(group)
    assert group.conjugators == ADJACENT_TRANSPOSITIONS


_CONJUGATORS_SCRIPT = """
from ordspectra import oracle
group = oracle.build_classical("PSp", 4, 3)
group.conjugacy_classes()
print(len(group.gens), *(g.hex() for g in group.conjugators))
"""


def test_conjugators_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _CONJUGATORS_SCRIPT],
                              capture_output=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    count, *conjugators = outputs[0].split()
    assert int(count) == 5 and len(conjugators) == 2


@st.composite
def _generator_lists(draw):
    """(n, generators on n points): random ones, then the identity, repeats
    and products of them mixed in, which are redundant once their factors
    come first."""
    n = draw(st.integers(1, 6))
    perms = draw(st.lists(st.permutations(range(n)).map(bytes), max_size=4))
    pool = [bytes(range(n))] + perms + [perm_compose(a, b) for a in perms for b in perms]
    extra = draw(st.lists(st.sampled_from(pool), max_size=4))
    return n, draw(st.permutations(perms + extra))


@settings(max_examples=200, deadline=None)
@given(_generator_lists(), st.booleans())
def test_closure_matches_breadth_first_reference(case, one_shot):
    n, gens = case
    used, elements = close_under_products(iter(gens) if one_shot else gens, n)
    ref_used, ref_elements = reference_closure([tuple(g) for g in gens], n)
    assert [tuple(g) for g in used] == ref_used
    assert isinstance(elements, set)
    assert {tuple(e) for e in elements} == ref_elements
    assert close_under_products(iter(gens), n, limit=len(elements))[1] == elements
    if len(elements) > 1:  # the identity alone is never held against the limit
        with pytest.raises(CapExceeded):
            close_under_products(gens, n, limit=len(elements) - 1)


@pytest.mark.parametrize("build", [
    lambda: oracle.build_classical("PSL", 1, 5),
    lambda: oracle.build_cyclic(1),
    lambda: oracle.build_symmetric(1),
    lambda: oracle.build_alternating(1),
    lambda: oracle.build_alternating(2),
], ids=["PSL(1,5)", "Cyclic(1)", "Sym(1)", "Alt(1)", "Alt(2)"])
def test_trivial_groups_have_one_class(build):
    group = build()
    class_of, reps = group.conjugacy_classes()
    assert group.order == 1 and len(reps) == 1
    # every element is classed, and nothing else is
    assert set(class_of) == group.elements
    assert group.element_orders().values == (1,)
    assert oracle.nr_aut_orbits(group) == 1


@pytest.mark.parametrize("kind, n, q", [
    ("Sym", 5, None), ("PSL", 3, 2), ("GU", 3, 2), ("PSL", 2, 9), ("PSU", 3, 3),
])
def test_element_orders_match_every_element(get_group, kind, n, q):
    group = oracle.build_symmetric(n) if kind == "Sym" else get_group(kind, n, q)
    reference = OrderSet.from_iterable(perm_order(g) for g in group.elements)
    assert group.element_orders() == reference


def test_element_orders_read_one_order_per_class(monkeypatch):
    group = oracle.build_symmetric(5)
    calls = []

    def counting_order(perm):
        calls.append(perm)
        return perm_order(perm)

    monkeypatch.setattr(groups, "perm_order", counting_order)
    assert group.element_orders().values == (1, 2, 3, 4, 5, 6)
    assert len(calls) == group.conjugacy_class_count() == 7


@pytest.mark.parametrize("spec, text", [
    ("PSL:1:5", "# oracle dump for PSL:1:5: order 1\n"
                "# element orders: 1\n"
                "classnum PSL 1 5 1\n"),
    ("PSL:2:5", "# oracle dump for PSL:2:5: order 60\n"
                "# element orders: 1,2,3,5\n"
                "classnum PSL 2 5 5\n"),
    ("GU:3:2", "# oracle dump for GU:3:2: order 648\n"
               "# element orders: 1,2,3,4,6,9,12\n"
               "# class number 24 (no classnum label for GU)\n"),
    # Omega_1(q) is trivial, and B_0 is no classnum row
    ("Omega:1:3", "# oracle dump for Omega:1:3: order 1\n"
                  "# element orders: 1\n"
                  "# class number 1 (no classnum label for Omega)\n"),
], ids=["PSL:1:5", "PSL:2:5", "GU:3:2", "Omega:1:3"])
def test_cli_oracle_dump_is_pinned(capsys, spec, text):
    assert cli.main(["oracle", "dump", "--group", spec, "--out", "-"]) == 0
    assert capsys.readouterr().out == text
