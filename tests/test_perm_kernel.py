"""The oracle's permutation kernel: itemgetter composition and per-class orders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordspectra import cli, oracle
from ordspectra.oracle import groups
from ordspectra.oracle.autos import conjugation_map
from ordspectra.oracle.groups import perm_compose, perm_getter, perm_inverse, perm_order
from ordspectra.torus_spectra import OrderSet


def _perm_triples():
    perm = lambda n: st.permutations(range(n)).map(tuple)  # noqa: E731
    return st.integers(1, 120).flatmap(lambda n: st.tuples(perm(n), perm(n), perm(n)))


@settings(max_examples=200, deadline=None)
@given(_perm_triples())
def test_compose_and_conjugation_match_reference(triple):
    a, b, g = triple
    reference = tuple(b[x] for x in a)
    assert perm_compose(a, b) == reference
    assert perm_getter(a)(b) == reference
    conj = perm_compose(perm_compose(perm_inverse(g), a), g)
    assert conjugation_map(g)(a) == conj
    # the form the conjugacy-class walk uses
    assert perm_getter(perm_inverse(g))(perm_getter(a)(g)) == conj


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
    # a scalar image would add a non-tuple key without adding a class
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
], ids=["PSL:1:5", "PSL:2:5", "GU:3:2"])
def test_cli_oracle_dump_is_pinned(capsys, spec, text):
    assert cli.main(["oracle", "dump", "--group", spec, "--out", "-"]) == 0
    assert capsys.readouterr().out == text
