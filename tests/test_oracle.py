import itertools
import math
from collections import Counter

import pytest

from ordspectra import arith, oracle, sym_partitions
from ordspectra.errors import CapacityError, CapExceeded, DomainError
from ordspectra.oracle import build
from ordspectra.oracle.autos import duality_automorphism
from ordspectra.oracle.groups import close_under_products, matrices_to_perms, perm_compose


def test_symmetric_and_alternating():
    s4 = oracle.build_symmetric(4)
    assert s4.order == 24
    assert s4.element_orders().values == (1, 2, 3, 4)
    assert s4.conjugacy_class_count() == 5
    a5 = oracle.build_alternating(5)
    assert a5.order == 60
    assert a5.element_orders().values == (1, 2, 3, 5)
    assert a5.conjugacy_class_count() == 5
    assert oracle.nr_element_orders(s4) == 4
    trivial = oracle.build_cyclic(1)
    assert oracle.nr_element_orders(trivial) == 1


def test_classical_constructions(get_group):
    psl25 = get_group("PSL", 2, 5)
    assert psl25.order == 60
    gu22 = get_group("GU", 2, 2)
    assert gu22.order == 18
    assert gu22.element_orders().values == (1, 2, 3, 6)
    psl27 = get_group("PSL", 2, 7)
    assert psl27.element_orders().values == (1, 2, 3, 4, 7)
    assert psl27.conjugacy_class_count() == 6


def test_unitary_groups_over_f4(get_group):
    # SU_3(2) = 3^(1+2):Q8 is not generated by its transvections; a recipe
    # without the odd-dimension root elements closes to a quarter of each order
    for kind, order in (("GU", 648), ("SU", 216), ("PSU", 72)):
        group = get_group(kind, 3, 2)
        assert group.order == order == oracle.expected_order(kind, 3, 2)


@pytest.mark.parametrize("kind, n, q", [
    ("GU", 2, 2), ("GU", 3, 2), ("SU", 3, 2), ("PSU", 3, 2), ("PSU", 4, 2),
    ("GL", 3, 2), ("SL", 3, 3), ("PSL", 3, 4), ("Sp", 4, 3), ("PSp", 4, 3),
    ("GO", 3, 3), ("GOplus", 4, 3), ("GOminus", 4, 3), ("GOplus", 4, 2),
    ("GOminus", 4, 2), ("GOplus", 6, 2),
])
def test_unitary_recipes_schreier_sims(kind, n, q):
    """The full recipe of each form generates the group, by Schreier-Sims
    rather than by the oracle's own closure."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    from ordspectra.oracle.build import (_field_for, _gl_gens, _sp_gens, _unitary_gens,
                                         orthogonal_group_gens)
    from ordspectra.oracle.groups import all_vectors, projective_points

    F = _field_for(kind, q)
    if kind in ("GL", "SL", "PSL"):
        mats = _gl_gens(F, n, special=kind != "GL")
    elif kind in ("GU", "SU", "PSU"):
        mats = _unitary_gens(F, n, special=kind != "GU")
    elif kind in ("Sp", "PSp"):
        mats = _sp_gens(F, n)
    else:
        sign = {"GO": 0, "GOplus": 1, "GOminus": -1}[kind]
        mats = [m for m, _ in orthogonal_group_gens(F, n, sign)]
    projective = kind.startswith("P")
    points = projective_points(F, n) if projective else all_vectors(F, n)
    perms = matrices_to_perms(F, n, mats, points, projective)
    group = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p)) for p in perms])
    assert group.order() == oracle.expected_order(kind, n, q)


@pytest.mark.parametrize("kind, n, q, classes", [
    ("SO", 3, 3, 5),            # S4
    ("Omega", 3, 3, 4),         # A4
    ("Omegaminus", 4, 2, 5),    # A5
    ("Omegaminus", 4, 3, 7),    # PSL2(9)
    ("POmegaplus", 4, 3, 16),   # A4 x A4
    ("Omega", 5, 3, 20),        # PSp(4,3)
    ("SOminus", 4, 3, 14),
    ("GOplus", 4, 2, 9),        # transvections alone give half of it
])
def test_orthogonal_subgroups_low_rank(get_group, kind, n, q, classes):
    group = get_group(kind, n, q)
    assert group.order == oracle.expected_order(kind, n, q)
    assert group.conjugacy_class_count() == classes


@pytest.mark.parametrize("kind, n", [
    ("Omega", 3), ("Omegaplus", 4), ("Omegaminus", 4), ("POmegaplus", 4), ("POmegaminus", 4),
])
def test_spinor_kernel_is_derived_subgroup(get_group, kind, n):
    """For q odd these are cut as the kernel of the determinant and the
    spinor norm; here that equals the derived subgroup of the GO recipe
    group, computed by sympy."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group = get_group(kind, n, 3)
    derived = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in group.meta["parent_gens"]]
    ).derived_subgroup()
    assert derived.order() == group.order
    assert all(derived.contains(combinatorics.Permutation(list(g))) for g in group.gens)


def test_closure_skips_redundant_generators():
    swap, cycle = bytes((1, 0, 2, 3)), bytes((1, 2, 3, 0))
    identity = bytes((0, 1, 2, 3))
    gens = [identity, swap, swap, cycle, perm_compose(swap, cycle), cycle]
    used, elements = close_under_products(iter(gens), 4)
    assert used == [swap, cycle]
    assert len(elements) == 24
    with pytest.raises(CapExceeded):
        close_under_products(gens, 4, limit=23)


@pytest.mark.parametrize("n, q", [(3, 2), (3, 3), (4, 2)])
def test_duality_inverse_transposes_the_recipe(get_group, n, q):
    """The recipe generator I + v*E_ij goes to (I + v*E_ij)^-T = I - v*E_ji."""
    from ordspectra.oracle.build import _gl_gens

    group = get_group("PSL", n, q)
    F, points = group.meta["field"], group.meta["points"]
    duality = duality_automorphism(group)
    for mat in _gl_gens(F, n, special=True):
        (i, j), = [(i, j) for i in range(n) for j in range(n) if i != j and mat[i * n + j]]
        dual = [int(r == c) for r in range(n) for c in range(n)]
        dual[j * n + i] = F.neg[mat[i * n + j]]
        perm, expected = matrices_to_perms(F, n, [mat, tuple(dual)], points, projective=True)
        assert duality(perm) == expected


def test_duality_is_an_automorphism(get_group):
    """On PSL(3,2) the duality is a bijective homomorphism, checked on all pairs."""
    G = get_group("PSL", 3, 2)
    duality = duality_automorphism(G)
    image = {g: duality(g) for g in G.elements}
    assert set(image.values()) == G.elements
    assert all(image[perm_compose(a, b)] == perm_compose(image[a], image[b])
               for a in G.elements for b in G.elements)


@pytest.mark.parametrize("kind, n, message", [
    ("GL", 0, "dimension n must be >= 1; got 0"),
    ("GL", -1, "dimension n must be >= 1; got -1"),
    ("Sp", 0, "dimension n must be >= 1; got 0"),
    ("Sp", 3, "Sp needs an even dimension; got 3"),
    ("PSp", 5, "PSp needs an even dimension; got 5"),
    ("GOplus", 3, "GOplus needs an even dimension; got 3"),
    ("Omegaminus", 5, "Omegaminus needs an even dimension; got 5"),
    ("GO", 2, "even dimension needs a plus/minus kind"),
    ("Omega", 4, "even dimension needs a plus/minus kind"),
])
def test_dimension_refused_before_any_work(kind, n, message):
    # cap=1: a refusal that came after the order check would be CapExceeded
    with pytest.raises(DomainError) as err:
        oracle.build_classical(kind, n, 3, cap=1)
    assert str(err.value) == message


@pytest.mark.parametrize("kind, n, order", [("GOplus", 2, 4), ("GO", 1, 2), ("Sp", 2, 24)])
def test_smallest_dimensions_build(get_group, kind, n, order):
    assert get_group(kind, n, 3).order == order


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_gu_1_is_the_norm_one_scalars(q):
    assert oracle.build_classical("GU", 1, q).order == q + 1


@pytest.mark.parametrize("kind, n, q", [("GL", 3, 2), ("SOminus", 4, 3)])
def test_overshooting_closure_is_a_construction_bug(monkeypatch, kind, n, q):
    """A closure that passes twice the expected order is refused as a
    construction bug, not as a capacity limit (the kernel path too)."""
    quarter = oracle.expected_order(kind, n, q) // 4
    monkeypatch.setattr(build, "expected_order", lambda *args: quarter)
    with pytest.raises(DomainError, match=rf"construction of {kind}\({n},{q}\) passed"):
        oracle.build_classical(kind, n, q)


def small_forms():
    """Every (kind, n <= 8, q <= 32) of order at most 10**5 that acts on
    at most 256 points over a field of at most 257 elements."""
    for kind in build.KINDS:
        even = kind in ("Sp", "PSp") or kind.endswith(("plus", "minus"))
        odd = kind in ("GO", "SO", "Omega")  # over odd q only
        for n, q in itertools.product(range(1, 9), range(2, 33)):
            if (even and n % 2) or (odd and (n % 2 == 0 or q % 2 == 0)) \
                    or arith.prime_power_split(q) is None:
                continue
            Q = q * q if kind in ("GU", "SU", "PSU") else q
            points = (Q**n - 1) // (Q - 1) if kind.startswith("P") else Q**n - 1
            if Q <= 257 and points <= 256 and build.expected_order(kind, n, q) <= 10**5:
                yield kind, n, q


def test_every_small_form_reaches_its_order():
    forms = list(small_forms())
    assert len(forms) == 364
    for kind, n, q in forms:
        assert oracle.build_classical(kind, n, q).order == build.expected_order(kind, n, q)


def test_cap_exceeded():
    with pytest.raises(CapExceeded) as err:
        oracle.build_classical("Sp", 4, 3, cap=10_000)
    assert err.value.order == 51840


@pytest.mark.parametrize("kind, n, q", [("SL", 2, 10007), ("GL", 3, 65537), ("PSL", 2, 3**7)])
def test_cap_checked_before_the_field_is_built(kind, n, q):
    # the q x q field tables alone would take minutes; q = 3**7 has no field
    with pytest.raises(CapExceeded):
        oracle.build_classical(kind, n, q)


def test_field_past_degree_six_builds():
    assert oracle.build_classical("GL", 1, 128).order == 127  # F128, 127 points


@pytest.mark.parametrize("kind, n, q, error, message", [
    ("PSL", 1, 2**9, CapacityError, "a field of 512 elements exceeds the 256-point limit"),
    ("GU", 2, 8, CapacityError, "permutation degree 4095 exceeds the 256-point limit"),  # F64
    # 1023 vectors, but the domain refusal comes first
    ("GO", 5, 4, DomainError, "odd-dimensional orthogonal groups over even q coincide"),
])
def test_refused_before_the_field_is_built(monkeypatch, kind, n, q, error, message):
    def no_field(*args):
        raise AssertionError("field built")

    monkeypatch.setattr(build, "get_field", no_field)
    with pytest.raises(error, match=message):
        oracle.build_classical(kind, n, q)


def test_conjugacy_count_bounds():
    c12 = oracle.build_cyclic(12)
    assert c12.conjugacy_class_count() == 12  # abelian: every class a singleton
    s4 = oracle.build_symmetric(4)
    assert s4.conjugacy_class_count() < s4.order


def test_divisor_closed_orders(get_group):
    for kind, n, q in [("PSL", 2, 9), ("GL", 2, 3), ("Sp", 2, 3)]:
        group = get_group(kind, n, q)
        values = set(group.element_orders().values)
        assert all(d in values for v in values for d in range(1, v + 1) if v % d == 0)


def test_nr_aut_orbits_known_values(get_group):
    assert oracle.nr_aut_orbits(oracle.build_alternating(5)) == 4
    assert oracle.nr_aut_orbits(get_group("PSL", 2, 5)) == 4
    assert oracle.nr_aut_orbits(get_group("PSL", 2, 7)) == 5
    assert oracle.nr_aut_orbits(get_group("PSL", 2, 9)) == 5
    assert oracle.nr_aut_orbits(get_group("PSL", 3, 3)) == 9
    assert oracle.nr_aut_orbits(get_group("PSL", 3, 4)) == 6
    assert oracle.nr_aut_orbits(get_group("PSL", 4, 2)) == 12
    for p in (5, 7, 11):
        assert oracle.nr_aut_orbits(oracle.build_cyclic(p)) == 2


@pytest.mark.parametrize("kind, n, q, orbits", [
    ("POmegaplus", 4, 3, 6),    # A4 x A4, as the generic search gives
    ("POmegaminus", 4, 3, 5),   # A6, as the generic search gives
    ("POmegaplus", 4, 2, 6),
    ("POmegaminus", 4, 2, 4),   # A5
    ("POmegaplus", 6, 2, 12),   # A8
    ("POmegaminus", 6, 2, 15),  # PSU(4,2)
])
def test_nr_aut_orbits_pomega(get_group, kind, n, q, orbits):
    """Conjugation by the whole GO recipe, and for q odd by a similitude
    with non-square multiplier, gives every orbit fusion."""
    assert oracle.nr_aut_orbits(get_group(kind, n, q)) == orbits


def test_generic_aut_order_on_known_groups():
    s4 = oracle.build_symmetric(4)
    assert oracle.generic_aut_order(s4) == 24  # complete group
    c6 = oracle.build_cyclic(6)
    assert oracle.generic_aut_order(c6) == 2


@pytest.mark.parametrize("group, aut_order", [
    (lambda: oracle.build_symmetric(4), 24),
    (lambda: oracle.build_alternating(4), 24),
    (lambda: oracle.build_alternating(5), 120),
    (lambda: oracle.build_symmetric(5), 120),
    (lambda: oracle.build_cyclic(12), 4),
    (lambda: oracle.build_classical("SL", 2, 3), 24),
], ids=["S4", "A4", "A5", "S5", "C12", "SL(2,3)"])
def test_enumerated_maps_are_automorphisms(group, aut_order):
    """Every map is a bijective homomorphism, checked on all pairs, and
    distinct maps are distinct automorphisms.  Each sends g1, the least
    non-identity element, to a class representative, and weighting each
    by the size of that class counts Aut."""
    G = group()
    elements = sorted(G.elements)
    index = {e: i for i, e in enumerate(elements)}
    mul = [[index[perm_compose(a, b)] for b in elements] for a in elements]
    autos = oracle.automorphisms_up_to_inner(G)
    images = {tuple(index[phi[e]] for e in elements) for phi in autos}
    assert len(autos) == len(images)
    pairs = [(a, b) for a in range(len(elements)) for b in range(len(elements))]
    for phi in images:
        assert sorted(phi) == list(range(len(elements)))
        assert all(phi[mul[a][b]] == mul[phi[a]][phi[b]] for a, b in pairs)
    class_of, reps = G.conjugacy_classes()
    g1 = elements[1]
    assert all(phi[g1] in reps for phi in autos)
    class_size = Counter(class_of.values())
    assert sum(class_size[class_of[phi[g1]]] for phi in autos) == aut_order


def test_generic_aut_orbits_match_curated_maps(get_group):
    groups = [get_group("PSL", 2, q) for q in (4, 5, 7, 8, 9, 11, 13)]
    groups += [get_group("PSL", 3, 2)]
    groups += [get_group(kind, 4, q) for kind in ("POmegaplus", "POmegaminus") for q in (2, 3)]
    groups += [oracle.build_alternating(4), oracle.build_alternating(5)]
    for G in groups:
        assert oracle.outer_maps_for(G) is not None
        assert oracle.generic_nr_aut_orbits(G) == oracle.nr_aut_orbits(G), G.meta


@pytest.mark.parametrize("kind, n, q, orbits, aut_order", [
    ("GU", 3, 2, 10, 1296),
    ("GOplus", 4, 3, 15, 4608),
    ("GOminus", 4, 3, 13, 2880),  # C2 x S6: |Aut| = 2 * |Aut(S6)|
    ("PSp", 4, 2, 8, 1440),       # S6: curated maps would miss its graph automorphism
])
def test_generic_aut_of_groups_without_curated_maps(get_group, kind, n, q, orbits, aut_order):
    G = get_group(kind, n, q)
    assert oracle.outer_maps_for(G) is None
    assert oracle.nr_aut_orbits(G) == orbits
    assert oracle.generic_aut_order(G) == aut_order


def test_semisimple_orders(get_group):
    psp43 = get_group("PSp", 4, 3)
    assert oracle.semisimple_orders(psp43, 3).values == (1, 2, 4, 5)


def partition_lcms(n):
    """Distinct lcm values over the partitions of n into parts >= 2, by
    walking every partition: the reference for the knapsack."""
    out = set()

    def rec(remaining, max_part, acc):
        out.add(acc)
        for part in range(min(remaining, max_part), 1, -1):
            rec(remaining - part, part, math.lcm(acc, part))

    rec(n, n, 1)
    return out


def test_sym_spectrum_oracle():
    assert oracle.sym_spectrum_oracle(1).values == (1,)
    assert oracle.sym_spectrum_oracle(4).values == (1, 2, 3, 4)
    assert len(oracle.sym_spectrum_oracle(7)) == 9
    for n in range(1, 46):
        assert oracle.sym_spectrum_oracle(n).values == tuple(sorted(partition_lcms(n))), n


@pytest.mark.parametrize("n", [100, 150])
def test_sym_spectrum_oracle_sound(n):
    # every value is an order of Sym(n): its prime-power parts fit in n
    # points; with the count this makes the set the whole spectrum
    primes = [p for p in range(2, n + 1) if all(p % r for r in range(2, p))]
    spectrum = oracle.sym_spectrum_oracle(n)
    for L in spectrum.values:
        points = 0
        for p in primes:
            if L % p == 0:
                part = p
                while L % (part * p) == 0:
                    part *= p
                points += part
                L //= part
        assert L == 1 and points <= n
    assert len(spectrum) == sym_partitions.nr_element_orders_sym(n)


@pytest.mark.parametrize("n", [0, 201])
def test_sym_spectrum_oracle_range(n):
    with pytest.raises(DomainError):
        oracle.sym_spectrum_oracle(n)


def test_expected_orders():
    assert oracle.expected_order("PSL", 2, 5) == 60
    assert oracle.expected_order("GU", 2, 2) == 18
    assert oracle.expected_order("Sp", 4, 3) == 51840
    assert oracle.expected_order("PSU", 3, 3) == 6048
    assert oracle.expected_order("POmegaplus", 6, 2) == 20160
    assert oracle.expected_order("POmegaminus", 6, 2) == 25920
    assert oracle.expected_order("Omega", 1, 3) == 1
    assert oracle.expected_order("Omegaminus", 4, 3) == 360


@pytest.mark.parametrize("kind", ["SOplus", "Omegaplus", "POmegaplus"])
def test_dickson_kernel_plus_4_2(get_group, kind):
    """For q even these are the kernel of the Dickson invariant on GO+_4(2),
    S3 x S3 of order 36 with 9 classes; the derived subgroup of GO+_4(2)
    has order 18 only."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group = get_group(kind, 4, 2)
    assert group.order == oracle.expected_order(kind, 4, 2) == 36
    assert group.conjugacy_class_count() == 9
    checked = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in group.gens])
    assert checked.order() == 36
