"""Monomial ideal arithmetic, the splitting identity, and rendering."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_assignment,
    random_tree_satisfying,
    reference_divides,
    reference_intersect,
    reference_minimalize,
    splitting_witness_reference,
)

from cmlab import fixture_names, get_fixture
from cmlab.complexes import MultiplicityAssignment, SimplicialComplex
from cmlab.errors import (
    AmbientMismatch,
    FacetIndexOutOfRange,
    HypothesesViolated,
    MultiplicityDomainMismatch,
    VertexOutOfRange,
)
from cmlab.ideals import (
    MonomialIdeal,
    expand_ideal,
    irreducible_component,
    render_ideal,
    render_monomial,
    render_splitting,
    splitting_witness,
    stanley_reisner_ideal,
    variable_ideal,
)
from cmlab.structure import is_shelling


def ideal(n, *gens):
    return MonomialIdeal(n, tuple(tuple(g) for g in gens))


def test_minimalization_drops_redundant_generators():
    i = ideal(2, (1, 0), (1, 1), (2, 0))
    assert i.generators == ((1, 0),)


def test_minimalization_matches_definition():
    # a generator is kept exactly when no other candidate divides it
    rng = random.Random(7)
    for _ in range(200):
        gens = {
            tuple(rng.randint(0, 3) for _ in range(3))
            for _ in range(rng.randint(1, 12))
        }
        expected = sorted(
            (g for g in gens
             if not any(d != g and all(x <= y for x, y in zip(d, g)) for d in gens)),
            key=lambda g: tuple(-e for e in g),
        )
        assert ideal(3, *gens).generators == tuple(expected)


def test_generators_may_be_any_iterable():
    # validation must not use up a one-shot iterator before minimalization
    gens = [(1, 0), (0, 1), (1, 1)]
    assert MonomialIdeal(2, (g for g in gens)) == MonomialIdeal(2, tuple(gens))
    assert MonomialIdeal(2, iter(gens)).generators == ((1, 0), (0, 1))


def test_constructor_rejects_bool_exponents_and_bad_variable_counts():
    with pytest.raises(MultiplicityDomainMismatch):
        MonomialIdeal(2, [(True, 0)])
    with pytest.raises(MultiplicityDomainMismatch):
        MonomialIdeal(2, [(1, -1)])
    for n in (-1, 2.0, True, "2", None):
        with pytest.raises(AmbientMismatch):
            MonomialIdeal(n, ())
    i = ideal(2, (1, 0))
    for bad in ((True, 0), (-1, 0), (0.5, 1)):
        with pytest.raises(MultiplicityDomainMismatch):
            i.contains_monomial(bad)


def test_zero_and_unit():
    z = MonomialIdeal.zero(3)
    u = MonomialIdeal.unit(3)
    assert z.is_zero and not z.is_unit
    assert u.is_unit and not u.is_zero
    assert render_ideal(z) == "(0)"
    assert render_ideal(u) == "(1)"


def test_intersection_of_coprime_variables():
    a = variable_ideal(2, [1])
    b = variable_ideal(2, [2])
    assert a.intersect(b) == ideal(2, (1, 1))


def test_sum_absorbs_multiples():
    a = ideal(2, (1, 0))
    b = ideal(2, (1, 1))
    assert a + b == a


def test_intersect_and_sum_with_extremes():
    a = ideal(2, (1, 0))
    z = MonomialIdeal.zero(2)
    u = MonomialIdeal.unit(2)
    assert a.intersect(z) == z
    assert a.intersect(u) == a
    assert a + z == a
    assert a + u == u


def test_radical_truncates_exponents():
    i = ideal(3, (2, 0, 1), (0, 3, 0))
    assert i.radical() == ideal(3, (1, 0, 1), (0, 1, 0))


def test_containment():
    i = ideal(2, (2, 0), (0, 1))
    assert i.contains_monomial((3, 1))
    assert not i.contains_monomial((1, 0))
    assert i.contains_ideal(ideal(2, (2, 1)))
    assert not ideal(2, (2, 1)).contains_ideal(i)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        ideal(2, (1, 0)).intersect(ideal(3, (1, 0, 0)))
    with pytest.raises(AmbientMismatch):
        ideal(2, (1, 0), (0, 1, 0))
    with pytest.raises(AmbientMismatch):
        ideal(2, (1, 0)).contains_monomial((1, 0, 0))


def test_variable_ideal_rejects_out_of_range_vertex():
    assert variable_ideal(3, [1, 3]) == ideal(3, (1, 0, 0), (0, 0, 1))
    for bad in (0, 4):
        with pytest.raises(VertexOutOfRange):
            variable_ideal(3, [1, bad])


def test_variable_ideal_rejects_a_variable_that_is_not_an_int():
    # 1.5 would make no generator entry 1 and so the unit ideal, and True
    # would be read as x1
    for bad in (1.5, True, 2.0):
        with pytest.raises(VertexOutOfRange, match=f"variable {bad} not in 1..3"):
            variable_ideal(3, [bad])


def test_irreducible_components_of_star_alpha():
    am = get_fixture("star-alpha").assignment()
    assert render_ideal(irreducible_component(am, 1)) == "(x2^2,x3,x4,x5)"
    assert render_ideal(irreducible_component(am, 5)) == "(x1^2,x2,x3,x4)"
    with pytest.raises(FacetIndexOutOfRange):
        irreducible_component(am, 6)


def test_expand_matches_stanley_reisner_for_all_ones(tree_fixture):
    ones = MultiplicityAssignment.constant(tree_fixture)
    assert expand_ideal(ones) == stanley_reisner_ideal(tree_fixture)


def test_radical_of_expansion_is_stanley_reisner(tree_fixture):
    rng = random.Random(67)
    for _ in range(5):
        am = random_tree_satisfying(rng, tree_fixture, 3)
        assert expand_ideal(am).radical() == stanley_reisner_ideal(tree_fixture)


def test_triangle_boundary_expansion():
    hollow = get_fixture("triangle-boundary").complex
    ones = MultiplicityAssignment.constant(hollow)
    assert render_ideal(expand_ideal(ones)) == "(x1x2x3)"


def test_render_monomial():
    assert render_monomial((0, 0, 0)) == "1"
    assert render_monomial((1, 0, 2)) == "x1x3^2"


def test_render_splitting_format():
    component = ideal(8, *[tuple(1 if k == v else 0 for k in range(8))
                           for v in (0, 1, 2, 3, 5)])
    assert render_splitting(8, 1, component) == "(x8)+(x1,x2,x3,x4,x6)"
    assert render_splitting(8, 3, component) == "(x8^3)+(x1,x2,x3,x4,x6)"


def test_splitting_witness_all_ones(tree_fixture):
    ones = MultiplicityAssignment.constant(tree_fixture)
    order = (1, 3, 2, 4, 5, 6)
    assert splitting_witness(ones, order) == (8, 1)
    am = MultiplicityAssignment.from_overrides(tree_fixture, {(4, 8): 3})
    assert splitting_witness(am, order) == (8, 3)


def test_splitting_witness_verifies_by_arithmetic(tree_fixture):
    # the returned pair is re-checked against the two-sided identity
    ones = MultiplicityAssignment.constant(tree_fixture)
    order = (1, 3, 2, 4, 5, 6)
    i, s = splitting_witness(ones, order)
    rest = MultiplicityAssignment.constant(tree_fixture)
    lhs = None
    for j in order[:-1]:
        q = irreducible_component(rest, j)
        lhs = q if lhs is None else lhs.intersect(q)
    last = irreducible_component(ones, order[-1])
    power = tuple(s if k == i - 1 else 0 for k in range(8))
    assert lhs + last == MonomialIdeal(8, (power,)) + last


def test_splitting_witness_none_when_identity_fails(tree_fixture):
    am = MultiplicityAssignment.from_overrides(tree_fixture, {(2, 1): 2})
    assert splitting_witness(am, (6, 4, 5, 3, 2, 1)) is None


def test_splitting_witness_matches_the_folded_intersection():
    # membership tests decide both inclusions as the folded intersection
    # does, on every shelling of the triangle tree and on shellings of
    # stacked paths, with tables that keep and break the identity
    rng = random.Random(808)
    tree = get_fixture("triangle-tree").complex
    cases = [(tree, order) for order in itertools.permutations(range(1, 7)) if is_shelling(tree, order)]
    for m, d in ((6, 3), (5, 4)):
        path = SimplicialComplex.from_facets(m + d - 1, [range(k, k + d) for k in range(1, m + 1)])
        cases += [(path, tuple(range(1, m + 1))), (path, tuple(range(m, 0, -1)))]
        cases += [(path, (3, 2, 4, 1) + tuple(range(5, m + 1)))]
    outcomes = set()
    for cx, order in cases:
        assert is_shelling(cx, order)
        for mult in (
            random_tree_satisfying(rng, cx, 3),
            random_assignment(rng, cx, 2),
            random_assignment(rng, cx, 4),
        ):
            pair = splitting_witness(mult, order)
            assert pair == splitting_witness_reference(mult, order), (cx.facets, order, mult)
            outcomes.add(pair is None)
    assert outcomes == {True, False}


def test_splitting_witness_gates(tree_fixture, square_fixture):
    ones = MultiplicityAssignment.constant(tree_fixture)
    with pytest.raises(HypothesesViolated):
        splitting_witness(ones, (1, 6, 3, 2, 4, 5))  # not a shelling
    sq_ones = MultiplicityAssignment.constant(square_fixture)
    with pytest.raises(HypothesesViolated):
        splitting_witness(sq_ones, (1, 2, 3, 4))  # facet graph not a tree
    single = SimplicialComplex.from_facets(2, [[1, 2]])
    with pytest.raises(HypothesesViolated):
        splitting_witness(MultiplicityAssignment.constant(single), (1,))


# -- algebra laws ------------------------------------------------------------

monomials = st.tuples(*(st.integers(0, 3) for _ in range(3)))
ideals = st.lists(monomials, min_size=0, max_size=5).map(
    lambda gens: MonomialIdeal(3, tuple(gens))
)


@given(ideals, ideals)
@settings(max_examples=150, deadline=None)
def test_intersection_is_commutative(a, b):
    assert a.intersect(b) == b.intersect(a)


@given(ideals, ideals, ideals)
@settings(max_examples=100, deadline=None)
def test_intersection_is_associative(a, b, c):
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@given(ideals, ideals)
@settings(max_examples=150, deadline=None)
def test_sum_contains_both_terms(a, b):
    total = a + b
    assert total.contains_ideal(a)
    assert total.contains_ideal(b)


@given(ideals, ideals)
@settings(max_examples=150, deadline=None)
def test_intersection_contained_in_both(a, b):
    meet = a.intersect(b)
    assert a.contains_ideal(meet)
    assert b.contains_ideal(meet)


@given(ideals)
@settings(max_examples=150, deadline=None)
def test_radical_is_idempotent(a):
    assert a.radical().radical() == a.radical()


@given(ideals)
@settings(max_examples=150, deadline=None)
def test_radical_contains_original(a):
    assert a.radical().contains_ideal(a)


def test_radical_of_expansion_on_every_fixture():
    # the radical of the expanded ideal forgets the exponents entirely
    rng = random.Random(71)
    for name in fixture_names():
        fx = get_fixture(name)
        sr = stanley_reisner_ideal(fx.complex)
        if fx.has_alpha:
            assert expand_ideal(fx.assignment()).radical() == sr
        for _ in range(3):
            am = random_assignment(rng, fx.complex, 3)
            assert expand_ideal(am).radical() == sr


def test_codim1_neighbor_identity_at_ones():
    # adding one facet's prime to the intersection of all the others
    # leaves exactly the primes of its codimension-1 intersections
    from cmlab import RATIONALS, fixture_names, is_cm_complex

    for name in fixture_names():
        cx = get_fixture(name).complex
        if not is_cm_complex(cx, RATIONALS) or cx.m < 2:
            continue
        d = cx.dim + 1
        for i, fi in enumerate(cx.facets):
            others = MonomialIdeal.unit(cx.n)
            rhs = MonomialIdeal.unit(cx.n)
            for j, fj in enumerate(cx.facets):
                if j == i:
                    continue
                others = others.intersect(
                    variable_ideal(cx.n, [v for v in range(1, cx.n + 1) if v not in fj])
                )
                shared = tuple(sorted(set(fi) & set(fj)))
                if len(shared) == d - 1:
                    rhs = rhs.intersect(
                        variable_ideal(
                            cx.n, [v for v in range(1, cx.n + 1) if v not in shared]
                        )
                    )
            lhs = others + variable_ideal(
                cx.n, [v for v in range(1, cx.n + 1) if v not in fi]
            )
            assert lhs == rhs


# -- differential test against the lcm-all reference -------------------------

def edge_exponent(rng):
    # values at the edges of the packing width, among small ones
    if rng.random() < 0.6:
        return rng.randint(0, 3)
    k = rng.randint(1, 70)
    return rng.choice((2**k - 1, 2**k, 2**k + 1, 10**30))


def random_gens(rng, n, exponent):
    return tuple(
        tuple(exponent(rng) for _ in range(n)) for _ in range(rng.randint(0, 6))
    )


def check_against_reference(a, b, probes):
    assert a.intersect(b).generators == reference_intersect(a.generators, b.generators)
    assert (a + b).generators == reference_minimalize(a.generators + b.generators)
    assert a.contains_ideal(b) == all(
        any(reference_divides(g, h) for g in a.generators) for h in b.generators
    )
    for m in probes + a.generators + b.generators:
        assert a.contains_monomial(m) == any(reference_divides(g, m) for g in a.generators)


def reference_fold(n, ideals):
    gens = ((0,) * n,)
    for i in ideals:
        gens = reference_intersect(gens, i.generators)
    return gens


def test_ideal_arithmetic_matches_reference_on_random_ideals():
    rng = random.Random(83)
    small = lambda r: r.randint(0, 3)
    for trial in range(600):
        n = trial % 5
        exponent = edge_exponent if trial % 2 else small
        gens_a, gens_b = random_gens(rng, n, exponent), random_gens(rng, n, exponent)
        a, b = MonomialIdeal(n, gens_a), MonomialIdeal(n, gens_b)
        assert a.generators == reference_minimalize(gens_a)
        probes = random_gens(rng, n, exponent)
        for x, y in ((a, b), (b, a), (a, MonomialIdeal.zero(n)),
                     (MonomialIdeal.unit(n), a), (a, a)):
            check_against_reference(x, y, probes)


def test_ideal_arithmetic_matches_reference_on_components():
    # folds over fixtures and small stacked paths, as expand_ideal and
    # stanley_reisner_ideal build them, with pure powers up to 2**k
    rng = random.Random(89)
    paths = [
        SimplicialComplex.from_facets(m + d - 1, [range(k, k + d) for k in range(1, m + 1)])
        for d, m in ((2, 3), (3, 4), (3, 5), (4, 4))
    ]
    complexes = [get_fixture(name).complex for name in fixture_names()] + paths
    for cx in complexes:
        tables = [random_assignment(rng, cx, 3) for _ in range(2)]
        tables.append(random_assignment(rng, cx, 2 ** rng.randint(1, 40)))
        for am in tables:
            comps = [irreducible_component(am, j) for j in range(1, cx.m + 1)]
            assert all(q == MonomialIdeal(cx.n, q.generators) for q in comps)
            # one pure power per vertex missing from the facet, vertices ascending
            for j, (f, q) in enumerate(zip(cx.facets, comps), start=1):
                assert q.generators == tuple(
                    tuple(am.value(j, i) if k == i else 0 for k in range(1, cx.n + 1))
                    for i in range(1, cx.n + 1)
                    if i not in f
                )
            expected = reference_fold(cx.n, comps)
            assert expand_ideal(am).generators == expected
            check_against_reference(comps[0], comps[-1], expected)
            check_against_reference(expand_ideal(am), comps[0], ())
        primes = [variable_ideal(cx.n, s) for s in cx.stanley_reisner_primes()]
        assert stanley_reisner_ideal(cx).generators == reference_fold(cx.n, primes)
