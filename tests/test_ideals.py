"""Monomial ideal arithmetic, the splitting identity, and rendering."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree_satisfying

from cmlab import get_fixture
from cmlab.complexes import MultiplicityAssignment, SimplicialComplex
from cmlab.errors import (
    AmbientMismatch,
    FacetIndexOutOfRange,
    HypothesesViolated,
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


def ideal(n, *gens):
    return MonomialIdeal(n, tuple(tuple(g) for g in gens))


def test_minimalization_drops_redundant_generators():
    i = ideal(2, (1, 0), (1, 1), (2, 0))
    assert i.generators == ((1, 0),)


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
    from cmlab import fixture_names
    from conftest import random_assignment

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
