"""Exact linear algebra, Reisner checks, and the threshold oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import is_zero, matmul, random_assignment, random_pure_strongly_connected

from cmlab import GF2, RATIONALS, fixture_names, get_fixture
from cmlab.complexes import MultiplicityAssignment, SimplicialComplex
from cmlab.errors import DimensionOutOfRange, InvalidCharacteristic, VoidComplex
from cmlab.homology import (
    ExactMatrix,
    FieldSpec,
    boundary_matrix,
    is_cm_complex,
    is_cm_ideal_oracle,
    reduced_homology_ranks,
)


def test_field_spec_accepts_zero_and_primes():
    assert FieldSpec(0).characteristic == 0
    assert FieldSpec(7).characteristic == 7
    for bad in (1, 4, 6, 9, -2):
        with pytest.raises(InvalidCharacteristic):
            FieldSpec(bad)


def test_exact_matrix_rank_rationals():
    m = ExactMatrix(
        RATIONALS,
        3,
        3,
        (
            (Fraction(1), Fraction(2), Fraction(3)),
            (Fraction(2), Fraction(4), Fraction(6)),
            (Fraction(0), Fraction(1), Fraction(1)),
        ),
    )
    assert m.rank() == 2


def test_exact_matrix_rank_depends_on_characteristic():
    # the 2x2 matrix [[1,1],[1,-1]] drops rank exactly in characteristic 2
    rows = ((1, 1), (1, -1))
    over_q = ExactMatrix(RATIONALS, 2, 2, tuple(
        tuple(Fraction(x) for x in r) for r in rows
    ))
    over_f2 = ExactMatrix(GF2, 2, 2, tuple(tuple(x % 2 for x in r) for r in rows))
    assert over_q.rank() == 2
    assert over_f2.rank() == 1


def test_exact_matrix_rejects_entries_of_the_wrong_shape():
    with pytest.raises(DimensionOutOfRange):
        ExactMatrix(RATIONALS, 2, 2, ((1, 0),))
    with pytest.raises(DimensionOutOfRange):
        ExactMatrix(RATIONALS, 2, 2, ((1, 0), (0, 1, 0)))


def test_boundary_matrix_shapes(tree_fixture):
    d1 = boundary_matrix(tree_fixture, 1, RATIONALS)
    assert (d1.nrows, d1.ncols) == (8, 13)
    dm1 = boundary_matrix(tree_fixture, -1, RATIONALS)
    assert (dm1.nrows, dm1.ncols) == (0, 1)
    d0 = boundary_matrix(tree_fixture, 0, RATIONALS)
    assert (d0.nrows, d0.ncols) == (1, 8)
    assert all(x == 1 for x in d0.entries[0])
    with pytest.raises(DimensionOutOfRange):
        boundary_matrix(tree_fixture, 3, RATIONALS)


def test_boundary_squares_to_zero_everywhere():
    for name in fixture_names():
        cx = get_fixture(name).complex
        for field in (RATIONALS, GF2):
            for q in range(0, cx.dim + 1):
                lower = boundary_matrix(cx, q - 1, field)
                upper = boundary_matrix(cx, q, field)
                assert is_zero(matmul(lower, upper))


def test_reduced_homology_of_simplex_vanishes():
    full = SimplicialComplex.from_facets(4, [[1, 2, 3, 4]])
    assert reduced_homology_ranks(full, RATIONALS) == (0, 0, 0, 0, 0)


def test_reduced_homology_of_hollow_triangle():
    hollow = get_fixture("triangle-boundary").complex
    assert reduced_homology_ranks(hollow, RATIONALS) == (0, 0, 1)


def test_reduced_homology_of_two_points():
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    assert reduced_homology_ranks(two, RATIONALS) == (0, 1)


def test_reduced_homology_of_empty_face_complex():
    irrelevant = SimplicialComplex(0, ((),))
    assert reduced_homology_ranks(irrelevant, RATIONALS) == (1,)
    with pytest.raises(VoidComplex):
        reduced_homology_ranks(SimplicialComplex(0, ()), RATIONALS)


def test_projective_plane_homology_is_field_sensitive():
    rp = get_fixture("projective-plane").complex
    assert reduced_homology_ranks(rp, RATIONALS) == (0, 0, 0, 0)
    assert reduced_homology_ranks(rp, GF2) == (0, 0, 1, 1)


def test_is_cm_basic_cases(tree_fixture):
    assert is_cm_complex(tree_fixture, RATIONALS)
    assert is_cm_complex(SimplicialComplex(0, ()), RATIONALS)
    assert is_cm_complex(SimplicialComplex(0, ((),)), RATIONALS)
    # isolated points are fine: dimension 0 asks nothing below the top
    two_points = SimplicialComplex.from_facets(2, [[1], [2]])
    assert is_cm_complex(two_points, RATIONALS)
    # two disjoint edges are not: the whole complex is a disconnected link
    two_edges = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    assert not is_cm_complex(two_edges, RATIONALS)
    # pinched: two triangles sharing only one vertex; fails at the pinch link
    pinched = SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4, 5]])
    assert not is_cm_complex(pinched, RATIONALS)
    # non-pure complexes are never Cohen-Macaulay here
    mixed = SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]])
    assert not is_cm_complex(mixed, RATIONALS)


def test_is_cm_projective_plane_by_characteristic():
    rp = get_fixture("projective-plane").complex
    assert is_cm_complex(rp, RATIONALS)
    assert not is_cm_complex(rp, GF2)


def test_oracle_all_ones_matches_complex_check():
    rng = random.Random(5)
    for _ in range(12):
        cx = random_pure_strongly_connected(rng, max_n=6, max_m=5)
        ones = MultiplicityAssignment.constant(cx)
        verdict = is_cm_ideal_oracle(ones, RATIONALS)
        assert verdict.is_cm == is_cm_complex(cx, RATIONALS)
        if not verdict.is_cm:
            # an all-ones failure must already fail at threshold zero
            assert verdict.witness == (0,) * cx.n


def test_oracle_witness_is_lex_minimal_failure():
    am = get_fixture("square-alpha").assignment()
    verdict = is_cm_ideal_oracle(am, RATIONALS)
    assert not verdict.is_cm
    assert verdict.witness == (0, 2, 2, 0)
    sub = am.threshold_subcomplex(verdict.witness)
    assert not is_cm_complex(sub, RATIONALS)


def test_oracle_verdict_is_truthy():
    ones = MultiplicityAssignment.constant(get_fixture("star").complex)
    verdict = is_cm_ideal_oracle(ones, RATIONALS)
    assert verdict
    assert verdict.witness is None


def test_oracle_respects_characteristic():
    rp = get_fixture("projective-plane").complex
    ones = MultiplicityAssignment.constant(rp)
    assert is_cm_ideal_oracle(ones, RATIONALS).is_cm
    bad = is_cm_ideal_oracle(ones, GF2)
    assert not bad.is_cm
    assert bad.witness == (0,) * 6


def test_oracle_star_is_always_cm():
    # every threshold subcomplex of a star is a substar, hence connected
    star = get_fixture("star").complex
    rng = random.Random(17)
    for _ in range(10):
        am = random_assignment(rng, star, 4)
        assert is_cm_ideal_oracle(am, RATIONALS).is_cm


def test_euler_characteristic_identity():
    # alternating face count equals alternating homology rank, any field
    for name in fixture_names():
        cx = get_fixture(name).complex
        f = cx.f_vector()
        chi = sum((-1) ** q * f[q] for q in range(len(f))) - 1
        for char in (0, 2, 3):
            ranks = reduced_homology_ranks(cx, FieldSpec(char))
            assert chi == sum(
                (-1) ** (q - 1) * r for q, r in enumerate(ranks)
            )
