"""Exact linear algebra, Reisner checks, and the threshold oracle."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest

from conftest import (
    built_anew,
    cross_polytope,
    dense_boundary,
    dense_entries,
    dense_homology_ranks,
    dense_rank,
    exact_matrix,
    is_zero,
    leaf_branches_reference,
    matmul,
    octahedra_wedge,
    oracle_reference,
    random_assignment,
    random_complex,
    random_pure_complex,
    random_pure_strongly_connected,
    random_sparse_assignment,
    random_tree_satisfying,
    stacked_path,
    unpruned_is_cm,
)

from cmlab import GF2, RATIONALS, complexes, fixture_names, get_fixture, homology
from cmlab.complexes import _PRIME_LIMIT, MultiplicityAssignment, SimplicialComplex, _is_prime
from cmlab.errors import DimensionOutOfRange, InvalidCharacteristic, VoidComplex
from cmlab.graphs import ROOT, root_orientation, vertex_graph
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


def _trial_division(c):
    return c >= 2 and all(c % k for k in range(2, isqrt(c) + 1))


def test_miller_rabin_matches_trial_division():
    assert [c for c in range(-3, 10**5) if _is_prime(c)] == [
        c for c in range(-3, 10**5) if _trial_division(c)
    ]


def test_miller_rabin_rejects_pseudoprimes_and_decides_large_numbers_quickly():
    # 561 is a Carmichael number; 3,215,031,751 is a strong pseudoprime
    # to the bases 2, 3, 5 and 7
    assert not _is_prime(561)
    assert not _is_prime(3_215_031_751)
    for c, prime in ((2**61 + 1, False), (2**61 - 1, True), (2**89 - 1, True)):
        start = time.perf_counter()
        assert _is_prime(c) == prime
        assert time.perf_counter() - start < 0.1
    assert FieldSpec(2**61 - 1).characteristic == 2**61 - 1


def test_field_spec_refuses_characteristics_beyond_the_exact_prime_test():
    for c in (_PRIME_LIMIT, _PRIME_LIMIT + 2, 2**127 - 1):
        with pytest.raises(InvalidCharacteristic, match="must be below"):
            FieldSpec(c)


def test_exact_matrix_rank_rationals():
    rows = (((0, 1), (1, 2), (2, 3)), ((0, 2), (1, 4), (2, 6)), ((1, 1), (2, 1)))
    m = ExactMatrix(RATIONALS, 3, rows)
    assert m.nrows == 3
    assert m.rank() == 2


def test_exact_matrix_rank_depends_on_characteristic():
    # the 2x2 matrix [[1,1],[1,-1]] drops rank exactly in characteristic 2,
    # and [[3,0],[0,1]] exactly in characteristic 3
    rows = (((0, 1), (1, 1)), ((0, 1), (1, -1)))
    assert ExactMatrix(RATIONALS, 2, rows).rank() == 2
    assert ExactMatrix(GF2, 2, rows).rank() == 1
    assert ExactMatrix(FieldSpec(3), 2, rows).rank() == 2
    three = (((0, 3),), ((1, 1),))
    assert ExactMatrix(FieldSpec(3), 2, three).rank() == 1
    assert ExactMatrix(GF2, 2, three).rank() == 2


def test_exact_matrix_rejects_entries_of_the_wrong_shape():
    malformed = (
        ((2, 1),),  # column past ncols - 1
        ((-1, 1),),  # negative column
        ((1, 1), (0, 1)),  # columns out of order
        ((0, 1), (0, 1)),  # repeated column
        ((0, True),),  # bool value
        ((0, 1.0),),  # float value
        ((1.0, 1),),  # float column
    )
    for row in malformed:
        with pytest.raises(DimensionOutOfRange):
            ExactMatrix(RATIONALS, 2, (((0, 1),), row))


def test_boundary_matrix_shapes(tree_fixture):
    d1 = boundary_matrix(tree_fixture, 1, RATIONALS)
    assert (d1.nrows, d1.ncols) == (8, 13)
    dm1 = boundary_matrix(tree_fixture, -1, RATIONALS)
    assert (dm1.nrows, dm1.ncols) == (0, 1)
    d0 = boundary_matrix(tree_fixture, 0, RATIONALS)
    assert (d0.nrows, d0.ncols) == (1, 8)
    assert dense_entries(d0) == [[1] * 8]
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


def test_field_can_be_passed_by_keyword():
    # the memo on the complex takes keyword arguments as the functions
    # it wraps do, and keeps each call's answer under its own key
    rp = built_anew(get_fixture("projective-plane").complex)
    assert reduced_homology_ranks(rp, field=GF2) == (0, 0, 1, 1)
    assert reduced_homology_ranks(rp, field=RATIONALS) == (0, 0, 0, 0)
    assert not is_cm_complex(rp, field=GF2) and is_cm_complex(rp, field=RATIONALS)
    hits = is_cm_complex.cache_info().hits
    assert not is_cm_complex(rp, field=GF2) and not is_cm_complex(rp, GF2)
    assert is_cm_complex.cache_info().hits == hits + 1


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


def test_oracle_matches_the_cut_loop_reference():
    # same verdict and lex-least witness as the recursive walk that
    # narrows by a loop over the cuts, in chars 0, 2 and 3
    rng = random.Random(43)
    complexes = [get_fixture(name).complex for name in fixture_names()]
    complexes += [random_pure_strongly_connected(rng, max_n=6, max_m=5) for _ in range(15)]
    complexes += [random_pure_complex(rng, max_n=6, max_m=5) for _ in range(15)]
    outcomes = set()
    for cx in complexes:
        for field in FIELDS:
            for max_exp in (1, 2, 3):
                mult = random_assignment(rng, cx, max_exp)
                verdict = is_cm_ideal_oracle(mult, field)
                assert tuple(verdict) == oracle_reference(mult, field)
                outcomes.add((cx == get_fixture("projective-plane").complex, verdict.is_cm))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
    # stacked paths are Cohen-Macaulay balls with a path facet graph, so
    # by the tree criterion a tree-satisfying table gives a Cohen-Macaulay
    # ideal and raising one child above its parent gives one that is not
    for d in (2, 3):
        path = SimplicialComplex.from_facets(11 + d, [range(k, k + d) for k in range(1, 13)])
        for _ in range(2):
            held = random_tree_satisfying(rng, path, 3)
            for mult, is_cm in ((held, True), (_raise_one_child(rng, held), False)):
                for field in FIELDS:
                    verdict = is_cm_ideal_oracle(mult, field)
                    assert tuple(verdict) == oracle_reference(mult, field)
                    assert verdict.is_cm == is_cm


def test_oracle_matches_the_reference_on_long_paths():
    # a long path reaches each alive mask at many coordinates, which the
    # walk's dead map, keyed by mask alone, must not confuse: same
    # verdict and witness as the reference walk memoized on (coordinate,
    # mask), for constant, tree-satisfying and violated tables
    rng = random.Random(89)
    for path, fields in ((stacked_path(60, 2), [RATIONALS]), (stacked_path(30, 3), FIELDS)):
        held = random_tree_satisfying(rng, path, 3)
        tables = [MultiplicityAssignment.constant(path, 2), held, random_assignment(rng, path, 2)]
        tables += [_raise_one_child(rng, held) for _ in range(3)]
        for mult in tables:
            for field in fields:
                verdict = is_cm_ideal_oracle(mult, field)
                assert tuple(verdict) == oracle_reference(mult, field)
                assert verdict.is_cm == (mult in tables[:2])


def test_oracle_enters_no_finished_mask_at_an_earlier_coordinate():
    # on each table the walk reaches a mask again at a coordinate below
    # the one where it finished; the dead set enters it no more, where a
    # rule keyed by the lowest finished coordinate entered it again.  The
    # verdict and witness stay the reference walk's, in chars 0 and 2
    cases = (
        (4, ((1, 2), (2, 3), (2, 4)), {(1, 3): 2, (2, 1): 2}, (True, None)),
        (
            4,
            ((1, 2), (1, 4), (2, 3), (3, 4)),
            {(1, 3): 2, (1, 4): 3, (3, 1): 2, (3, 4): 3, (4, 1): 3, (4, 2): 2},
            (False, (2, 0, 1, 0)),
        ),
    )
    for n, facets, overrides, expected in cases:
        cx = SimplicialComplex.from_facets(n, facets)
        mult = MultiplicityAssignment.from_overrides(cx, overrides)
        for field in (RATIONALS, GF2):
            assert tuple(is_cm_ideal_oracle(mult, field)) == oracle_reference(mult, field) == expected


def test_oracle_keeps_one_dead_entry_per_mask():
    # the constant table on a 300-edge path enters about 300 (coordinate,
    # mask) states per mask, and remembering each of them as dead took
    # about 7 MB of 300-bit masks; one entry per mask takes well under 1
    path = stacked_path(300, 2)
    mult = MultiplicityAssignment.constant(path)
    assert is_cm_ideal_oracle(mult)  # the sweep and the levels are built once
    tracemalloc.start()
    try:
        assert is_cm_ideal_oracle(mult)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _first_state_of_two(mult: MultiplicityAssignment, witness: tuple[int, ...]):
    """The first coordinate t after which the thresholds witness[:t + 1]
    leave at most two facets, and how many they leave, or None."""
    alive = (1 << mult.complex.m) - 1
    for t, a in enumerate(witness):
        for j, i, v in mult.entries:
            if i == t + 1 and v <= a:
                alive &= ~(1 << (j - 1))
        if alive.bit_count() <= 2:
            return t, alive.bit_count()
    return None


def test_oracle_decides_two_facet_states_on_the_spot():
    # a cut that leaves at most one facet ends its coordinate, and a state
    # with two facets is decided at once: same verdict and witness as the
    # reference walk on edge and triangle paths, stars and complete
    # graphs.  Two disjoint edges are not Cohen-Macaulay, so on complete
    # graphs many failures are first met at a state of two facets with
    # coordinates left after it; their witnesses end in zeros
    rng = random.Random(29)
    corpus = [(stacked_path(m, 2), 6) for m in (8, 15, 30)] + [(stacked_path(12, 3), 6)]
    corpus += [
        (SimplicialComplex.from_facets(m + 1, [(k, m + 1) for k in range(1, m + 1)]), 6)
        for m in (3, 7, 11)
    ]
    corpus += [
        (SimplicialComplex.from_facets(n, list(itertools.combinations(range(1, n + 1), 2))), 20)
        for n in (4, 5)
    ]
    met_at_two = verdicts = 0
    for cx, tables in corpus:
        for k in range(tables):
            # mostly ones: a cut at a vertex keeps its star and the
            # raised facets
            if k % 2:
                mult = random_assignment(rng, cx, 3)
            else:
                mult = random_sparse_assignment(rng, cx, 3, most=6)
            for field in (RATIONALS, GF2):
                verdict = is_cm_ideal_oracle(mult, field)
                assert tuple(verdict) == oracle_reference(mult, field), (cx.facets, field)
                verdicts |= 1 << verdict.is_cm
                if verdict.is_cm:
                    continue
                state = _first_state_of_two(mult, verdict.witness)
                if state and state[1] == 2 and state[0] < cx.n - 1:
                    assert not any(verdict.witness[state[0] + 1 :]), verdict.witness
                    met_at_two += 1
    assert verdicts == 3
    assert met_at_two >= 10, met_at_two


def test_cuts_match_the_vertex_values_reference():
    # the walk cuts each vertex's levels in turn: the cut 0 removes
    # nothing, and each level's value removes the running OR of the level
    # masks so far, which must be the facets whose value at the vertex is
    # at most it, read by value(); so the levels are disjoint and ascend
    rng = random.Random(67)
    corpus = [get_fixture(name).complex for name in fixture_names()]
    corpus += [random_pure_strongly_connected(rng, max_n=6, max_m=5) for _ in range(40)]
    corpus += [random_pure_complex(rng, max_n=6, max_m=5) for _ in range(40)]
    corpus += [random_complex(rng, 5, 3) for _ in range(40)]
    for cx in corpus:
        for max_exp in (1, 3, 5):
            mult = random_assignment(rng, cx, max_exp)
            for i in range(1, cx.n + 1):
                pairs = mult.vertex_values(i)
                expected = [(0, 0)] + [
                    (a, sum(1 << (j - 1) for j, _ in pairs if mult.value(j, i) <= a))
                    for a in sorted({v for _, v in pairs})
                ]
                cuts, kill = [(0, 0)], 0
                for v, mask in mult.levels[i]:
                    assert mask and not kill & mask
                    kill |= mask
                    cuts.append((v, kill))
                assert cuts == expected


def test_oracle_walk_matches_the_reference_on_levels():
    # the walk reads each table's levels directly: same verdict and
    # witness as the reference walk, in chars 0, 2 and 3, on tables with
    # up to five levels per vertex, on vertices with no levels (a star's
    # centre, cone apexes), and on one facet, the void complex and n = 0
    rng = random.Random(71)
    stars = [
        SimplicialComplex.from_facets(m + 1, [(k, m + 1) for k in range(1, m + 1)]) for m in (3, 6)
    ]
    corpus = stars + [random_complex(rng, 5, 3, cone=rng.randint(1, 2)) for _ in range(12)]
    corpus += [random_pure_strongly_connected(rng, max_n=6, max_m=5) for _ in range(12)]
    corpus += [random_pure_complex(rng, max_n=6, max_m=5) for _ in range(12)]
    corpus += [get_fixture(name).complex for name in ("triangle-tree", "square", "star")]
    edge_cases = [SimplicialComplex(3, [(1, 2)]), SimplicialComplex(3, [(1, 2, 3)])]
    edge_cases += [SimplicialComplex(2, []), SimplicialComplex(0, []), SimplicialComplex(0, [()])]
    most_levels = bare = 0
    verdicts = set()
    for cx in corpus + edge_cases:
        tables = [MultiplicityAssignment.constant(cx)]
        if cx.m:
            tables += [random_assignment(rng, cx, 5), random_sparse_assignment(rng, cx, 5, most=6)]
        if cx == stars[1]:
            # vertex 1 takes the values 1..5 on the facets 2..6
            overrides = {(j, 1): j - 1 for j in range(3, 7)}
            tables.append(MultiplicityAssignment.from_overrides(cx, overrides))
        for mult in tables:
            most_levels = max(most_levels, *map(len, mult.levels))
            bare += cx.m > 1 and any(not levels for levels in mult.levels[1:])
            for field in FIELDS:
                verdict = is_cm_ideal_oracle(mult, field)
                assert tuple(verdict) == oracle_reference(mult, field), (cx.facets, field)
                verdicts.add(verdict.is_cm)
    assert most_levels == 5 and bare >= 10
    assert verdicts == {True, False}


def _raise_one_child(rng: random.Random, mult: MultiplicityAssignment) -> MultiplicityAssignment:
    """The table with one facet's value above its parent's in a rooted
    vertex graph of the tree complex."""
    cx = mult.complex
    i, parent, child = rng.choice([
        (i, h, k)
        for i in range(1, cx.n + 1)
        for h, k in root_orientation(vertex_graph(cx, i), ROOT)
        if h != ROOT
    ])
    table = {(j, v): x for j, v, x in mult.entries}
    table[(child, i)] = table[(parent, i)] + 1
    return MultiplicityAssignment(cx, tuple((j, v, x) for (j, v), x in table.items()))


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


FIELDS = (RATIONALS, GF2, FieldSpec(3))


def _corpus():
    rng = random.Random(2024)
    complexes = [get_fixture(name).complex for name in fixture_names()]
    complexes += [random_complex(rng, 7, 4) for _ in range(40)]
    complexes += [random_pure_strongly_connected(rng, max_n=7, max_m=6) for _ in range(20)]
    return complexes


def test_sparse_kernel_matches_dense_reference_on_complexes():
    rp = get_fixture("projective-plane").complex
    assert dense_homology_ranks(rp, RATIONALS) == (0, 0, 0, 0)
    assert dense_homology_ranks(rp, GF2) == (0, 0, 1, 1)
    for cx in _corpus():
        for field in FIELDS:
            assert reduced_homology_ranks(cx, field) == dense_homology_ranks(cx, field)
            for q in range(-1, cx.dim + 1):
                mx = boundary_matrix(cx, q, field)
                assert dense_entries(mx) == dense_boundary(cx, q)
                assert mx.rank() == dense_rank(field, dense_entries(mx))


def _random_low_rank(rng, nrows, ncols, entry):
    # a product through an inner dimension below both sides drops rank
    # and leaves pivots that are not units
    k = rng.randint(1, max(1, min(nrows, ncols) - 1))
    a = [[entry() for _ in range(k)] for _ in range(nrows)]
    b = [[entry() for _ in range(ncols)] for _ in range(k)]
    return [
        [sum(a[r][t] * b[t][c] for t in range(k)) for c in range(ncols)]
        for r in range(nrows)
    ]


def test_sparse_kernel_matches_dense_reference_on_random_matrices():
    rng = random.Random(99)

    def integer():
        return rng.choice((0, 0, 2, -2, 3, -3, 4, 6, -9, 1))

    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        for entries in (
            _random_low_rank(rng, nrows, ncols, integer),
            [[integer() for _ in range(ncols)] for _ in range(nrows)],
        ):
            for field in FIELDS:
                mx = exact_matrix(field, ncols, entries)
                assert (mx.nrows, dense_entries(mx)) == (nrows, entries)
                assert mx.rank() == dense_rank(field, entries)


def test_unit_pivot_kernel_matches_dense_reference_mod_p():
    # each pivot row is scaled to lead with 1 and rows are reduced in
    # place; small entries give pivots of every residue
    rng = random.Random(37)
    fields = [FieldSpec(p) for p in (3, 5, 7, 2**61 - 1)]

    def entry():
        return rng.randint(-3, 3)

    full = set()
    for _ in range(120):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        for entries in (
            _random_low_rank(rng, nrows, ncols, entry),
            [[entry() for _ in range(ncols)] for _ in range(nrows)],
        ):
            rows = tuple(tuple((c, x) for c, x in enumerate(r) if x) for r in entries)
            for field in fields:
                rank = homology._rank(rows, field.characteristic)
                assert rank == dense_rank(field, entries), (entries, field)
                full.add(rank == min(nrows, ncols))
    assert full == {True, False}


def test_exact_matrix_rejects_fraction_values():
    # the matrices are integral: a rational entry is refused at
    # construction in every field, whatever its denominator
    for field in FIELDS:
        for value in (Fraction(1, 3), Fraction(2, 1)):
            with pytest.raises(DimensionOutOfRange):
                ExactMatrix(field, 2, (((0, value), (1, 1)),))


def test_pruned_reisner_sweep_matches_full_sweep():
    rng = random.Random(31)
    complexes = []
    for _ in range(60):
        complexes.append(random_complex(rng, 6, 4))
        complexes.append(random_complex(rng, 5, 3, cone=rng.randint(1, 2)))
        complexes.append(random_complex(rng, 6, 2, cone=rng.randint(0, 1)))
    for _ in range(20):
        cx = random_pure_strongly_connected(rng, max_n=7, max_m=6)
        complexes.append(SimplicialComplex(cx.n + 1, tuple(f + (cx.n + 1,) for f in cx.facets)))
    complexes += [get_fixture(name).complex for name in fixture_names()]
    verdicts = set()
    for cx in complexes:
        for field in FIELDS:
            expected = unpruned_is_cm(cx, field)
            assert is_cm_complex(cx, field) == expected
            verdicts.add((cx.is_pure, cx.dim <= 1, expected))
    # both verdicts occur on pure complexes of each kind of dimension
    assert {(True, low, v) for low in (True, False) for v in (True, False)} <= verdicts


def _on_facets(cx: SimplicialComplex, mask: int) -> SimplicialComplex:
    return SimplicialComplex(cx.n, tuple(f for j, f in enumerate(cx.facets) if mask >> j & 1))


@pytest.mark.parametrize(
    "name,cx",
    [
        ("projective plane", get_fixture("projective-plane").complex),
        ("stacked path d=3", stacked_path(9, 3)),
        ("stacked path d=4", stacked_path(9, 4)),
        ("octahedra wedge", octahedra_wedge()),
        ("cross-polytope d=4", cross_polytope(4)),
    ],
)
def test_shared_reisner_sweep_matches_full_sweep_on_facet_subsets(name, cx):
    # One sweep per complex and field decides every subset in turn, so a
    # verdict memoized for one subset and reused for another must hold
    # for both.  Complexes with up to 10 facets get every subset; the
    # 16-facet ones a seeded sample whose sizes are uniform in 0..16,
    # since the unpruned reference needs about a minute per field for
    # all 65,536.
    rng = random.Random(cx.m)
    if cx.m <= 10:
        masks = list(range(1 << cx.m))
    else:
        masks = [
            sum(1 << j for j in rng.sample(range(cx.m), rng.randint(0, cx.m))) for _ in range(400)
        ]
    for field in FIELDS:
        sweep = homology._sweep(built_anew(cx), field)
        verdicts = set()
        for mask in masks:
            expected = unpruned_is_cm(_on_facets(cx, mask), field)
            assert sweep.is_cm(mask) == expected, (name, field, mask)
            verdicts.add(expected)
        assert verdicts == {True, False}, (name, field)


def _closed_reference(cx: SimplicialComplex) -> list[int]:
    """Per closed face with at most top - 2 vertices, the mask of the
    facets containing it, over the meets of every nonempty set of
    facets, the meet of all of them included, on vertex sets."""
    facets = [frozenset(f) for f in cx.facets]
    everything = frozenset(range(1, cx.n + 1))
    meets = [everything]  # meets[mask]: the meet of the facets in mask
    for mask in range(1, 1 << cx.m):
        low = (mask & -mask).bit_length() - 1
        meets.append(meets[mask ^ 1 << low] & facets[low])
    faces = set(meets[1:])
    top = max(map(len, facets), default=0)
    return [
        sum(1 << j for j, f in enumerate(facets) if face <= f)
        for face in faces
        if len(face) <= top - 2
    ]


def test_closed_faces_match_the_meets_of_every_facet_subset():
    # every nonempty meet of facets, and the empty meet of all facets of
    # a complex whose facets share no vertex, is found one vertex star at
    # a time
    rng = random.Random(53)
    corpus = [SimplicialComplex(4, ()), SimplicialComplex(4, ((),)), SimplicialComplex(5, ((1, 3, 5),))]
    corpus += [SimplicialComplex(m + 1, [(k, m + 1) for k in range(1, m + 1)]) for m in (3, 8)]
    corpus += [cross_polytope(d) for d in range(1, 5)]
    corpus += [SimplicialComplex(6, [(1, 2, 3), (4, 5), (5, 6)]), octahedra_wedge()]
    while len(corpus) < 2000:
        n = rng.randint(1, 9)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 8))
        ]
        corpus.append(SimplicialComplex(n, facets))
    kinds = set()
    for cx in corpus:
        closed = homology._sweep(cx, GF2).closed
        reference = _closed_reference(cx)
        assert sorted(closed) == sorted(reference), cx.facets
        if cx.m:
            bottom = set(cx.facets[0]).intersection(*cx.facets)
            kinds.add((cx.is_pure, not bottom and (1 << cx.m) - 1 in reference))
    # pure and non-pure complexes, some of whose closed faces tested
    # include the empty meet of all facets
    assert kinds == {(p, e) for p in (True, False) for e in (True, False)}
    # d = 6: the 3^6 faces, less the 2^6 facets and the 6 * 2^5 ridges
    assert len(homology._sweep(cross_polytope(6), GF2).closed) == 473


def test_oracle_shares_link_verdicts_across_tables_and_builds_no_links(monkeypatch):
    # many tables on each complex in one process, fields interleaved:
    # each verdict and witness equals the reference walk, whose leaves
    # are decided on freshly built complexes
    rng = random.Random(77)
    corpus = [built_anew(get_fixture("projective-plane").complex)]
    corpus += [octahedra_wedge(), cross_polytope(4)]
    corpus += [stacked_path(7, 3), stacked_path(6, 4)]
    tables = [
        (random_assignment(rng, cx, rng.randint(1, 3)), rng.choice(FIELDS))
        for cx in corpus
        for _ in range(12)
    ]
    rng.shuffle(tables)
    expected = [oracle_reference(mult, field) for mult, field in tables]
    assert {is_cm for is_cm, _ in expected} == {True, False}

    def no_link(self, face):
        raise AssertionError("the oracle must not build links")

    monkeypatch.setattr(SimplicialComplex, "link", no_link)
    for (mult, field), want in zip(tables, expected):
        assert tuple(is_cm_ideal_oracle(mult, field)) == want


def _masks(cx: SimplicialComplex) -> tuple[int, ...]:
    return tuple(sum(1 << v for v in f) for f in cx.facets)


def _on_masks(n: int, masks) -> SimplicialComplex:
    return SimplicialComplex(n, [[v for v in range(1, n + 1) if x >> v & 1] for x in masks])


def _peeled_reference(masks: tuple[int, ...]) -> tuple[int, ...]:
    """The cone-or-leaf peeling on Python sets, in the order of
    homology._peeled: passes over the facets, each deleting in place
    every facet whose nonempty meets with the others share a vertex or
    all lie in one other facet, until a pass deletes none or one facet
    is left."""
    kept = [tuple(v for v in range(x.bit_length()) if x >> v & 1) for x in masks]
    peeling = True
    while peeling and len(kept) > 1:
        peeling = False
        k = 0
        while k < len(kept):
            f = set(kept[k])
            meets = [f & set(g) for g in kept if g != kept[k] and f & set(g)]
            if meets and (set.intersection(*meets) or leaf_branches_reference(tuple(kept), k)):
                del kept[k]
                peeling = True
            else:
                k += 1
    return tuple(sum(1 << v for v in f) for f in kept)


def _assert_peeling_keeps_homology(cx: SimplicialComplex) -> tuple[int, ...]:
    masks = _masks(cx)
    left = homology._peeled(masks)
    assert left == _peeled_reference(masks), cx.facets
    rest = iter(masks)
    assert all(x in rest for x in left), "the remainder keeps the facet order"
    for field in FIELDS:
        assert reduced_homology_ranks(_on_masks(cx.n, left), field) == reduced_homology_ranks(
            cx, field
        ), (cx.facets, left, field)
    return left


def _random_connected_pure(rng: random.Random) -> SimplicialComplex:
    """A connected pure complex of dimension 2..4: facets drawn uniformly
    from few vertices, or grown along ridges with a few random extras."""
    size = rng.randint(3, 5)
    n = rng.randint(size + 1, size + 4)
    while True:
        if rng.random() < 0.5:
            facets = {frozenset(rng.sample(range(1, n + 1), size)) for _ in range(rng.randint(2, 9))}
        else:
            facets = {frozenset(rng.sample(range(1, n + 1), size))}
            for _ in range(rng.randint(1, 8)):
                base = set(rng.choice(sorted(facets, key=sorted)))
                base.discard(rng.choice(sorted(base)))
                facets.add(frozenset(base | {rng.choice([v for v in range(1, n + 1) if v not in base])}))
            for _ in range(rng.randint(0, 2)):
                facets.add(frozenset(rng.sample(range(1, n + 1), size)))
        cx = SimplicialComplex(n, facets)
        if cx.m > 1 and reduced_homology_ranks(cx, GF2)[1] == 0:
            return cx


def test_peeling_keeps_reduced_homology_on_random_pure_complexes():
    rng = random.Random(1515)
    outcomes = {"whole": 0, "part": 0, "none": 0}
    for _ in range(320):
        cx = _random_connected_pure(rng)
        left = _assert_peeling_keeps_homology(cx)
        outcomes["whole" if len(left) == 1 else "none" if len(left) == cx.m else "part"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_mask_built_links_match_the_dense_reference():
    # a link is ranked on rows built from the vertex masks of its faces:
    # per degree each map's rank and face count equal the dense
    # reference's, and the verdict "no reduced homology below the top"
    # equals dense homology's, on random pure complexes, cross-polytope
    # links and the projective plane, in characteristics 0, 2, 3 and 5
    rng = random.Random(61)
    corpus = [random_pure_complex(rng, max_n=7, max_m=9) for _ in range(50)]
    corpus += [_random_connected_pure(rng) for _ in range(12)]
    cross = cross_polytope(4)
    corpus += [cross, cross.link((1,)), cross.link((1, 3))]
    corpus.append(get_fixture("projective-plane").complex)
    fields = (RATIONALS, GF2, FieldSpec(3), FieldSpec(5))
    outcomes = set()
    for cx in corpus:
        if cx.dim < 1:
            continue
        masks = _masks(cx)
        chain = homology._chain_rows(masks, cx.dim)
        assert [faces for faces, _ in chain] == [len(cx.faces_of_dim(q)) for q in range(1, cx.dim)]
        for field in fields:
            p = field.characteristic
            for q, (_, rows) in enumerate(chain, 1):
                assert homology._rank(rows, p) == dense_rank(field, dense_boundary(cx, q + 1))
            expected = not any(dense_homology_ranks(cx, field)[:-1])
            assert homology._sweep(cx, field)._link_is_cm(masks, cx.dim) == expected
            outcomes.add((cx.dim > 1, p == 2, expected))
    assert len(outcomes) == 8, outcomes


def test_peeling_keeps_homology_where_it_stops_early():
    octahedron = cross_polytope(3)
    # an octahedron is a sphere: no facet of it peels
    assert _assert_peeling_keeps_homology(octahedron) == _masks(octahedron)
    # a hexagon coned from vertex 7 and wedged onto it at vertex 1 is a
    # pendant disk whose triangles are cones, not leaves; they all go
    rim = (1, 8, 9, 10, 11, 12)
    pendant = SimplicialComplex.from_facets(
        12, list(octahedron.facets) + [(7, rim[k - 1], rim[k]) for k in range(6)]
    )
    assert _assert_peeling_keeps_homology(pendant) == _masks(octahedron)
    # the projective plane is acyclic over Q, but not contractible
    rp = get_fixture("projective-plane").complex
    assert 1 < len(_assert_peeling_keeps_homology(rp)) <= rp.m
    # the 7-vertex torus
    torus = SimplicialComplex.from_facets(
        7, [[(i + a) % 7 + 1 for a in t] for i in range(7) for t in ((0, 1, 3), (0, 2, 3))]
    )
    assert reduced_homology_ranks(torus, RATIONALS) == (0, 0, 2, 1)
    assert 1 < len(_assert_peeling_keeps_homology(torus)) <= torus.m
    # a facet that meets nothing never goes, so components survive
    apart = SimplicialComplex.from_facets(6, [[1, 2, 3], [4, 5, 6]])
    assert _assert_peeling_keeps_homology(apart) == _masks(apart)


def test_reisner_ranks_nothing_on_tree_satisfying_stacked_paths(monkeypatch):
    # every link in every threshold subcomplex of a stacked path peels
    # down to one facet, so no boundary rows are built
    rng = random.Random(4)
    cases = []
    for d, m in ((4, 12), (5, 10)):
        path = stacked_path(m, d)
        cases += [(path, random_tree_satisfying(rng, path, 3), field) for field in FIELDS]
    # the paths are built here, so no sweep on them predates the patch

    def no_matrix(*args):
        raise AssertionError("a peeled link needs no boundary rows")

    monkeypatch.setattr(homology, "_chain_rows", no_matrix)
    for path, mult, field in cases:
        assert is_cm_complex(path, field)
        assert is_cm_ideal_oracle(mult, field).is_cm


def test_homology_caches_are_bounded():
    # each cache is kept on the complex it was worked out from, so it holds
    # no more than the complexes alive, and an equal complex shares none
    rp = built_anew(get_fixture("projective-plane").complex)
    kept = {
        complexes._all_faces: (),
        complexes._facet_masks: (),
        reduced_homology_ranks: (GF2,),
        is_cm_complex: (GF2,),
        homology._sweep: (GF2,),
    }
    for cached, args in kept.items():
        value = cached(rp, *args)
        assert rp._memo[cached][args] is value
    assert not hasattr(built_anew(rp), "_memo")
    # a bounded cache still answers from memory
    before = is_cm_complex.cache_info().hits
    assert not is_cm_complex(rp, GF2)
    assert is_cm_complex.cache_info().hits == before + 1


def _cone(cx: SimplicialComplex) -> SimplicialComplex:
    """The cone over cx with apex n+1: the apex joins every facet."""
    return SimplicialComplex(cx.n + 1, [f + (cx.n + 1,) for f in cx.facets])


def test_oracle_verdict_survives_a_cone():
    # apex lemma: coning keeps every threshold subcomplex's
    # Cohen-Macaulayness, and the apex lies in every facet, so the table
    # keeps its entries and a witness gains a trailing 0
    rng = random.Random(71)
    corpus = [get_fixture(name).complex for name in fixture_names()]
    corpus += [random_complex(rng, 6, 3) for _ in range(60)]
    corpus += [random_pure_complex(rng, max_n=6, max_m=5) for _ in range(40)]
    outcomes = set()
    for cx in corpus:
        cone = _cone(cx)
        for field in FIELDS:
            mult = random_assignment(rng, cx, 3)
            verdict = is_cm_ideal_oracle(mult, field)
            coned = is_cm_ideal_oracle(MultiplicityAssignment(cone, mult.entries), field)
            expected = None if verdict.witness is None else verdict.witness + (0,)
            assert tuple(coned) == (verdict.is_cm, expected), (cx.facets, field)
            outcomes.add("cm" if verdict.is_cm else "cut" if any(verdict.witness) else "zero")
    assert outcomes == {"cm", "cut", "zero"}


def test_oracle_finds_every_table_on_a_book_cohen_macaulay():
    # d-sets sharing one ridge: every threshold subcomplex is a smaller
    # book, a cone over the ridge, or void
    rng = random.Random(73)
    for _ in range(30):
        d, m = rng.randint(2, 4), rng.randint(2, 7)
        n = d - 1 + m
        labels = rng.sample(range(1, n + 1), n)
        ridge = labels[: d - 1]
        book = SimplicialComplex(n, [ridge + [page] for page in labels[d - 1:]])
        mult = random_assignment(rng, book, 3)
        for field in FIELDS:
            assert is_cm_ideal_oracle(mult, field) == (True, None), (book.facets, field)
