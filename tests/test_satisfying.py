"""The three fast Cohen-Macaulayness criteria and the semigroup layer."""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter

import pytest

from conftest import (
    book_chain,
    built_anew,
    check_cm_uniform_block_reference,
    clique_masks_reference,
    decompose_into_generators_reference,
    general_satisfying_reference,
    parent_maps_reference,
    perfbench_inputs,
    quasitree_reference,
    random_assignment,
    random_attach_quasitree,
    random_complex,
    random_pure_complex,
    random_pure_strongly_connected,
    random_quasi_tree,
    random_ridge_tree,
    random_sparse_assignment,
    random_tree_satisfying,
    restrict_relation_tree,
    restriction_edge_sets,
    restriction_edges_reference,
    stacked_path,
    table_of_problem,
    tree_criterion_reference,
)

from cmlab import graphs, satisfying, structure

from cmlab import GF2, RATIONALS, fixture_names, get_fixture
from cmlab.complexes import (
    ExponentOffset,
    MultiplicityAssignment,
    SimplicialComplex,
    _pair_id,
)
from cmlab.errors import (
    CmLabError,
    FacetIndexOutOfRange,
    HypothesesViolated,
    NotCohenMacaulay,
    NotPure,
    NotQuasiTree,
    NotShellable,
    NotTreeFacetGraph,
    RestrictionNotTree,
    VertexOutOfRange,
)
from cmlab.graphs import (
    ROOT,
    FacetLevelGraph,
    clique_trees,
    facet_graph,
    find_leaf_order,
    is_tree,
    relation_trees,
    root_orientation,
    rooted_walk,
    vertex_graph,
)
from cmlab.homology import FieldSpec, is_cm_complex, is_cm_ideal_oracle
from cmlab.structure import _shelling, _tier_order
from cmlab.satisfying import (
    check_cm_quasitree_sufficient,
    check_cm_tree_case,
    check_cm_uniform_block,
    decompose_into_generators,
    is_general_satisfying,
    is_quasitree_satisfying,
    is_tree_satisfying,
    semigroup_generators,
    uniform_block_assignment,
)


# -- tree criterion ----------------------------------------------------------


def test_tree_satisfied_at_root_adjacent_facet(tree_fixture):
    am = MultiplicityAssignment.from_overrides(tree_fixture, {(3, 1): 2})
    verdict = is_tree_satisfying(am)
    assert verdict.satisfied
    assert verdict.violations == ()
    assert bool(verdict)
    assert check_cm_tree_case(am)


def test_tree_violated_below_root(tree_fixture):
    am = MultiplicityAssignment.from_overrides(tree_fixture, {(2, 1): 2})
    verdict = is_tree_satisfying(am)
    assert not verdict.satisfied
    assert verdict.violations == ((1, (3, 2), (1, 2)),)
    assert not check_cm_tree_case(am)


def test_tree_collects_every_violation(tree_fixture):
    am = MultiplicityAssignment.from_overrides(
        tree_fixture, {(2, 1): 2, (5, 2): 3}
    )
    verdict = is_tree_satisfying(am)
    assert len(verdict.violations) == 2
    vertices = {v for v, _, _ in verdict.violations}
    assert vertices == {1, 2}


def test_tree_requires_tree_graph_and_cm(square_fixture):
    ones = MultiplicityAssignment.constant(square_fixture)
    with pytest.raises(NotTreeFacetGraph):
        is_tree_satisfying(ones)
    # path facet graph, but the link of vertex 1 is two disjoint edges
    necklace = SimplicialComplex.from_facets(
        5, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5]]
    )
    with pytest.raises(NotCohenMacaulay):
        is_tree_satisfying(MultiplicityAssignment.constant(necklace))


def test_tree_criterion_matches_oracle_in_characteristic_two(tree_fixture):
    rng = random.Random(41)
    for _ in range(20):
        am = random_assignment(rng, tree_fixture, 2)
        assert is_tree_satisfying(am, GF2).satisfied == is_cm_ideal_oracle(
            am, GF2
        ).is_cm


def test_random_tree_satisfying_generator_is_satisfying(tree_fixture):
    rng = random.Random(43)
    for _ in range(25):
        am = random_tree_satisfying(rng, tree_fixture, 3)
        assert is_tree_satisfying(am).satisfied


# -- quasi-tree criterion ----------------------------------------------------


def test_quasitree_all_ones_has_witness(star_fixture):
    ones = MultiplicityAssignment.constant(star_fixture)
    verdict = is_quasitree_satisfying(ones)
    assert verdict.satisfied
    assert verdict.witness_tree is not None
    assert check_cm_quasitree_sufficient(ones) is True


def test_quasitree_star_counterexample_is_silent():
    am = get_fixture("star-alpha").assignment()
    verdict = is_quasitree_satisfying(am)
    assert not verdict.satisfied
    assert verdict.witness_tree is None
    assert check_cm_quasitree_sufficient(am) is None
    assert is_cm_ideal_oracle(am).is_cm  # sufficiency can stay silent on a CM table


def test_quasitree_witness_is_lexicographically_first(star_fixture):
    ones = MultiplicityAssignment.constant(star_fixture)
    first_passing = is_quasitree_satisfying(ones).witness_tree
    trees = relation_trees(star_fixture)
    assert first_passing == trees[0]


def test_quasitree_rejects_non_quasi_tree(square_fixture):
    with pytest.raises(NotQuasiTree):
        is_quasitree_satisfying(MultiplicityAssignment.constant(square_fixture))


def test_quasitree_agrees_with_tree_criterion_on_trees(tree_fixture):
    # when the facet graph is a tree there is exactly one relation tree,
    # so the two criteria see the same inequalities
    rng = random.Random(47)
    for _ in range(15):
        am = random_assignment(rng, tree_fixture, 3)
        assert (
            is_quasitree_satisfying(am).satisfied
            == is_tree_satisfying(am).satisfied
        )


# -- general shelling condition ----------------------------------------------


def test_general_square_counterexample_holds():
    am = get_fixture("square-alpha").assignment()
    assert is_general_satisfying(am)
    assert not is_cm_ideal_oracle(am).is_cm


def test_general_holds_for_all_ones(square_fixture):
    assert is_general_satisfying(MultiplicityAssignment.constant(square_fixture))


def test_general_requires_shellable():
    split = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    with pytest.raises(NotShellable):
        is_general_satisfying(MultiplicityAssignment.constant(split))


def test_general_fails_on_tree_violation(tree_fixture):
    # on a tree-case complex the shelling condition is the tree criterion
    am = MultiplicityAssignment.from_overrides(tree_fixture, {(2, 1): 2})
    assert not is_general_satisfying(am)
    good = MultiplicityAssignment.from_overrides(tree_fixture, {(3, 1): 2})
    assert is_general_satisfying(good)


# -- uniform block criterion -------------------------------------------------


def test_uniform_block_frozen_cases(tree_fixture):
    assert check_cm_uniform_block(tree_fixture, [1], [3], {1: 2}) is True
    assert check_cm_uniform_block(tree_fixture, [1], [2], {1: 2}) is False
    # dual route: the oracle agrees on both assignments
    good = uniform_block_assignment(tree_fixture, [1], [3], {1: 2})
    bad = uniform_block_assignment(tree_fixture, [1], [2], {1: 2})
    assert is_cm_ideal_oracle(good).is_cm
    assert not is_cm_ideal_oracle(bad).is_cm


def test_uniform_block_empty_is_vacuous(tree_fixture):
    assert check_cm_uniform_block(tree_fixture, [], [], {}) is True


def test_uniform_block_validates_inputs(tree_fixture):
    with pytest.raises(HypothesesViolated):
        check_cm_uniform_block(tree_fixture, [1], [3], {1: 1})
    with pytest.raises(HypothesesViolated):
        check_cm_uniform_block(tree_fixture, [1], [3], {2: 2})
    with pytest.raises(VertexOutOfRange):
        check_cm_uniform_block(tree_fixture, [9], [3], {9: 2})
    with pytest.raises(FacetIndexOutOfRange):
        check_cm_uniform_block(tree_fixture, [1], [7], {1: 2})


@pytest.mark.parametrize("vertex", [0, 4, 7, 99, True, False])
def test_vertex_arguments_outside_the_complex_raise(vertex):
    # one check names a vertex out of range, or a bool, which compares
    # equal to 0 or 1 but is no vertex, wherever a public call takes one
    cx = SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
    calls = (
        lambda: MultiplicityAssignment.constant(cx).vertex_values(vertex),
        lambda: ExponentOffset.indicator(cx, vertex, [1]),
        lambda: vertex_graph(cx, vertex),
        lambda: semigroup_generators(cx, vertex=vertex),
        lambda: check_cm_uniform_block(cx, [vertex], [1], {vertex: 2}),
    )
    for call in calls:
        with pytest.raises(VertexOutOfRange, match=rf"^vertex {vertex} not in 1\.\.3$"):
            call()


def test_uniform_block_raises_on_an_uncovered_vertex():
    # vertex 3 lies in no facet, so its restriction is no tree: the
    # uniform-block criterion raises as the tree criterion and the
    # semigroup layer do, although the oracle finds the table CM
    cx = SimplicialComplex(3, [(1, 2)])
    assert is_cm_ideal_oracle(uniform_block_assignment(cx, [3], [1], {3: 2})).is_cm
    for call in (
        lambda: check_cm_uniform_block(cx, [3], [1], {3: 2}),
        lambda: check_cm_uniform_block(cx, [], [], {}),
        lambda: is_tree_satisfying(uniform_block_assignment(cx, [3], [1], {3: 2})),
        lambda: semigroup_generators(cx),
    ):
        with pytest.raises(RestrictionNotTree, match="restriction to vertex 3 is not a tree"):
            call()
    # input errors come first
    with pytest.raises(VertexOutOfRange):
        check_cm_uniform_block(cx, [4], [1], {4: 2})
    with pytest.raises(FacetIndexOutOfRange):
        check_cm_uniform_block(cx, [3], [2], {3: 2})
    with pytest.raises(HypothesesViolated):
        check_cm_uniform_block(cx, [3], [1], {3: 1})
    # and a complex that is not Cohen-Macaulay is reported as such: the
    # strip of test_tree_criterion_reports_non_cm_before_uncovered_vertex
    strip = SimplicialComplex(6, ((1, 2, 3), (1, 4, 5), (2, 3, 4), (3, 4, 5)))
    with pytest.raises(NotCohenMacaulay):
        check_cm_uniform_block(strip, [6], [1], {6: 2})


def _tree_case_corpus(rng):
    """The triangle tree and random covered complexes with at least three
    facets and a tree facet graph, Cohen-Macaulay or not."""
    complexes = [get_fixture("triangle-tree").complex]
    while len(complexes) < 40:
        if rng.random() < 0.5:
            cx = random_quasi_tree(rng, max_m=8)
        else:
            cx = random_pure_strongly_connected(rng, max_n=8, max_m=7)
        if cx.m >= 3 and structure._tree_facet_graph(cx):
            complexes.append(cx)
    return complexes


def test_uniform_block_criterion_matches_the_induced_graph_reference_and_the_oracle():
    # on covered tree-case complexes in characteristics 0 and 2, the
    # tree criterion on the block's table, the induced vertex graphs of
    # the reference and the oracle agree
    rng = random.Random(109)
    decided = {True: 0, False: 0}
    for cx in _tree_case_corpus(rng):
        for field in (RATIONALS, GF2):
            if not is_cm_complex(cx, field):
                continue
            for _ in range(20):
                vs = [i for i in range(1, cx.n + 1) if rng.random() < 0.5]
                fs = [j for j in range(1, cx.m + 1) if rng.random() < 0.5]
                levels = {i: rng.randint(2, 3) for i in vs}
                got = check_cm_uniform_block(cx, vs, fs, levels, field)
                assert got == check_cm_uniform_block_reference(cx, vs, fs, levels, field)
                oracle = is_cm_ideal_oracle(uniform_block_assignment(cx, vs, fs, levels), field)
                assert got == oracle.is_cm
                decided[got] += 1
    assert decided[False] >= 300 and decided[True] >= 300


def test_uniform_block_criterion_raises_as_the_reference_does():
    # complexes that are not pure, have no tree facet graph or are not
    # Cohen-Macaulay, and input errors, meet the reference's errors; a
    # vertex in no facet is the one change: a RestrictionNotTree where
    # the reference gave a verdict
    rng = random.Random(113)
    corpus = [get_fixture(name).complex for name in ("triangle-tree", "square", "star")]
    corpus.append(SimplicialComplex.from_facets(5, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5]]))
    corpus += [random_pure_complex(rng) for _ in range(150)]
    corpus += [random_complex(rng, 5, 3) for _ in range(50)]
    outcomes = set()
    for cx in corpus:
        for field in (RATIONALS, GF2):
            vs = [i for i in range(1, cx.n + 2) if rng.random() < 0.3]
            fs = [j for j in range(1, cx.m + 2) if rng.random() < 0.4]
            levels = {i: rng.randint(1, 3) for i in vs}
            got = _outcome(lambda: check_cm_uniform_block(cx, vs, fs, levels, field))
            expected = _outcome(lambda: check_cm_uniform_block_reference(cx, vs, fs, levels, field))
            uncovered = [i for i in range(1, cx.n + 1) if i not in cx.vertices]
            if isinstance(expected, bool) and uncovered:
                expected = (RestrictionNotTree, f"restriction to vertex {uncovered[0]} is not a tree")
            assert got == expected
            outcomes.add(got if isinstance(got, bool) else got[0])
    assert {
        True,
        NotTreeFacetGraph,
        NotCohenMacaulay,
        RestrictionNotTree,
        VertexOutOfRange,
        FacetIndexOutOfRange,
        HypothesesViolated,
    } <= outcomes


def test_uniform_block_assignment_shape(tree_fixture):
    am = uniform_block_assignment(tree_fixture, [1], [3, 4], {1: 3})
    assert am.value(3, 1) == 3
    assert am.value(4, 1) == 3
    assert am.value(2, 1) == 1
    assert am.value(3, 8) == 1


# -- semigroup layer ---------------------------------------------------------


def test_generator_counts(tree_fixture):
    assert len(semigroup_generators(tree_fixture, 1)) == 11
    assert len(semigroup_generators(tree_fixture, 4)) == 4
    assert len(semigroup_generators(tree_fixture)) == 55


def test_generators_include_zero(tree_fixture):
    gens = semigroup_generators(tree_fixture, 4)
    assert ExponentOffset.zero(tree_fixture) in gens


def test_generator_supports_are_ancestor_closed(tree_fixture):
    for i in (1, 4, 8):
        parent = {
            child: p for p, child in root_orientation(vertex_graph(tree_fixture, i), ROOT)
        }
        for g in semigroup_generators(tree_fixture, i):
            chosen = {j for j, i2, v in g.entries if v and i2 == i}
            for j in chosen:
                assert parent[j] == ROOT or parent[j] in chosen


def test_generators_are_tree_satisfying(tree_fixture):
    for g in semigroup_generators(tree_fixture, 1):
        assert is_tree_satisfying(g.plus_one()).satisfied


def test_semigroup_requires_tree_graph(square_fixture):
    with pytest.raises(NotTreeFacetGraph):
        semigroup_generators(square_fixture, 1)


def test_semigroup_requires_cohen_macaulay():
    # pure with a path facet graph, but the link of vertex 1 is two
    # disjoint edges, and the restriction to vertex 1 is not a tree
    necklace = SimplicialComplex.from_facets(
        5, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5]]
    )
    for call in (
        lambda: semigroup_generators(necklace),
        lambda: semigroup_generators(necklace, 2),
        lambda: decompose_into_generators(MultiplicityAssignment.constant(necklace)),
    ):
        with pytest.raises(NotCohenMacaulay):
            call()


def test_decompose_frozen_example(tree_fixture):
    am = MultiplicityAssignment.from_overrides(
        tree_fixture, {(3, 1): 3, (4, 1): 2, (5, 1): 2}
    )
    parts = decompose_into_generators(am)
    supports = [sorted(j for j, i, v in p.entries if v) for p in parts]
    assert supports == [[3, 4, 5], [3]]
    total = ExponentOffset.zero(tree_fixture)
    for p in parts:
        total = total + p
    assert total == am.offset()


def test_decompose_none_iff_not_tree_satisfying(tree_fixture):
    rng = random.Random(53)
    for _ in range(30):
        am = random_assignment(rng, tree_fixture, 3)
        parts = decompose_into_generators(am)
        if is_tree_satisfying(am).satisfied:
            assert parts is not None
        else:
            assert parts is None


def test_decompose_matches_the_ancestor_check_reference_and_the_oracle():
    # on covered tree-case complexes, the decomposition equals the one
    # that checks each level set for ancestor closure, is None exactly
    # when the tree criterion fails, and then the oracle finds the table
    # not Cohen-Macaulay; the generators of each vertex are the
    # ancestor-closed sets of the reference's rooted vertex graph
    rng = random.Random(127)
    decided = {True: 0, False: 0}
    for cx in _tree_case_corpus(rng):
        if not is_cm_complex(cx, RATIONALS):
            ones = MultiplicityAssignment.constant(cx)
            for decompose in (decompose_into_generators, decompose_into_generators_reference):
                with pytest.raises(NotCohenMacaulay):
                    decompose(ones)
            continue
        parents = parent_maps_reference(cx)
        for i in range(1, cx.n + 1):
            nodes = sorted(parents[i])
            closed = {
                frozenset(subset)
                for size in range(len(nodes) + 1)
                for subset in itertools.combinations(nodes, size)
                if all(parents[i][j] == ROOT or parents[i][j] in subset for j in subset)
            }
            supports = [
                frozenset(j for j, i2, v in g.entries if v and i2 == i)
                for g in semigroup_generators(cx, i)
            ]
            assert len(supports) == len(closed) and set(supports) == closed
        tables = [random_assignment(rng, cx, 3) for _ in range(15)]
        tables += [random_tree_satisfying(rng, cx, 3) for _ in range(5)]
        for am in tables:
            parts = decompose_into_generators(am)
            assert parts == decompose_into_generators_reference(am)
            assert (parts is not None) == is_tree_satisfying(am).satisfied
            assert (parts is not None) == is_cm_ideal_oracle(am).is_cm
            decided[parts is not None] += 1
    assert decided[False] >= 300 and decided[True] >= 100


def test_sum_of_tree_satisfying_stays_satisfying(tree_fixture):
    # closure: the satisfying tables form a semigroup under offset addition
    rng = random.Random(59)
    for _ in range(15):
        a = random_tree_satisfying(rng, tree_fixture, 3)
        b = random_tree_satisfying(rng, tree_fixture, 3)
        combined = (a.offset() + b.offset()).plus_one()
        assert is_tree_satisfying(combined).satisfied


def test_quasitree_soundness_on_random_quasi_trees():
    rng = random.Random(61)
    for _ in range(8):
        cx = random_quasi_tree(rng, max_m=5)
        for _ in range(6):
            am = random_assignment(rng, cx, 2)
            if is_quasitree_satisfying(am).satisfied:
                assert is_cm_ideal_oracle(am).is_cm


def _grows_along(edges, mult, i):
    """The facet-facet edges of a rooted orientation along which the
    value at vertex i grows, as violation records."""
    return [
        (i, (h, k), (mult.value(h, i), mult.value(k, i)))
        for h, k in edges
        if h != ROOT and mult.value(h, i) < mult.value(k, i)
    ]


def test_tree_violations_match_oriented_vertex_graphs():
    rng = random.Random(67)
    complexes = [get_fixture("triangle-tree").complex]
    while len(complexes) < 12:
        cx = random_quasi_tree(rng, max_m=7)
        if cx.m >= 4 and is_tree(facet_graph(cx)):
            complexes.append(cx)
    for cx in complexes:
        tables = [random_assignment(rng, cx, 3) for _ in range(6)]
        tables += [random_tree_satisfying(rng, cx, 3) for _ in range(4)]
        for am in tables:
            expected = [
                v
                for i in range(1, cx.n + 1)
                for v in _grows_along(root_orientation(vertex_graph(cx, i), ROOT), am, i)
            ]
            verdict = is_tree_satisfying(am)
            assert list(verdict.violations) == expected
            assert verdict.satisfied == (not expected)


def _star(m):
    """m edges through the centre m+1: the facet graph is complete, so
    there are m^(m-2) relation trees."""
    return SimplicialComplex.from_facets(m + 1, [(k, m + 1) for k in range(1, m + 1)])


def test_quasitree_witness_is_first_tree_with_monotone_restrictions():
    rng = random.Random(71)
    complexes = [random_quasi_tree(rng, max_m=5) for _ in range(12)]
    complexes += [_star(5), _star(6)]
    complexes += [random_quasi_tree(rng, d=3, m=m) for m in (7, 7, 8, 8)]
    # several ridge cliques of three or more facets, where the product
    # order of the clique trees is not the relation trees' sorted order
    several = [random_attach_quasitree(rng, p) for p in ((3, 3), (4, 3), (3, 4), (3, 3, 3))]
    several += [book_chain(4, 1), book_chain(3, 2)]
    complexes += several
    verdicts = set()
    for cx in complexes:
        trees = relation_trees(cx)
        orientations = [
            [
                root_orientation(restrict_relation_tree(cx, t, i), ROOT)
                for i in range(1, cx.n + 1)
            ]
            for t in trees
        ]
        tables = [random_assignment(rng, cx, 2) for _ in range(6)]
        tables += [
            random_tree_satisfying(rng, cx, 3, rng.choice(orientations))
            for _ in range(3)
        ]
        for am in tables:
            first = next(
                (
                    t
                    for t, per_vertex in zip(trees, orientations)
                    if not any(
                        _grows_along(edges, am, i)
                        for i, edges in enumerate(per_vertex, start=1)
                    )
                ),
                None,
            )
            verdict = is_quasitree_satisfying(am)
            assert verdict.witness_tree == first
            assert verdict.satisfied == (first is not None)
            verdicts.add((cx in several, verdict.satisfied))
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def test_split_search_matches_the_clique_tree_scan():
    # per table, the split search in each ridge clique gives the verdict
    # and the witness of the scan of every clique tree; half the tables
    # raise one to three entries, so that many of them pass
    rng = random.Random(137)
    complexes = [_star(m) for m in range(2, 8)]
    complexes += [book_chain(t, extra) for t, extra in ((3, 1), (4, 1), (3, 2), (2, 3), (3, 3))]
    profiles = ((5, 3), (4, 4, 2), (3, 3), (4, 3), (3, 3, 3), (2, 4, 3))
    complexes += [random_attach_quasitree(rng, p) for p in profiles]
    complexes += [random_quasi_tree(rng, max_m=7) for _ in range(60)]
    counts = Counter()
    for cx in complexes:
        for t in range(44):
            if t % 2:
                am = random_sparse_assignment(rng, cx, 3)
            else:
                am = random_assignment(rng, cx, rng.choice((2, 3)))
            satisfied, witness = quasitree_reference(am)
            verdict = is_quasitree_satisfying(am)
            assert verdict.satisfied == satisfied
            assert (verdict.witness_tree and verdict.witness_tree.edges) == witness
            assert check_cm_quasitree_sufficient(am) is (True if satisfied else None)
            counts[satisfied] += 1
    assert counts[True] >= 1500 and counts[False] >= 1000


def test_clique_masks_read_off_raised_entries_match_the_clique_tree_scan():
    # each larger clique's bad masks come from the raised entries alone;
    # a raised entry (y, i) with i the own vertex of another clique facet
    # x, anchored at x, must not count x -> y as grown (x holds i, so its
    # pair reads 1), nor any edge into y at a vertex anchored at y.  Per
    # complex: every one-entry table, then sparse tables of one to three
    # entries and dense ones, against the scan of every clique tree.
    # Stars stop at 7 edges: the scan lists star-8's 262,144 trees
    tetrahedral = SimplicialComplex.from_facets(10, [
        (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (2, 3, 5, 7), (2, 3, 5, 8), (2, 3, 5, 9),
        (1, 3, 6, 10),
    ])
    assert sorted(map(len, graphs._ridge_groups(tetrahedral))) == [2, 3, 4]
    rng = random.Random(167)
    complexes = [_star(m) for m in range(4, 8)]
    complexes += [book_chain(3, 1), book_chain(4, 2), book_chain(3, 3), tetrahedral]
    counts = Counter()
    for cx in complexes:
        domain = [(j, i) for j, i, _ in MultiplicityAssignment.constant(cx).entries]
        tables = [MultiplicityAssignment.from_overrides(cx, {pair: 2}) for pair in domain]
        for t in range(40):
            if t % 2:
                tables.append(random_sparse_assignment(rng, cx, rng.choice((2, 3, 4))))
            else:
                tables.append(random_assignment(rng, cx, rng.choice((2, 3))))
        for am in tables:
            satisfied, witness = quasitree_reference(am)
            verdict = is_quasitree_satisfying(am)
            assert verdict.satisfied == satisfied
            assert (verdict.witness_tree and verdict.witness_tree.edges) == witness
            assert check_cm_quasitree_sufficient(am) is (True if satisfied else None)
            counts[satisfied, len(am.raised) <= 3] += 1
    assert min(counts.values()) >= 25


def test_quasitree_criterion_reads_only_bridges_off_the_facet_tree():
    # a table that grows only along a walk edge inside a clique of three
    # or four facets rules out the relation trees holding that edge, the
    # walk among them, but another tree of the clique passes: so the
    # facet-tree index must keep the bridges and no other walk edge
    rng = random.Random(157)
    profiles = ((3,), (4,), (3, 3), (2, 4), (4, 2, 3), (3, 2, 4))
    checked = 0
    for cx in [random_attach_quasitree(rng, p) for p in profiles for _ in range(3)]:
        walk, _ = rooted_walk(facet_graph(cx).adjacency, range(2, cx.m + 1), 1)
        (oriented,) = restriction_edge_sets(cx, [FacetLevelGraph(range(1, cx.m + 1), walk)])
        cliques = [{j for j, _ in group} for group in graphs._ridge_groups(cx) if len(group) > 2]
        for i, x, y in sorted(oriented):
            if any({x, y} <= nodes for nodes in cliques):
                am = MultiplicityAssignment.from_overrides(cx, {(y, i): 2})
                satisfied, witness = quasitree_reference(am)
                if satisfied:
                    verdict = is_quasitree_satisfying(am)
                    assert verdict.satisfied and verdict.witness_tree.edges == witness
                    assert check_cm_quasitree_sufficient(am) is True
                    checked += 1
    assert checked >= 20


def test_quasitree_orientation_depends_on_hanging_facets():
    # Removing leaf 1 (branch 2) and then leaf 2 (branch 3) builds the
    # only relation tree.  Facet 2 omits vertex 1 but facet 1 hanging
    # from it does not, so at vertex 1 the edge is 2 -> 3, not 3 -> 2,
    # and the value 2 at facet 3 grows along it.
    cx = SimplicialComplex.from_facets(5, [(1, 2, 3), (2, 3, 4), (3, 4, 5)])
    am = MultiplicityAssignment.from_overrides(cx, {(3, 1): 2})
    assert root_orientation(restrict_relation_tree(cx, relation_trees(cx)[0], 1), ROOT) == (
        (ROOT, 2),
        (2, 3),
    )
    assert check_cm_quasitree_sufficient(am) is None
    assert is_cm_ideal_oracle(am).witness == (1, 0, 0, 0, 0)


def test_tree_criterion_rejects_uncovered_vertex():
    # the raw constructor may leave a vertex in no facet; its restriction
    # then has no root edge and is not a tree
    cx = SimplicialComplex(3, ((1, 2),))
    with pytest.raises(RestrictionNotTree):
        is_tree_satisfying(MultiplicityAssignment.constant(cx))


@pytest.mark.parametrize("overrides", [{}, {(3, 1): 2}])
def test_quasitree_criterion_rejects_uncovered_vertex(overrides):
    # vertex 6 lies in no facet; the verdict must not depend on whether
    # some other vertex already rules out every relation tree
    cx = SimplicialComplex(6, ((1, 2, 3), (2, 3, 4), (3, 4, 5)))
    with pytest.raises(RestrictionNotTree):
        is_quasitree_satisfying(MultiplicityAssignment.from_overrides(cx, overrides))


# -- per-complex work behind the per-table criteria ---------------------------


def _outcome(compute):
    """The value of compute(), or the type and message of what it raised."""
    try:
        return compute()
    except CmLabError as exc:
        return type(exc), str(exc)


def _stored_edges(cx):
    """Per bridge of _facet_tree's index, once from either end, and per
    ridge clique of three or more facets, once from each of its facets
    y: its facets and per kept edge x -> y the tuple (vertex i, facet x,
    facet y, anchor position or None, pair id of (x, i), pair id of
    (y, i)), read off the index's anchor masks as the criterion reads
    them: at each vertex anchored anywhere but at y, save x's own.
    Checks on the way that the bridges are exactly the two-facet ridge
    cliques, that the index holds exactly the larger ones, with one
    anchor mask per facet and, at each of its facets, each other facet's
    own vertex (the one off the ridge), and that each edge's pair ids and
    slot agree with its facets and vertex.  Raises as the quasi-tree criterion does:
    at its gate, then where the index does."""
    graphs.require_quasi_tree(cx)
    into, cliques = satisfying._facet_tree(cx)
    pairs = {tuple(j for j, _ in group): group for group in graphs._ridge_groups(cx)}
    groups = list(pairs)
    assert [nodes for nodes, _, _ in cliques] == [nodes for nodes in groups if len(nodes) > 2]
    stride = _pair_id(cx, 1, 0)
    held, ends = [], Counter()
    for y, bridges in enumerate(into):
        for x, mask in bridges:
            nodes = (min(x, y), max(x, y))
            ends[nodes] += 1
            # the pair ids as the criteria compute them
            ids = [(x * stride + i, y * stride + i, None) for i in range(cx.n + 1) if mask >> i & 1]
            held.append((nodes, ids, None))
    assert ends == Counter({nodes: 2 for nodes in groups if len(nodes) == 2})
    for nodes, anchors, others in cliques:
        assert len(anchors) == len(others) == len(nodes)
        for y, (j, row) in enumerate(zip(nodes, others)):
            assert len(row) == len(nodes) - 1
            ids, slots = [], []
            for s, base, v in row:
                assert (base // stride, v) in pairs[nodes]
                for a, anchored in enumerate(anchors):
                    for i in range(cx.n + 1) if a != y else ():
                        if anchored >> i & 1 and i != v:
                            ids.append((base + i, j * stride + i, a))
                            slots.append(s)
            held.append((nodes, ids, slots))
    out = []
    for nodes, ids, slots in held:
        edges = []
        for p, c, a in ids:
            (x, i), (y, i2) = divmod(p, stride), divmod(c, stride)
            assert i == i2 and x != y and {x, y} <= set(nodes)
            edges.append((i, x, y, a, p, c))
        if slots is not None:
            k = len(nodes)
            assert slots == [nodes.index(x) * k + nodes.index(y) for _, x, y, *_ in edges]
        out.append((nodes, edges))
    return out


def _side(edges, x, y):
    """The nodes reachable from x along the edges other than x-y."""
    seen, todo = {x}, [x]
    while todo:
        h = todo.pop()
        for a, b in edges:
            for u, v in ((a, b), (b, a)):
                if u == h and v not in seen and {u, v} != {x, y}:
                    seen.add(v)
                    todo.append(v)
    return seen


def _mask_edge_sets(cx):
    """Per relation tree, the kept edges (vertex, parent, child) that it
    selects: every edge of a bridge, the one tree of its two-facet
    clique, and in a larger clique x -> y for a tree edge x-y at each
    vertex whose anchor lies on x's side of it."""
    cliques = _stored_edges(cx)
    sets = []
    for tree in relation_trees(cx):
        held = set()
        for nodes, edges in cliques:
            inside = [
                (nodes.index(a), nodes.index(b)) for a, b in tree.edges if {a, b} <= set(nodes)
            ]
            for i, x, y, a, _, _ in edges:
                ex, ey = nodes.index(x), nodes.index(y)
                if a is None or (min(ex, ey), max(ex, ey)) in inside and a in _side(inside, ex, ey):
                    held.add((i, x, y))
        sets.append(frozenset(held))
    return sets


def _with_uncovered(cx, extra):
    return SimplicialComplex(cx.n + extra, cx.facets)


def _mask_corpus(name):
    rng = random.Random(sum(map(ord, name)))
    if name == "stars":
        return [_star(m) for m in (4, 5, 6)]
    if name == "attach":
        return [random_attach_quasitree(rng, rng.choice([(3, 3), (4, 3), (2, 4, 3), (3, 3, 3)]))
                for _ in range(10)]
    if name == "random-quasi-tree":
        return [random_quasi_tree(rng, max_m=7) for _ in range(60)]
    if name == "pure-strongly-connected":
        return [random_pure_strongly_connected(rng, max_n=7, max_m=7) for _ in range(150)]
    # the square with an uncovered vertex 5 fails the gate before the
    # uncovered vertex is looked at
    square = _with_uncovered(get_fixture("square").complex, 1)
    return [square] + [
        _with_uncovered(random_quasi_tree(rng, max_m=5), rng.randint(1, 2)) for _ in range(30)
    ]


@pytest.mark.parametrize(
    "corpus", ["stars", "attach", "random-quasi-tree", "pure-strongly-connected", "uncovered"]
)
def test_tree_masks_match_restriction_edges(corpus):
    # per relation tree, the masks of its clique trees hold exactly the
    # oriented edges the restriction walk finds, and raise as it does
    seen = set()
    for cx in _mask_corpus(corpus):
        expected = _outcome(lambda: restriction_edge_sets(cx, relation_trees(cx)))
        assert _outcome(lambda: _mask_edge_sets(cx)) == expected
        seen.add(expected if isinstance(expected, tuple) else "masks")
    if corpus == "uncovered":
        assert {outcome[0] for outcome in seen} == {NotQuasiTree, RestrictionNotTree}
        assert (NotQuasiTree, "no leaf order exists") in seen
    else:
        assert "masks" in seen


def _general_corpus(rng):
    complexes = [get_fixture(name).complex for name in ("triangle-tree", "square", "star")]
    complexes.append(SimplicialComplex.from_facets(4, [[1, 2], [3, 4]]))
    complexes += [random_pure_strongly_connected(rng, max_n=6, max_m=6) for _ in range(40)]
    complexes += [random_complex(rng, 5, 3) for _ in range(20)]
    return complexes


def test_general_criterion_matches_its_definition():
    rng = random.Random(101)
    outcomes = set()
    for cx in _general_corpus(rng):
        tables = [MultiplicityAssignment.constant(cx)]
        tables += [random_assignment(rng, cx, 2) for _ in range(4)]
        for am in tables:
            expected = _outcome(lambda: general_satisfying_reference(am))
            assert _outcome(lambda: is_general_satisfying(am)) == expected
            outcomes.add(expected if isinstance(expected, bool) else expected[0])
    assert {True, False, NotShellable} <= outcomes


def _searches(mult, searched):
    """The searches the shelling condition should make for each prefix
    vertex in searched: per nonempty tier find_shelling would build, the
    weights read through vertex_values, the tier search (placed, tier)
    from the facets of the tiers before it, up to the first that finds
    no order.  None stands for the unweighted search, the one tier of
    all facets handed to _shelling."""
    cx = mult.complex
    out = []
    for i in searched:
        if i is None:
            out.append(structure._tiers(cx, None, None))
            continue
        placed = 0
        for tier in structure._tiers(cx, i, dict(mult.vertex_values(i))):
            if tier:
                out.append((placed, tier))
                if _tier_order(cx, placed, tier) is None:
                    break
                placed |= tier
    return out


def _spied_searches(monkeypatch):
    """The list that records each tier search of the shelling condition
    as (placed, tier) and each unweighted search as its tiers.  Both are
    looked up in structure when the condition runs; only the calls made
    by the condition itself are recorded, not those of the searches
    inside structure or of the references."""
    calls = []
    condition = satisfying.is_general_satisfying.__code__

    def tier_search(cx, placed, tier):
        if sys._getframe(1).f_code is condition:
            calls.append((placed, tier))
        return _tier_order(cx, placed, tier)

    def unweighted(cx, tiers):
        if sys._getframe(1).f_code is condition:
            calls.append(tiers)
        return _shelling(cx, tiers)

    monkeypatch.setattr(structure, "_tier_order", tier_search)
    monkeypatch.setattr(structure, "_shelling", unweighted)
    return calls


def test_general_criterion_skips_the_unweighted_search_once_a_prefix_search_shells(
    monkeypatch,
):
    calls = _spied_searches(monkeypatch)
    cx = get_fixture("triangle-tree").complex
    weighted = [i for i in range(1, cx.n + 1) if len(cx.facets) > sum(i in f for f in cx.facets)]
    for overrides, held, searched in (
        ({(3, 1): 2}, True, weighted),
        ({(1, 8): 2}, False, weighted),  # fails at vertex 8, after others shelled
        ({(2, 1): 2}, False, [1, None]),  # fails at the first vertex searched
    ):
        calls.clear()
        mult = MultiplicityAssignment.from_overrides(cx, overrides)
        assert is_general_satisfying(mult) == held
        assert calls == _searches(mult, searched)
    # Cohen-Macaulay over Q, yet not shellable (it fails over GF(2)):
    # the first prefix search fails and the unweighted one decides
    calls.clear()
    mult = MultiplicityAssignment.constant(get_fixture("projective-plane").complex)
    with pytest.raises(NotShellable):
        is_general_satisfying(mult)
    assert calls == _searches(mult, [1, None])
    # not Cohen-Macaulay over Q, so not shellable before any search
    calls.clear()
    with pytest.raises(NotShellable):
        is_general_satisfying(
            MultiplicityAssignment.constant(SimplicialComplex.from_facets(4, [[1, 2], [3, 4]]))
        )
    assert calls == []


def test_general_criterion_refuses_complexes_that_are_not_cm_without_a_search(monkeypatch):
    # shellable implies Cohen-Macaulay over every field, so a pure
    # complex that is not Cohen-Macaulay over Q gets the reference's
    # outcome before any shelling search; one that is not pure is
    # refused as such, also before any search
    searched = _spied_searches(monkeypatch)
    mixed = MultiplicityAssignment.constant(SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]]))
    expected = _outcome(lambda: general_satisfying_reference(mixed))
    assert expected[0] is NotPure
    assert _outcome(lambda: is_general_satisfying(mixed)) == expected
    rng = random.Random(107)
    octahedron = list(itertools.product((1, 2), (3, 4), (5, 6)))
    corpus = [
        SimplicialComplex.from_facets(
            11, octahedron + [tuple(1 if v == 1 else v + 5 for v in f) for f in octahedron]
        ),
        SimplicialComplex.from_facets(4, [[1, 2], [3, 4]]),
    ]
    corpus += [
        cx for cx in (random_pure_complex(rng) for _ in range(200)) if not is_cm_complex(cx, RATIONALS)
    ]
    assert len(corpus) > 40
    for cx in corpus:
        for am in (MultiplicityAssignment.constant(cx), random_assignment(rng, cx, 3)):
            expected = _outcome(lambda: general_satisfying_reference(am))
            assert expected == (NotShellable, "complex is not shellable")
            assert _outcome(lambda: is_general_satisfying(am)) == expected
    assert searched == []


def test_general_criterion_refuses_complexes_that_are_not_pure(monkeypatch):
    # shellings are defined here for pure complexes only: one that is
    # not pure gets NotPure with the shelling search's message, whatever
    # its table, and no search runs
    searched = _spied_searches(monkeypatch)
    rng = random.Random(109)
    corpus = [random_complex(rng, 6, 4, cone=k % 2) for k in range(80)]
    corpus = [cx for cx in corpus if not cx.is_pure]
    corpus.append(SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4], [5]]))
    assert len(corpus) > 30
    for cx in corpus:
        for am in (MultiplicityAssignment.constant(cx), random_assignment(rng, cx, 3)):
            expected = (NotPure, "shellings are defined for pure complexes here")
            assert _outcome(lambda: general_satisfying_reference(am)) == expected
            assert _outcome(lambda: is_general_satisfying(am)) == expected
    assert searched == []


def test_general_criterion_searches_the_tiers_the_weights_give(monkeypatch):
    # each vertex searches the tiers find_shelling builds from the
    # weights vertex_values lists, in vertex order, each from the facets
    # of the tiers before it, and stops at the first tier that cannot be
    # completed; the vertices stop at the first that fails, and an
    # unweighted search is the single tier of all facets
    calls = _spied_searches(monkeypatch)
    rng = random.Random(73)
    corpus = [random_pure_strongly_connected(rng, max_n=7, max_m=6) for _ in range(60)]
    corpus += [random_attach_quasitree(rng, (3, 3)) for _ in range(10)]
    corpus += [get_fixture(name).complex for name in ("triangle-tree", "star", "square")]
    searched = 0
    for cx in corpus:
        for am in (MultiplicityAssignment.constant(cx), random_assignment(rng, cx, 3)):
            calls.clear()
            _outcome(lambda: is_general_satisfying(am))
            if not is_cm_complex(cx, RATIONALS):
                assert calls == []
                continue
            weighted = [i for i in range(1, cx.n + 1) if am.vertex_values(i)]
            by_vertex = _searches(am, weighted)
            failed = [
                k + 1
                for k, (placed, tier) in enumerate(by_vertex)
                if _tier_order(cx, placed, tier) is None
            ]
            prefix = [call for call in calls if isinstance(call, tuple)]
            assert prefix == by_vertex[: failed[0] if failed else None]
            # a vertex's searches start from no facets placed; the
            # unweighted search runs only when no vertex shelled
            starts = sum(not placed for placed, _ in prefix)
            shelled = starts - bool(failed) > 0
            assert calls[len(prefix):] == ([] if shelled else _searches(am, [None]))
            searched += starts
    assert searched > 300


def test_tier_searches_kept_on_a_complex_are_bounded():
    # the tier searches are the one memo that grows with the tables
    # decided rather than with the complex, so a complex keeps at most
    # 1,024 of them, whatever the number of searches
    cx = SimplicialComplex.from_facets(14, [range(k, k + 3) for k in range(1, 13)])
    rng = random.Random(1)
    misses = structure._tier_order.cache_info().misses
    for t in range(3000):
        mult = random_assignment(rng, cx, 3)
        held = is_general_satisfying(mult)
        if t % 100 == 0:
            assert held == general_satisfying_reference(mult)
    assert structure._tier_order.cache_info().misses - misses > 1024
    assert len(cx._memo[structure._tier_order]) == 1024


def test_clique_edges_read_the_values_of_their_pairs():
    # the values both criteria compare at a clique edge's pair ids are
    # the values value() reads for the edge's pairs: its ids are those
    # of (parent, i) and (child, i) for one vertex i, and
    # test_tree_masks_match_restriction_edges checks that these edges
    # are the restriction walk's; the strips and the triangle tree are
    # tree-case complexes
    rng = random.Random(79)
    corpus = [random_quasi_tree(rng, max_m=6) for _ in range(40)]
    corpus += [random_attach_quasitree(rng, (3, 4, 2)) for _ in range(5)]
    corpus += [get_fixture(name).complex for name in ("triangle-tree", "star")]
    corpus += [SimplicialComplex.from_facets(3 + d, [range(k, k + d) for k in range(1, 5)]) for d in (2, 3)]
    checked = 0
    for cx in corpus:
        am = random_assignment(rng, cx, 4)
        get = am._pair_values().get
        for _, edges in _stored_edges(cx):
            for i, x, y, _, p, c in edges:
                assert get(p, 1) == am.value(x, i) and get(c, 1) == am.value(y, i)
                checked += 1
    assert checked > 500


def test_all_ones_table_on_a_long_path_lists_no_domain(monkeypatch):
    # the table of a 1,100-edge path with every value 1 keeps no entry,
    # and building it, its levels and every criterion that decides it
    # never list the 1.2 million pairs of its exponent domain
    from cmlab import complexes

    listed = []
    domain = complexes._exponent_domain

    def counted(cx):
        listed.append(cx)
        return domain(cx)

    monkeypatch.setattr(complexes, "_exponent_domain", counted)
    m = 1100
    path = SimplicialComplex.from_facets(m + 1, [(k, k + 1) for k in range(1, m + 1)])
    ones = MultiplicityAssignment.constant(path)
    assert len(ones.raised) == 0
    assert len(ones.levels) == m + 2 and all(len(level) == 1 for level in ones.levels[1:])
    assert check_cm_tree_case(ones)
    assert is_quasitree_satisfying(ones)
    assert is_cm_ideal_oracle(ones)
    assert listed == []


def test_tree_criterion_walks_only_the_vertices_it_reports(monkeypatch, tree_fixture):
    # once the complex's facet-tree walk is built, a satisfying table and
    # every verdict-only call walk nothing; a violating table walks each
    # violating vertex once per complex, to order its violations as the
    # reference does, and the semigroup layer reads the same walks
    walks = []

    def counted(adjacency, kept, root):
        walks.append(frozenset(kept))
        return rooted_walk(adjacency, kept, root)

    # built anew, so that no walk of it predates the count
    tree_fixture = built_anew(tree_fixture)
    satisfying._facet_tree(tree_fixture)
    monkeypatch.setattr(satisfying, "rooted_walk", counted)
    (walk,) = restriction_edges_reference(tree_fixture, [facet_graph(tree_fixture)])
    edges = [e for e in walk if e[1] != ROOT]
    kept = {
        i: frozenset(j for j, f in enumerate(tree_fixture.facets, start=1) if i not in f)
        for i in range(1, tree_fixture.n + 1)
    }
    rng = random.Random(103)
    walked: set[int] = set()
    satisfied = 0
    for t in range(40):
        am = (random_tree_satisfying if t % 4 == 0 else random_assignment)(rng, tree_fixture, 3)
        expected = tuple(
            (i, (h, k), (am.value(h, i), am.value(k, i)))
            for i, h, k in edges
            if am.value(h, i) < am.value(k, i)
        )
        before = len(walks)
        assert check_cm_tree_case(am) == (not expected)
        assert (decompose_into_generators(am) is None) == bool(expected)
        assert walks[before:] == []
        assert is_tree_satisfying(am).violations == expected
        new = {i for i, _, _ in expected} - walked
        assert Counter(walks[before:]) == Counter(kept[i] for i in new)
        walked |= new
        satisfied += not expected
    assert satisfied >= 5 and len(walked) >= 3
    before = len(walks)
    assert check_cm_uniform_block(tree_fixture, [1], [3], {1: 2})
    assert walks[before:] == []
    assert len(semigroup_generators(tree_fixture)) == 55
    assert Counter(walks) == Counter(kept.values())
    # a tree facet graph has no ridge clique of three or more facets
    assert satisfying._facet_tree(tree_fixture)[1] == ()


def _tree_case_tables(rng):
    """Tables on which to hold the tree criterion against its reference:
    every fixture with its own table, the all-ones table and uniform
    tables; stacked paths with facets of 2 to 6 vertices under uniform
    tables; and the benchmark's tree-satisfying stacked-path tables, each
    with a one-entry violation.  Uniform tables draw max-exp 2 to 4."""
    inputs = perfbench_inputs()
    tables = []
    for name in fixture_names():
        fixture = get_fixture(name)
        tables.append(fixture.assignment())
        tables.append(MultiplicityAssignment.constant(fixture.complex))
        tables += [random_assignment(rng, fixture.complex, 2 + t % 3) for t in range(24)]
    # a path facet graph, but the link of vertex 1 is two disjoint edges
    necklace = SimplicialComplex.from_facets(5, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5]])
    tables += [random_assignment(rng, necklace, 3) for _ in range(4)]
    for d in range(2, 7):
        for m in range(1, 11):
            path = stacked_path(m, d)
            tables.append(MultiplicityAssignment.constant(path))
            tables += [random_assignment(rng, path, 2 + t % 3) for t in range(40)]
            for t in range(6):
                good = inputs.tree_satisfying_path(rng, m, d, 2 + t % 3)
                tables.append(table_of_problem(good))
                if m >= 3:  # a chain of two facets to break
                    tables.append(table_of_problem(inputs.violate_path(rng, good, d)[0]))
    return tables


def test_tree_criterion_matches_the_clique_store_reference():
    # the verdict and the violations read off the facet-tree index are
    # those of the reference's clique-tree masks, in characteristics
    # 0, 2 and 3, with the same exceptions where the hypotheses fail
    tables = _tree_case_tables(random.Random(139))
    counts = Counter()
    for field in (RATIONALS, GF2, FieldSpec(3)):
        for am in tables:
            expected = _outcome(lambda: tree_criterion_reference(am, field))
            decided = isinstance(expected[0], bool)
            verdict = _outcome(lambda: is_tree_satisfying(am, field))
            assert (verdict[:2] if decided else verdict) == expected
            check = _outcome(lambda: check_cm_tree_case(am, field))
            assert check == (expected[0] if decided else expected)
            counts[expected[0]] += 1
    assert counts[True] >= 2000 and counts[False] >= 4000
    assert counts[NotTreeFacetGraph] and counts[NotCohenMacaulay]


def test_grown_edges_are_the_two_facet_clique_edges_that_grow():
    # on tree-case complexes every ridge clique is one facet-graph edge,
    # so the store keeps none, and the index's grown edges at each vertex
    # are exactly the oriented edges p -> c of the reference's one tree
    # per clique with the value at (p, i) below the one at (c, i)
    rng = random.Random(149)
    complexes = [stacked_path(m, d) for d in range(2, 6) for m in (1, 2, 5, 9)]
    complexes.append(get_fixture("triangle-tree").complex)
    complexes += [random_ridge_tree(rng, rng.randint(2, 4), rng.randint(2, 8))[0] for _ in range(80)]
    complexes = [cx for cx in complexes if is_cm_complex(cx, RATIONALS)]
    assert len(complexes) > 60
    grown_total = 0
    for cx in complexes:
        stride = _pair_id(cx, 1, 0)
        assert satisfying._facet_tree(cx)[1] == ()
        cliques = clique_masks_reference(cx)
        assert all(len(trees) == 1 for trees, _, _ in cliques)
        for t in range(8):
            draw = random_tree_satisfying if t % 4 == 0 else random_assignment
            am = draw(rng, cx, 2 + t % 3)
            get = am._pair_values().get
            expected = Counter()
            for _, _, edges in cliques:
                for p, c in edges:
                    (h, i), j = divmod(p, stride), c // stride
                    if get(p, 1) < get(c, 1):
                        expected[i, (h, j), (get(p, 1), get(c, 1))] += 1
            grown = Counter(satisfying._grown_edges(am))
            assert grown == expected
            assert set(grown.values()) <= {1}
            grown_total += len(grown)
    assert grown_total > 1000


def _relabelled(cx, gaps):
    """cx with a vertex in no facet inserted before each vertex in gaps."""
    new = {v: v + sum(g <= v for g in gaps) for v in range(1, cx.n + 1)}
    return SimplicialComplex(cx.n + len(gaps), [[new[v] for v in f] for f in cx.facets])


def test_tree_criterion_raises_as_the_store_did():
    # a vertex in no facet raises RestrictionNotTree at the lowest such
    # vertex once the hypotheses hold; a facet graph that is no tree and
    # a complex that is not Cohen-Macaulay raise as before
    rng = random.Random(151)
    corpus = [SimplicialComplex(3, ()), SimplicialComplex(3, ((1, 2),)), SimplicialComplex(2, ((),))]
    corpus += [_relabelled(stacked_path(m, d), gaps) for m, d, gaps in (
        (3, 2, (1,)), (4, 3, (2, 5)), (2, 4, (6, 3)), (1, 3, (1, 2, 4)),
    )]
    corpus += [_relabelled(get_fixture(name).complex, (3, 5)) for name in fixture_names()]
    corpus.append(SimplicialComplex(6, ((1, 2, 3), (1, 4, 5), (2, 3, 4), (3, 4, 5))))
    for _ in range(20):
        cx, _ = random_ridge_tree(rng, rng.randint(2, 4), rng.randint(2, 6))
        corpus.append(_relabelled(cx, rng.sample(range(1, cx.n + 1), rng.randint(1, 2))))
    seen = Counter()
    for cx in corpus:
        uncovered = [i for i in range(1, cx.n + 1) if all(i not in f for f in cx.facets)]
        for field in (RATIONALS, GF2, FieldSpec(3)):
            for am in (MultiplicityAssignment.constant(cx), random_assignment(rng, cx, 3)):
                expected = _outcome(lambda: tree_criterion_reference(am, field))
                assert _outcome(lambda: is_tree_satisfying(am, field)) == expected
                assert _outcome(lambda: check_cm_tree_case(am, field)) == expected
                if expected[0] is RestrictionNotTree:
                    assert expected[1] == f"restriction to vertex {uncovered[0]} is not a tree"
                seen[expected[0]] += 1
    assert seen[RestrictionNotTree] > 50
    assert seen[NotTreeFacetGraph] and seen[NotCohenMacaulay]


def test_a_second_report_walks_no_vertex_again(monkeypatch):
    # the walks that order violations are kept on the complex, one per
    # vertex, so a second report of a table violated at more than 64
    # vertices of a path walks nothing
    m = 100
    path = SimplicialComplex.from_facets(m + 1, [(k, k + 1) for k in range(1, m + 1)])
    mult = random_assignment(random.Random(5), path, 3)
    first = is_tree_satisfying(mult)
    assert len({i for i, _, _ in first.violations}) > 64
    walks = []

    def counted(adjacency, kept, root):
        walks.append(root)
        return rooted_walk(adjacency, kept, root)

    monkeypatch.setattr(satisfying, "rooted_walk", counted)
    assert is_tree_satisfying(mult) == first
    assert walks == []


def test_cm_tree_case_complexes_are_quasi_trees_with_one_edge_cliques():
    # the lemma behind the tree criterion's grown edges being the
    # two-facet runs of the quasi-tree store:
    # a complex with a tree facet graph that is Cohen-Macaulay over the
    # field has a leaf order, each facet-graph edge is a ridge clique
    # with that edge as its only tree, and the tree criterion agrees with
    # the quasi-tree criterion, whose witness is the facet graph
    rng = random.Random(131)
    pairs = reused_pairs = 0
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        cx, reused = random_ridge_tree(rng, rng.randint(2, 4), rng.randint(2, 8))
        graph = facet_graph(cx)
        assert is_tree(graph)
        for field in (RATIONALS, GF2, FieldSpec(3)):
            if not is_cm_complex(cx, field):
                continue
            pairs += 1
            reused_pairs += reused
            assert find_leaf_order(cx) is not None
            cliques = clique_trees(cx)
            assert all(len(trees) == 1 and len(trees[0]) == 1 for trees in cliques)
            assert sorted(trees[0][0] for trees in cliques) == list(graph.edges)
            for t in range(4):
                draw = random_tree_satisfying if t % 2 else random_assignment
                am = draw(rng, cx, 3)
                tree = check_cm_tree_case(am, field)
                quasi = is_quasitree_satisfying(am)
                assert quasi.satisfied == tree == is_tree_satisfying(am, field).satisfied
                if tree:
                    assert quasi.witness_tree == graph
                verdicts[tree] += 1
    assert pairs >= 500 and reused_pairs >= 100
    assert min(verdicts.values()) >= 300


def test_tree_criterion_reports_non_cm_before_uncovered_vertex():
    # a strip of four triangles whose facet graph is a path; the link of
    # vertex 1 is two disjoint edges, and vertex 6 is in no facet
    cx = SimplicialComplex(6, ((1, 2, 3), (1, 4, 5), (2, 3, 4), (3, 4, 5)))
    assert is_tree(facet_graph(cx))
    with pytest.raises(NotCohenMacaulay):
        is_tree_satisfying(MultiplicityAssignment.constant(cx))
