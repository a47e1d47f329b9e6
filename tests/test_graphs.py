"""Facet-level graphs, rooted orientations, and relation trees.

The vertex-graph and relation-tree machinery is the combinatorial heart
of the fast criteria, so this file pins down the small worked examples
exactly and then checks the structural invariants on random complexes.
"""

from __future__ import annotations

import random

import pytest

from conftest import random_pure_strongly_connected, random_quasi_tree

from cmlab import get_fixture
from cmlab.complexes import SimplicialComplex
from cmlab.errors import (
    FacetIndexOutOfRange,
    HypothesesViolated,
    NotATree,
    NotPure,
    NotQuasiTree,
    NotRelationTree,
    RootNotFound,
    VertexOutOfRange,
)
from cmlab.graphs import (
    ROOT,
    FacetLevelGraph,
    facet_graph,
    is_tree,
    relation_trees,
    restrict_relation_tree,
    root_orientation,
    vertex_graph,
)
from cmlab.structure import find_leaf_order


def test_graph_canonicalization():
    g = FacetLevelGraph(frozenset({1, 2, 3}), ((2, 1), (3, 2), (1, 2)))
    assert g.edges == ((1, 2), (2, 3))
    assert g.neighbors(2) == (1, 3)
    assert g.degree(2) == 2


def test_graph_rejects_self_loops_and_foreign_endpoints():
    with pytest.raises(HypothesesViolated):
        FacetLevelGraph((1, 2), ((1, 1),))
    with pytest.raises(FacetIndexOutOfRange):
        FacetLevelGraph((1, 2), ((1, 3),))


def test_facet_graph_of_main_fixture(tree_fixture):
    g = facet_graph(tree_fixture)
    assert g.nodes == tuple(range(1, 7))
    assert g.edges == ((1, 3), (2, 3), (3, 4), (4, 5), (4, 6))
    assert is_tree(g)


def test_facet_graph_of_square_is_cycle(square_fixture):
    g = facet_graph(square_fixture)
    assert len(g.edges) == 4
    assert not is_tree(g)
    assert g.is_connected()


def test_facet_graph_requires_pure():
    mixed = SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]])
    with pytest.raises(NotPure):
        facet_graph(mixed)


def test_strong_connectivity_matches_graph_connectivity():
    rng = random.Random(3)
    for _ in range(30):
        cx = random_pure_strongly_connected(rng, max_n=7, max_m=6)
        assert facet_graph(cx).is_connected() == cx.is_strongly_connected()


def test_root_orientation_of_main_vertex_graph(tree_fixture):
    g = vertex_graph(tree_fixture, 1)
    orient = root_orientation(g, ROOT)
    assert orient.parent_of(3) == ROOT
    assert orient.parent_of(2) == 3
    assert orient.parent_of(4) == 3
    assert orient.parent_of(5) == 4
    assert orient.parent_of(6) == 4
    assert orient.directed_edges == ((ROOT, 3), (3, 2), (3, 4), (4, 5), (4, 6))


def test_root_orientation_errors(tree_fixture):
    g = facet_graph(tree_fixture)
    with pytest.raises(RootNotFound):
        root_orientation(g, 99)
    square = get_fixture("square").complex
    with pytest.raises(NotATree):
        root_orientation(facet_graph(square), 1)


def test_vertex_graph_for_vertex_in_every_facet():
    star = get_fixture("star").complex
    g = vertex_graph(star, 6)
    assert g.nodes == (ROOT,)
    assert g.edges == ()


def test_vertex_graph_frozen_examples(tree_fixture):
    assert vertex_graph(tree_fixture, 2).edges == ((0, 4), (4, 5), (4, 6))
    assert vertex_graph(tree_fixture, 4).edges == ((0, 2), (0, 6))
    with pytest.raises(VertexOutOfRange):
        vertex_graph(tree_fixture, 9)


def test_vertex_graph_root_edges_require_adjacency(tree_fixture):
    # F5 omits vertex 2 but no facet containing 2 touches it, so no root edge
    g = vertex_graph(tree_fixture, 2)
    assert 5 in g.nodes
    assert (0, 5) not in g.edges


def test_relation_trees_of_tree_graph_is_singleton(tree_fixture):
    trees = relation_trees(tree_fixture)
    assert len(trees) == 1
    assert trees[0].edges == facet_graph(tree_fixture).edges


def test_relation_trees_of_single_facet():
    cx = SimplicialComplex.from_facets(2, [[1, 2]])
    trees = relation_trees(cx)
    assert len(trees) == 1
    assert trees[0].nodes == (1,)
    assert trees[0].edges == ()


def test_relation_trees_of_star_count():
    # complete facet graph on 5 nodes: Cayley's count, 5^3 spanning trees
    star = get_fixture("star").complex
    trees = relation_trees(star)
    assert len(trees) == 125
    assert len(set(trees)) == 125


def test_relation_trees_are_spanning_trees(star_fixture):
    g = facet_graph(star_fixture)
    for t in relation_trees(star_fixture):
        assert t.nodes == g.nodes
        assert is_tree(t)
        assert set(t.edges) <= set(g.edges)


def test_relation_trees_reject_non_quasi_tree(square_fixture):
    with pytest.raises(NotQuasiTree):
        relation_trees(square_fixture)
    split = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    with pytest.raises(NotQuasiTree):
        relation_trees(split)


def test_restrict_relation_tree_star_path(star_fixture):
    path = next(
        t
        for t in relation_trees(star_fixture)
        if set(t.edges) == {(1, 2), (2, 3), (3, 4), (4, 5)}
    )
    restricted = restrict_relation_tree(star_fixture, path, 1)
    assert restricted.edges == ((0, 2), (2, 3), (3, 4), (4, 5))


def test_restrict_relation_tree_on_tree_graph_matches_vertex_graph(tree_fixture):
    (only,) = relation_trees(tree_fixture)
    for i in range(1, 9):
        assert restrict_relation_tree(tree_fixture, only, i).edges == vertex_graph(
            tree_fixture, i
        ).edges


def test_restrict_rejects_foreign_tree(tree_fixture):
    # a spanning tree using the non-edge 1-2 is not a relation tree
    fake = FacetLevelGraph(
        frozenset(range(1, 7)), ((1, 2), (2, 3), (3, 4), (4, 5), (4, 6))
    )
    assert fake not in relation_trees(tree_fixture)
    with pytest.raises(NotRelationTree):
        restrict_relation_tree(tree_fixture, fake, 1)


def test_restrictions_of_relation_trees_are_trees():
    # junction property: every vertex restriction of a relation tree is a tree
    rng = random.Random(23)
    for _ in range(15):
        cx = random_quasi_tree(rng, max_m=5)
        for t in relation_trees(cx):
            for i in sorted(cx.vertices):
                assert is_tree(restrict_relation_tree(cx, t, i))


def test_quasi_tree_prefixes_stay_strongly_connected():
    # dropping the facets after any prefix of a leaf order keeps the rest
    # strongly connected
    rng = random.Random(29)
    for _ in range(15):
        cx = random_quasi_tree(rng, max_m=6)
        lo = find_leaf_order(cx)
        assert lo is not None
        for k in range(1, cx.m + 1):
            prefix = [cx.facets[j - 1] for j in lo.order[:k]]
            sub = SimplicialComplex(cx.n, tuple(prefix))
            assert sub.is_strongly_connected()
