"""Facet-level graphs, rooted orientations, and relation trees.

The vertex-graph and relation-tree machinery is the combinatorial heart
of the fast criteria, so this file pins down the small worked examples
exactly and then checks the structural invariants on random complexes.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from conftest import (
    book_chain,
    built_anew,
    prufer_trees_reference,
    random_attach_quasitree,
    random_pure_complex,
    random_pure_strongly_connected,
    random_quasi_tree,
    random_spanning_tree,
    relation_trees_reference,
    restrict_relation_tree,
    restriction_edges_reference,
    strongly_connected_by_bfs,
)

from cmlab import complexes, get_fixture, graphs, satisfying, structure
from cmlab.complexes import MultiplicityAssignment, SimplicialComplex
from cmlab.errors import (
    FacetIndexOutOfRange,
    HypothesesViolated,
    NotATree,
    NotPure,
    NotQuasiTree,
    RestrictionNotTree,
    RootNotFound,
    VertexOutOfRange,
)
from cmlab.graphs import (
    ROOT,
    FacetLevelGraph,
    clique_trees,
    facet_graph,
    is_tree,
    relation_trees,
    root_orientation,
    rooted_walk,
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


def test_facet_graph_joins_facets_meeting_in_dim_vertices():
    # built from shared ridges; checked against pairwise intersections
    rng = random.Random(5)
    complexes = [random_pure_complex(rng) for _ in range(150)]
    complexes += [SimplicialComplex(3, ((),)), SimplicialComplex(3, ())]
    for cx in complexes:
        sets = [set(f) for f in cx.facets]
        expected = tuple(
            (a, b)
            for a, b in combinations(range(1, cx.m + 1), 2)
            if len(sets[a - 1] & sets[b - 1]) == cx.dim
        )
        assert facet_graph(cx).edges == expected


def test_strong_connectivity_matches_graph_connectivity():
    rng = random.Random(3)
    complexes = [random_pure_strongly_connected(rng, max_n=7, max_m=6) for _ in range(30)]
    # random facets of one size: pure, and often not strongly connected
    for _ in range(60):
        d = rng.randint(1, 3)
        facets = [tuple(rng.sample(range(1, 8), d)) for _ in range(rng.randint(1, 6))]
        complexes.append(SimplicialComplex(7, tuple(facets)))
    # the void complex is neither connected nor a tree, one facet is both
    complexes += [SimplicialComplex(0, ()), SimplicialComplex.from_facets(3, [[1, 2, 3]])]
    verdicts = []
    for cx in complexes:
        connected = facet_graph(cx).is_connected()
        assert connected == strongly_connected_by_bfs(cx)
        # the flags the gates read off the one walk per complex
        assert graphs._facet_walk(cx)[1:] == (connected, is_tree(facet_graph(cx)))
        verdicts.append(connected)
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 40
    assert graphs._facet_walk(complexes[-2])[1:] == (False, False)
    assert graphs._facet_walk(complexes[-1])[1:] == (True, True)


def test_gates_and_index_share_one_facet_graph_walk(monkeypatch):
    # the tree-case and quasi-tree gates, classify and the criteria's
    # index all read one rooted_walk of the facet graph from facet 1
    walks = []

    def counted(adjacency, kept, root):
        walks.append(root)
        return rooted_walk(adjacency, kept, root)

    monkeypatch.setattr(graphs, "rooted_walk", counted)
    for cx in (book_chain(3, 2), get_fixture("triangle-tree").complex):
        cx = built_anew(cx)
        graphs.require_quasi_tree(cx)
        graphs._tree_facet_graph(cx)
        structure.classify(cx)
        satisfying._facet_tree(cx)
        assert walks == [1]
        walks.clear()


def test_rooted_walk_orders_edges_and_flags_trees():
    path = FacetLevelGraph((1, 2, 3, 4), ((1, 2), (2, 3), (3, 4)))
    # the root attaches to kept nodes with a neighbour outside kept
    assert rooted_walk(path.adjacency, {2, 3, 4}, ROOT) == (
        ((ROOT, 2), (2, 3), (3, 4)),
        True,
    )
    assert rooted_walk(path.adjacency, {1, 2, 4}, ROOT) == (
        ((ROOT, 2), (ROOT, 4), (2, 1)),
        True,
    )
    assert rooted_walk(path.adjacency, set(), ROOT) == ((), True)
    # every kept node reached, but one edge too many
    cycle = FacetLevelGraph((1, 2, 3, 4), ((1, 2), (2, 3), (3, 4), (1, 4)))
    assert rooted_walk(cycle.adjacency, {2, 3, 4}, 1) == (
        ((1, 2), (1, 4), (2, 3)),
        False,
    )
    # no kept node touches the outside, so nothing is reached
    assert rooted_walk(path.adjacency, {1, 2, 3, 4}, ROOT) == ((), False)


def test_adjacency_is_indexed_and_sorted(tree_fixture):
    g = facet_graph(tree_fixture)
    assert set(g.adjacency) == set(g.nodes)
    for node in g.nodes:
        expected = sorted(b if a == node else a for a, b in g.edges if node in (a, b))
        assert g.adjacency[node] == g.neighbors(node) == tuple(expected)
    assert g.neighbors(99) == ()


def test_root_orientation_of_main_vertex_graph(tree_fixture):
    g = vertex_graph(tree_fixture, 1)
    edges = root_orientation(g, ROOT)
    parent = {child: p for p, child in edges}
    assert parent[3] == ROOT
    assert parent[2] == 3
    assert parent[4] == 3
    assert parent[5] == 4
    assert parent[6] == 4
    assert edges == ((ROOT, 3), (3, 2), (3, 4), (4, 5), (4, 6))


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


def _per_vertex(cx, edges):
    """Split restriction_edges_reference output into one (parent, child)
    tuple per vertex 1..n, checking that the vertices come in ascending
    order."""
    assert [i for i, _, _ in edges] == sorted(i for i, _, _ in edges)
    return [tuple((h, k) for v, h, k in edges if v == i) for i in range(1, cx.n + 1)]


def test_restrict_relation_tree_star_path(star_fixture):
    path = next(
        t
        for t in relation_trees(star_fixture)
        if set(t.edges) == {(1, 2), (2, 3), (3, 4), (4, 5)}
    )
    (edges,) = restriction_edges_reference(star_fixture, [path])
    assert _per_vertex(star_fixture, edges)[0] == ((ROOT, 2), (2, 3), (3, 4), (4, 5))


def test_restrict_relation_tree_on_tree_graph_matches_vertex_graph(tree_fixture):
    (only,) = relation_trees(tree_fixture)
    (edges,) = restriction_edges_reference(tree_fixture, [only])
    assert _per_vertex(tree_fixture, edges) == [
        root_orientation(vertex_graph(tree_fixture, i), ROOT) for i in range(1, 9)
    ]


def test_restrictions_of_relation_trees_are_trees(star_fixture):
    # junction property: every vertex restriction of a relation tree is a
    # tree, oriented as the reference restriction is
    rng = random.Random(23)
    complexes = [random_quasi_tree(rng, max_m=5) for _ in range(12)] + [star_fixture]
    for cx in complexes:
        trees = relation_trees(cx)
        for t, edges in zip(trees, restriction_edges_reference(cx, trees), strict=True):
            assert _per_vertex(cx, edges) == [
                root_orientation(restrict_relation_tree(cx, t, i), ROOT)
                for i in range(1, cx.n + 1)
            ]


def test_restriction_edges_reject_uncovered_vertex():
    # vertex 3 lies in no facet, so its restriction has no root edge;
    # the tree criterion and the semigroup layer raise as the reference
    # does, also when the vertex asked for is covered
    cx = SimplicialComplex(3, ((1, 2),))
    with pytest.raises(RestrictionNotTree, match="restriction to vertex 3 is not a tree"):
        next(restriction_edges_reference(cx, [facet_graph(cx)]))
    for call in (
        lambda: satisfying.is_tree_satisfying(MultiplicityAssignment.constant(cx)),
        lambda: satisfying.semigroup_generators(cx),
        lambda: satisfying.semigroup_generators(cx, 1),
    ):
        with pytest.raises(RestrictionNotTree, match="restriction to vertex 3 is not a tree"):
            call()


def test_restriction_edges_reject_a_vertex_split_by_a_spanning_tree():
    # on a spanning tree that is no relation tree, the facets holding a
    # covered vertex can lie on both sides of an edge: the square's path
    # of facets (2,4) (1,2) (1,3) (3,4) splits the two holding vertex 4
    square = get_fixture("square").complex
    path = FacetLevelGraph(range(1, 5), [(3, 1), (1, 2), (2, 4)])
    with pytest.raises(RestrictionNotTree, match="restriction to vertex 4 is not a tree"):
        next(restriction_edges_reference(square, [path]))
    # and on random spanning trees the walk raises, at the lowest such
    # vertex, exactly when some reference restriction is no tree
    rng = random.Random(97)
    raised = 0
    for _ in range(300):
        cx = random_pure_strongly_connected(rng, max_n=8, max_m=9)
        tree = random_spanning_tree(rng, facet_graph(cx))
        bad = [i for i in range(1, cx.n + 1) if not is_tree(restrict_relation_tree(cx, tree, i))]
        if bad:
            raised += 1
            with pytest.raises(RestrictionNotTree, match=f"vertex {bad[0]} is not a tree"):
                next(restriction_edges_reference(cx, [tree]))
        else:
            next(restriction_edges_reference(cx, [tree]))
    assert 0 < raised < 300


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
            assert facet_graph(sub).is_connected()


def _annulus_with_pendants(pendants: int) -> SimplicialComplex:
    """Twelve triangles around an annulus (inner vertices 1..6, outer
    7..12), plus one pendant triangle on each of the first few edges."""
    facets = []
    for k in range(6):
        a, a2, b, b2 = k % 6 + 1, (k + 1) % 6 + 1, k % 6 + 7, (k + 1) % 6 + 7
        facets += [(a, a2, b), (a2, b, b2)]
    edges = sorted({tuple(sorted(e)) for f in facets for e in combinations(f, 2)})
    for t, (u, v) in enumerate(edges[:pendants]):
        facets.append((u, v, 13 + t))
    return SimplicialComplex.from_facets(12 + pendants, facets)


def test_relation_trees_give_up_at_the_first_dead_end():
    # every order of removing the 20 pendant leaves ends at the leafless
    # annulus; the search must not try them all
    cx = _annulus_with_pendants(20)
    assert cx.m == 32
    with pytest.raises(NotQuasiTree, match="no leaf order exists"):
        relation_trees(cx)
    assert find_leaf_order(cx) is None


def test_relation_trees_exist_exactly_when_a_leaf_order_does():
    # relation_trees gates on find_leaf_order, so the leaf-removal
    # reference is what checks the equivalence
    rng = random.Random(41)
    for _ in range(400):
        cx = random_pure_strongly_connected(rng, max_n=7, max_m=6)
        try:
            relation_trees_reference(cx)
            found = True
        except NotQuasiTree:
            found = False
        assert found == (find_leaf_order(cx) is not None)


def _outcome(fn, cx):
    try:
        return fn(cx)
    except NotQuasiTree as exc:
        return type(exc), str(exc)


def test_relation_trees_match_the_leaf_removal_reference():
    # same trees in the same order, or the same exception and message
    rng = random.Random(47)
    complexes = [random_pure_strongly_connected(rng, max_n=7, max_m=6) for _ in range(1200)]
    complexes += [random_quasi_tree(rng, max_m=6) for _ in range(400)]
    complexes += [
        random_attach_quasitree(rng, [rng.randint(2, 4) for _ in range(rng.randint(1, 3))])
        for _ in range(100)
    ]
    complexes += [random_pure_complex(rng, max_m=6) for _ in range(300)]
    complexes += [
        SimplicialComplex.from_facets(m + 1, [(k, m + 1) for k in range(1, m + 1)])
        for m in range(1, 7)
    ]
    complexes += [_annulus_with_pendants(p) for p in (0, 1, 3)]
    several = 0
    for cx in complexes:
        expected = _outcome(relation_trees_reference, cx)
        assert _outcome(relation_trees, cx) == expected
        several += isinstance(expected[0], FacetLevelGraph) and len(expected) > 1
    assert len(complexes) >= 2000 and several >= 500


def test_clique_trees_list_each_tree_bottom_up_under_the_last_facet():
    # per ridge clique of k facets, its k^(k-2) trees sorted by edges, each
    # as (child, parent) pairs in which a facet's children come first
    rng = random.Random(29)
    complexes = [random_attach_quasitree(rng, (3, 4, 2)) for _ in range(4)]
    complexes += [book_chain(4, 2), get_fixture("star").complex]
    for cx in complexes:
        for trees in clique_trees(cx):
            nodes = sorted({j for edge in trees[0] for j in edge})
            assert len(set(trees)) == len(trees) == len(nodes) ** (len(nodes) - 2)
            assert list(trees) == sorted(trees, key=lambda t: sorted(map(sorted, t)))
            for tree in trees:
                assert sorted(c for c, _ in tree) == nodes[:-1]
                for pos, (c, _) in enumerate(tree):
                    assert all(k in [a for a, _ in tree[:pos]] for k, p in tree if p == c)


def test_clique_trees_decode_as_the_quadratic_reference():
    # the pointer decode yields the reference's pairs in its order, so
    # sorting by edges gives the same trees
    for k in range(2, 8):
        cx = SimplicialComplex(k + 1, [(1, v) for v in range(2, k + 2)])
        (trees,) = clique_trees(cx)
        reference = prufer_trees_reference(list(range(1, k + 1)))
        assert len(trees) == len(reference) == k ** (k - 2)
        assert trees == tuple(sorted(reference, key=lambda t: sorted(map(sorted, t))))
    # nodes that are not 1..k: the cliques of a book chain and of quasi-trees
    rng = random.Random(31)
    for cx in [book_chain(4, 2)] + [random_attach_quasitree(rng, (3, 4, 2)) for _ in range(3)]:
        for trees, group in zip(clique_trees(cx), graphs._ridge_groups(cx)):
            reference = prufer_trees_reference([j for j, _ in group])
            assert trees == tuple(sorted(reference, key=lambda t: sorted(map(sorted, t))))


def test_graph_caches_are_bounded(tree_fixture):
    # each cache is kept on the complex it was worked out from, so it holds
    # no more than the complexes alive, and an equal complex shares none
    cx = built_anew(tree_fixture)
    kept = {
        facet_graph: (),
        graphs.require_quasi_tree: (),
        clique_trees: (),
        relation_trees: (),
        graphs._ridge_groups: (),
        complexes._facet_masks: (),
        structure._tree_facet_graph: (),
        structure._ridge_masks: (),
        structure._tier_order: (0, (1 << cx.m) - 1),
        graphs._facet_walk: (),
        satisfying._facet_tree: (),
        satisfying._vertex_walk: (1,),
    }
    for cached, args in kept.items():
        value = cached(cx, *args)
        assert cx._memo[cached][args] is value
    assert not hasattr(built_anew(cx), "_memo")
    # a bounded cache still answers from memory
    before = facet_graph.cache_info().hits
    assert facet_graph(tree_fixture) is facet_graph(tree_fixture)
    assert facet_graph.cache_info().hits > before
