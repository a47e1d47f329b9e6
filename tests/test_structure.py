"""Shellings, leaves, leaf orders, and the classification report."""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import random_pure_strongly_connected, random_quasi_tree

from cmlab import RATIONALS, get_fixture
from cmlab.complexes import SimplicialComplex, leaf_branches
from cmlab.errors import (
    FacetIndexOutOfRange,
    NotATree,
    NotPermutation,
    NotPure,
    NotShellable,
)
from cmlab.structure import (
    LeafOrder,
    classify,
    find_leaf_order,
    find_shelling,
    free_vertex_of_last,
    is_leaf,
    is_shelling,
)


def test_is_shelling_accepts_known_order(tree_fixture):
    assert is_shelling(tree_fixture, (1, 3, 2, 4, 5, 6))
    assert is_shelling(tree_fixture, (6, 4, 5, 3, 2, 1))


def test_is_shelling_rejects_disconnected_step(tree_fixture):
    # F1 then F6 intersect in nothing of size 1
    assert not is_shelling(tree_fixture, (1, 6, 3, 2, 4, 5))


def test_is_shelling_validates_permutation(tree_fixture):
    with pytest.raises(NotPermutation):
        is_shelling(tree_fixture, (1, 2, 3))
    with pytest.raises(NotPermutation):
        is_shelling(tree_fixture, (1, 1, 2, 3, 4, 5))
    mixed = SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]])
    with pytest.raises(NotPure):
        is_shelling(mixed, (1, 2))


def test_single_facet_orders_are_shellings():
    cx = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    assert is_shelling(cx, (1,))
    assert find_shelling(cx) == (1,)


def test_find_shelling_on_fixtures(tree_fixture, square_fixture):
    order = find_shelling(tree_fixture)
    assert is_shelling(tree_fixture, order)
    order = find_shelling(square_fixture)
    assert is_shelling(square_fixture, order)
    split = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    assert find_shelling(split) is None


def test_find_shelling_prefix_vertex(tree_fixture):
    order = find_shelling(tree_fixture, prefix_vertex=4)
    assert order is not None
    containing = {j for j in range(1, 7) if 4 in tree_fixture.facets[j - 1]}
    assert set(order[: len(containing)]) == containing
    assert is_shelling(tree_fixture, order)


def test_find_shelling_weight_constraint(tree_fixture):
    # F2 shares no edge with F6, so it cannot follow the vertex-8 prefix first
    weights = {j: (5 if j == 2 else 1) for j in range(1, 7)}
    assert find_shelling(tree_fixture, prefix_vertex=8, weights=weights) is None
    flat = {j: 1 for j in range(1, 7)}
    assert find_shelling(tree_fixture, prefix_vertex=8, weights=flat) is not None


def test_is_leaf_frozen_cases(tree_fixture):
    assert is_leaf(tree_fixture, 1) == (True, 3)
    assert is_leaf(tree_fixture, 3) == (False, None)
    assert is_leaf(tree_fixture, 6) == (True, 4)
    with pytest.raises(FacetIndexOutOfRange):
        is_leaf(tree_fixture, 7)


def test_single_facet_is_leaf_without_branch():
    cx = SimplicialComplex.from_facets(2, [[1, 2]])
    assert is_leaf(cx, 1) == (True, None)


def test_hollow_triangle_has_no_leaf():
    hollow = get_fixture("triangle-boundary").complex
    assert all(not is_leaf(hollow, j)[0] for j in range(1, 4))
    assert find_leaf_order(hollow) is None


def test_find_leaf_order_main(tree_fixture):
    lo = find_leaf_order(tree_fixture)
    assert lo.order == (6, 4, 5, 3, 2, 1)
    assert lo.branches[0] is None
    # each later facet is a leaf of the prefix complex with the stated branch
    for k in range(1, len(lo.order)):
        prefix = tuple(tree_fixture.facets[j - 1] for j in lo.order[: k + 1])
        sub = SimplicialComplex(tree_fixture.n, prefix)
        local = sub.facets.index(tree_fixture.facets[lo.order[k] - 1]) + 1
        ok, _ = is_leaf(sub, local)
        assert ok
        assert lo.branches[k] in lo.order[:k]


def find_leaf_order_exhaustive(cx: SimplicialComplex) -> LeafOrder | None:
    """Backtracking variant used to validate the greedy search."""
    dead: set[frozenset[int]] = set()

    def search(remaining: frozenset[int]) -> list[tuple[int, int | None]] | None:
        if len(remaining) <= 1:
            return [(j, None) for j in remaining]
        if remaining in dead:
            return None
        back = sorted(remaining)
        sub = tuple(cx.facets[t - 1] for t in back)
        for pos, j in enumerate(back):
            branches = leaf_branches(sub, pos)
            if not branches:
                continue
            head = search(remaining - {j})
            if head is not None:
                return head + [(j, back[branches[0]])]
        dead.add(remaining)
        return None

    result = search(frozenset(range(1, cx.m + 1)))
    if result is None:
        return None
    return LeafOrder(
        tuple(j for j, _ in result), tuple(g for _, g in result)
    )


def test_greedy_leaf_order_matches_exhaustive():
    rng = random.Random(31)
    for _ in range(40):
        cx = random_pure_strongly_connected(rng, max_n=7, max_m=6)
        assert (find_leaf_order(cx) is None) == (
            find_leaf_order_exhaustive(cx) is None
        )
    for _ in range(15):
        qt = random_quasi_tree(rng, max_m=6)
        assert find_leaf_order(qt) is not None
        assert find_leaf_order_exhaustive(qt) is not None


def test_classify_main(tree_fixture):
    report = classify(tree_fixture)
    assert dict(report.flags()) == {
        "pure": True,
        "strongly_connected": True,
        "shellable": True,
        "cohen_macaulay": True,
        "minimal_multiplicity": True,
        "quasi_tree": True,
        "facet_graph_is_tree": True,
        "cm_without_codim1_cycles": True,
        "strongly_connected_quasi_tree": True,
    }
    assert report.field == RATIONALS


def test_classify_square(square_fixture):
    report = classify(square_fixture)
    flags = dict(report.flags())
    assert flags["shellable"] and flags["cohen_macaulay"]
    assert not flags["minimal_multiplicity"]
    assert not flags["quasi_tree"]
    assert not flags["facet_graph_is_tree"]


def test_classify_nonpure():
    mixed = SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]])
    flags = dict(classify(mixed).flags())
    assert not flags["pure"]
    assert not flags["strongly_connected"]
    assert not flags["shellable"]
    assert not flags["cohen_macaulay"]


def test_classify_equivalence_on_random_corpus():
    # the four minimal-multiplicity conditions never disagree; classify
    # asserts this internally, so surviving the sweep is the test
    rng = random.Random(37)
    for _ in range(60):
        cx = random_pure_strongly_connected(rng)
        classify(cx)


def test_shellings_of_main_end_at_graph_leaves(tree_fixture):
    # exhaustive sweep: no shelling ends at the internal facets F3 or F4
    last_seen = set()
    for perm in itertools.permutations(range(1, 7)):
        if is_shelling(tree_fixture, perm):
            last_seen.add(perm[-1])
    assert last_seen == {1, 2, 5, 6}


def test_free_vertex_of_last(tree_fixture):
    assert free_vertex_of_last(tree_fixture, (1, 3, 2, 4, 5, 6))
    assert free_vertex_of_last(tree_fixture, (6, 4, 5, 3, 2, 1))
    with pytest.raises(NotShellable):
        free_vertex_of_last(tree_fixture, (1, 6, 3, 2, 4, 5))
    square = get_fixture("square").complex
    with pytest.raises(NotATree):
        free_vertex_of_last(square, (1, 2, 3, 4))


def test_shellable_strongly_connected_sequences(tree_fixture):
    # any prefix of a shelling is strongly connected
    for perm in itertools.permutations(range(1, 7)):
        if not is_shelling(tree_fixture, perm):
            continue
        for k in range(1, 7):
            prefix = tuple(tree_fixture.facets[j - 1] for j in perm[:k])
            assert SimplicialComplex(tree_fixture.n, prefix).is_strongly_connected()
