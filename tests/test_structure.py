"""Shellings, leaves, leaf orders, and the classification report."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from conftest import (
    built_anew,
    find_shelling_reference,
    is_shelling_reference,
    leaf_branches_reference,
    random_complex,
    random_pure_complex,
    random_pure_strongly_connected,
    random_quasi_tree,
    shelling_reference,
)

from cmlab import GF2, RATIONALS, get_fixture, structure
from cmlab.complexes import SimplicialComplex
from cmlab.errors import (
    FacetIndexOutOfRange,
    NotATree,
    NotPermutation,
    NotPure,
    NotShellable,
)
from cmlab.graphs import facet_graph
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


def test_find_shelling_matches_the_set_based_reference():
    # same first witness as the search on vertex sets, with and without
    # a prefix vertex and weights, on shellable and non-shellable input
    rng = random.Random(41)
    shellable = 0
    for k in range(2000):
        if k % 2:
            cx = random_pure_complex(rng)
        else:
            cx = random_pure_strongly_connected(rng, max_n=7, max_m=7)
        order = find_shelling(cx)
        assert order == find_shelling_reference(cx)
        shellable += order is not None
        v = rng.randint(1, cx.n)
        weights = {j: rng.randint(1, 3) for j in range(1, cx.m + 1)}
        for kwargs in ({"prefix_vertex": v}, {"prefix_vertex": v, "weights": weights}):
            assert find_shelling(cx, **kwargs) == find_shelling_reference(cx, **kwargs)
        perm = rng.sample(range(1, cx.m + 1), cx.m)
        assert is_shelling(cx, perm) == is_shelling_reference(cx, perm)
    assert shellable > 1000 and 2000 - shellable > 250


def _random_tiers(rng: random.Random, cx: SimplicialComplex) -> list[int]:
    """The facets split into up to four tiers by random labels, a tier
    with no label drawn being empty, or the tiers find_shelling builds
    for a random prefix vertex and random weights."""
    if rng.random() < 0.3:
        weights = {j: rng.randint(1, 3) for j in range(1, cx.m + 1)}
        return structure._tiers(cx, rng.randint(1, cx.n), weights)
    labels = [rng.randrange(rng.randint(1, 4)) for _ in range(cx.m)]
    return [
        sum(1 << j for j, label in enumerate(labels) if label == tier)
        for tier in range(max(labels) + 2)
    ]


def test_tier_search_matches_the_single_stack_reference():
    # the first shelling is the concatenation of each tier's first
    # order: same order, or None, as one search over all tiers at once,
    # with empty tiers, one full tier and later tiers that fail
    rng = random.Random(97)
    seen = dict.fromkeys(("shelled", "none", "later tier fails", "empty tier"), 0)
    for k in range(4000):
        if k % 2:
            cx = random_pure_complex(rng)
        else:
            cx = random_pure_strongly_connected(rng, max_n=7, max_m=7)
        for tiers in ([(1 << cx.m) - 1], _random_tiers(rng, cx), _random_tiers(rng, cx)):
            order = structure._shelling(cx, tiers)
            assert order == shelling_reference(cx, tiers), (cx, tiers)
            seen["none" if order is None else "shelled"] += 1
            seen["empty tier"] += 0 in tiers
            first = next(t for t in tiers if t)
            if order is None and len(tiers) > 1 and structure._tier_order(cx, 0, first):
                seen["later tier fails"] += 1
            if order is not None:
                assert is_shelling(cx, order)
    assert min(seen.values()) > 800, seen


def test_tier_searches_are_shared_across_calls(tree_fixture):
    # the shelling condition searches one tier per vertex and value
    # level; a tier reached again from the same placed facets is one
    # cache hit, whichever call reaches it
    cx = built_anew(tree_fixture)
    start = structure._tier_order.cache_info().misses
    tiers = structure._tiers(cx, 4, None)
    first = find_shelling(cx, prefix_vertex=4)
    misses = structure._tier_order.cache_info().misses
    assert misses - start == len(tiers)
    assert structure._shelling(cx, tiers) == first
    weights = {j: 1 for j in range(1, cx.m + 1)}
    assert find_shelling(cx, prefix_vertex=4, weights=weights) == first
    assert structure._tier_order.cache_info().misses == misses



def test_shelling_search_remembers_dead_prefixes():
    # two 4-cross-polytope boundaries wedged at a vertex: the search must
    # exhaust one sphere's shellable prefixes once, not once per order
    cross = list(itertools.product((1, 2), (3, 4), (5, 6), (7, 8)))
    wedge = SimplicialComplex.from_facets(
        15, cross + [tuple(1 if v == 1 else v + 7 for v in f) for f in cross]
    )
    start = time.perf_counter()
    assert find_shelling(wedge) is None
    assert time.perf_counter() - start < 10


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
            branches = leaf_branches_reference(sub, pos)
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


def find_leaf_order_reference(cx: SimplicialComplex) -> LeafOrder | None:
    """The greedy leaf order on Python sets: repeatedly remove the
    lowest-index leaf of what remains, with its lowest branch."""
    remaining = list(range(1, cx.m + 1))
    removed: list[tuple[int, int]] = []
    while len(remaining) > 1:
        sub = tuple(cx.facets[t - 1] for t in remaining)
        for pos, j in enumerate(remaining):
            branches = leaf_branches_reference(sub, pos)
            if branches:
                removed.append((j, remaining[branches[0]]))
                break
        else:
            return None
        remaining.remove(removed[-1][0])
    return LeafOrder(
        tuple(remaining) + tuple(j for j, _ in reversed(removed)),
        (None,) * len(remaining) + tuple(g for _, g in reversed(removed)),
    )


def _disjoint_union(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    shifted = [[v + a.n for v in f] for f in b.facets]
    return SimplicialComplex(a.n + b.n, list(a.facets) + shifted)


def _facet_components(cx: SimplicialComplex) -> int:
    """The number of classes of facets joined by sharing a vertex."""
    label = list(range(cx.m))
    for a in range(cx.m):
        for b in range(a):
            if set(cx.facets[a]) & set(cx.facets[b]):
                old, new = label[a], label[b]
                label = [new if x == old else x for x in label]
    return len(set(label))


def test_leaf_order_and_leaf_test_match_the_set_based_reference():
    rng = random.Random(1802)
    seen = {"none": 0, "order": 0, "single": 0, "nonpure": 0, "disconnected": 0, "isolated": 0}
    for k in range(2400):
        kind = k % 4
        n = rng.randint(1, 8)
        if kind == 0:
            cx = random_complex(rng, n, rng.randint(1, min(n, 5)))
        elif kind == 1:
            cx = random_quasi_tree(rng, max_m=7)
        elif kind == 2:
            cx = random_pure_strongly_connected(rng, max_n=7, max_m=7)
        else:
            cx = _disjoint_union(
                random_complex(rng, n, min(n, 3)), random_quasi_tree(rng, max_m=4)
            )
        want = find_leaf_order_reference(cx)
        assert find_leaf_order(cx) == want, cx.facets
        for j in range(1, cx.m + 1):
            branches = leaf_branches_reference(cx.facets, j - 1)
            expected = (True, None) if cx.m == 1 else (
                (True, branches[0] + 1) if branches else (False, None)
            )
            assert is_leaf(cx, j) == expected, (cx.facets, j)
        seen["none" if want is None else "order"] += 1
        seen["single"] += cx.m == 1
        seen["nonpure"] += not cx.is_pure
        seen["disconnected"] += _facet_components(cx) > 1
        seen["isolated"] += cx.m > 1 and any(
            not any(set(f) & set(g) for g in cx.facets if g != f) for f in cx.facets
        )
    assert min(seen.values()) >= 100, seen


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


def test_classify_skips_the_shelling_search_on_complexes_that_are_not_cm(monkeypatch):
    # shellable implies Cohen-Macaulay over every field, so the report
    # equals one from the unfiltered search, which never runs here
    octahedron = list(itertools.product((1, 2), (3, 4), (5, 6)))
    wedge = SimplicialComplex.from_facets(
        11, octahedron + [tuple(1 if v == 1 else v + 5 for v in f) for f in octahedron]
    )
    cases = [
        (wedge, RATIONALS),
        (SimplicialComplex.from_facets(4, [[1, 2], [3, 4]]), RATIONALS),
        (get_fixture("projective-plane").complex, GF2),
    ]
    searched = []
    monkeypatch.setattr(structure, "find_shelling", lambda cx, **kw: searched.append(cx))
    for cx, field in cases:
        report = classify(cx, field)
        assert not report.cohen_macaulay
        assert report == report._replace(shellable=find_shelling_reference(cx) is not None)
    assert searched == []


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
            assert facet_graph(SimplicialComplex(tree_fixture.n, prefix)).is_connected()
