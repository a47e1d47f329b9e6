"""Invariants of the benchmark's known-answer generators."""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

import inputs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def table_of(doc: dict) -> dict[tuple[int, int], int]:
    return {(a["facet"], a["vertex"]): a["value"] for a in doc["alpha"]}


def assert_full_table(doc: dict) -> None:
    domain = {
        (j, i)
        for j, f in enumerate(doc["facets"], start=1)
        for i in range(1, doc["n"] + 1)
        if i not in f
    }
    assert set(table_of(doc)) == domain
    assert len(doc["alpha"]) == len(domain)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cross_polytope_is_a_pseudomanifold(d):
    n, facets = inputs.cross_polytope(d)
    assert n == 2 * d
    assert len(facets) == 2**d == len(set(facets))
    ridges: dict[tuple[int, ...], int] = {}
    for f in facets:
        assert len(f) == d
        assert all({2 * k + 1, 2 * k + 2} & set(f) for k in range(d))
        for r in itertools.combinations(f, d - 1):
            ridges[r] = ridges.get(r, 0) + 1
    assert set(ridges.values()) == {2}


def test_wedge_link_of_the_shared_vertex_is_disconnected():
    n, facets = inputs.octahedra_wedge()
    assert n == 11 and len(facets) == 16
    link_edges = [tuple(v for v in f if v != 1) for f in facets if 1 in f]
    seen, stack = {link_edges[0][0]}, [link_edges[0][0]]
    while stack:
        v = stack.pop()
        for a, b in link_edges:
            for u, w in ((a, b), (b, a)):
                if u == v and w not in seen:
                    seen.add(w)
                    stack.append(w)
    assert len(link_edges) == 8
    assert len(seen) == 4  # one of two 4-cycles


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("m", [2, 7, 16])
def test_stacked_path_facet_graph_is_a_path(d, m):
    n, facets = inputs.stacked_path(m, d)
    assert n == m + d - 1
    for a, b in itertools.combinations(range(m), 2):
        adjacent = len(set(facets[a]) & set(facets[b])) == d - 1
        assert adjacent == (b == a + 1)


def chain_edges(doc: dict, d: int):
    m = len(doc["facets"])
    for i in range(1, doc["n"] + 1):
        for chain in inputs.path_chains(m, d, i):
            for parent, child in zip(chain, chain[1:]):
                yield i, parent, child


def test_path_chains_are_the_facets_omitting_the_vertex():
    m, d = 9, 3
    n, facets = inputs.stacked_path(m, d)
    for i in range(1, n + 1):
        left, right = inputs.path_chains(m, d, i)
        omitting = {j for j, f in enumerate(facets, start=1) if i not in f}
        assert set(left) | set(right) == omitting
        # the first facet of each chain touches a facet containing i
        for chain in (left, right):
            if chain:
                neighbours = {chain[0] - 1, chain[0] + 1} - omitting - {0, m + 1}
                assert neighbours


@pytest.mark.parametrize("seed", range(20))
def test_tree_satisfying_tables_and_their_violations(seed):
    rng = random.Random(seed)
    d = 3 + seed % 2
    good = inputs.tree_satisfying_path(rng, 10 + seed % 7, d, 3)
    assert_full_table(good)
    table = table_of(good)
    assert all(table[(p, i)] >= table[(c, i)] for i, p, c in chain_edges(good, d))

    bad, (i, parent, child) = inputs.violate_path(rng, good, d)
    assert_full_table(bad)
    worse = table_of(bad)
    assert [k for k in table if table[k] != worse[k]] == [(child, i)]
    assert (i, parent, child) in set(chain_edges(bad, d))
    assert worse[(parent, i)] < worse[(child, i)]


def relation_tree_count(profile) -> int:
    """Cayley's k^(k-2) spanning trees per clique of the facet graph."""
    count = 1
    for k in profile:
        count *= k ** (k - 2)
    return count


@pytest.mark.parametrize("profile", [(4, 3, 2), (4, 4, 2), (6, 2)])
def test_attach_quasitree_relation_tree_count(profile):
    from cmlab.complexes import SimplicialComplex
    from cmlab.graphs import relation_trees

    for seed in range(3):
        n, facets = inputs.attach_quasitree(random.Random(seed), profile)
        assert len(facets) == 1 + sum(k - 1 for k in profile)
        assert n == len(facets) + 2
        cx = SimplicialComplex.from_facets(n, facets)
        assert len(relation_trees(cx)) == relation_tree_count(profile)


def test_star_has_cayley_many_relation_trees():
    from cmlab.complexes import SimplicialComplex
    from cmlab.graphs import relation_trees

    n, facets = inputs.star(5)
    assert len(relation_trees(SimplicialComplex.from_facets(n, facets))) == 5**3
