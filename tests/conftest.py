"""Shared fixtures and seeded random generators for the test suite."""

from __future__ import annotations

import random

import pytest

from cmlab import get_fixture
from cmlab.complexes import MultiplicityAssignment, SimplicialComplex
from cmlab.homology import ExactMatrix


@pytest.fixture
def tree_fixture() -> SimplicialComplex:
    return get_fixture("triangle-tree").complex


@pytest.fixture
def star_fixture() -> SimplicialComplex:
    return get_fixture("star").complex


@pytest.fixture
def square_fixture() -> SimplicialComplex:
    return get_fixture("square").complex


def random_assignment(
    rng: random.Random, cx: SimplicialComplex, max_exp: int
) -> MultiplicityAssignment:
    """Uniform values in 1..max_exp, drawn in canonical domain order."""
    domain = [(j, i) for j, i, _ in MultiplicityAssignment.constant(cx).entries]
    return MultiplicityAssignment(
        cx, tuple((j, i, rng.randint(1, max_exp)) for j, i in domain)
    )


def random_pure_strongly_connected(
    rng: random.Random, max_n: int = 8, max_m: int = 8
) -> SimplicialComplex:
    """Grow facets one at a time, each sharing all but one vertex with an
    existing facet, then relabel the used vertices onto 1..n."""
    d = rng.randint(2, 3)
    target_m = rng.randint(1, max_m)
    pool = list(range(1, max_n + 1))
    facets = [frozenset(rng.sample(pool, d))]
    for _ in range(target_m - 1):
        for _ in range(30):
            base = set(rng.choice(facets))
            base.discard(rng.choice(sorted(base)))
            candidates = [v for v in pool if v not in base]
            new = frozenset(base | {rng.choice(candidates)})
            if new not in facets and not any(new < f or f < new for f in facets):
                facets.append(new)
                break
    used = sorted(set().union(*facets))
    relabel = {v: k + 1 for k, v in enumerate(used)}
    return SimplicialComplex.from_facets(
        len(used), [sorted(relabel[v] for v in f) for f in facets]
    )


def random_quasi_tree(
    rng: random.Random, max_m: int = 6
) -> SimplicialComplex:
    """Attach each new facet along a (d-1)-face of an old one plus a brand
    new vertex: strongly connected, quasi-tree, minimal multiplicity."""
    d = rng.randint(2, 3)
    target_m = rng.randint(2, max_m)
    facets = [tuple(range(1, d + 1))]
    next_vertex = d + 1
    for _ in range(target_m - 1):
        base = rng.choice(facets)
        shared = rng.sample(base, d - 1)
        facets.append(tuple(sorted(shared + [next_vertex])))
        next_vertex += 1
    return SimplicialComplex.from_facets(next_vertex - 1, facets)


def random_tree_satisfying(
    rng: random.Random, cx: SimplicialComplex, max_exp: int
) -> MultiplicityAssignment:
    """Draw values non-increasing away from the root in every vertex graph."""
    from cmlab.graphs import ROOT, root_orientation, vertex_graph

    values: dict[tuple[int, int], int] = {}
    for i in sorted(cx.vertices):
        chosen: dict[int, int] = {}
        for parent, child in root_orientation(vertex_graph(cx, i), ROOT):
            cap = max_exp if parent == ROOT else chosen[parent]
            chosen[child] = rng.randint(1, cap)
        for j, v in chosen.items():
            values[(j, i)] = v
    domain = [(j, i) for j, i, _ in MultiplicityAssignment.constant(cx).entries]
    return MultiplicityAssignment(
        cx, tuple((j, i, values.get((j, i), 1)) for j, i in domain)
    )


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    assert a.field == b.field and a.ncols == b.nrows
    product = tuple(
        tuple(
            sum(a.entries[r][k] * b.entries[k][c] for k in range(a.ncols))
            for c in range(b.ncols)
        )
        for r in range(a.nrows)
    )
    return ExactMatrix(a.field, a.nrows, b.ncols, product)


def is_zero(mx: ExactMatrix) -> bool:
    p = mx.field.characteristic
    if p:
        return all(x % p == 0 for row in mx.entries for x in row)
    return all(x == 0 for row in mx.entries for x in row)
