"""Known-answer problem generators for the cm-lab benchmark.

Every generator here builds a problem whose verdict follows from its
construction (a theorem about the family), never from running cm-lab.
Problems are plain problem-file dicts: ``n``, canonical ``facets`` and a
full ``alpha`` table, so facet indices match cm-lab's canonical order.
"""

from __future__ import annotations

import itertools
import random

# The 6-vertex real projective plane (antipodal quotient of the
# icosahedron): H_1 = Z/2, so it is Cohen-Macaulay exactly when the
# characteristic is not 2.
PROJECTIVE_PLANE = (
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
)


def canonical(facets) -> list[tuple[int, ...]]:
    """Sorted vertex tuples in lexicographic order, as cm-lab orders them."""
    return sorted(tuple(sorted(f)) for f in facets)


def problem(n: int, facets, table: dict[tuple[int, int], int]) -> dict:
    """A problem-file dict; ``table`` maps (1-based facet, vertex) -> exponent
    and must cover every pair with the vertex outside the facet."""
    facets = canonical(facets)
    alpha = [
        {"facet": j, "vertex": i, "value": table[(j, i)]}
        for j, f in enumerate(facets, start=1)
        for i in range(1, n + 1)
        if i not in f
    ]
    return {"n": n, "facets": [list(f) for f in facets], "alpha": alpha}


def constant_table(n: int, facets, value: int) -> dict[tuple[int, int], int]:
    return {
        (j, i): value
        for j, f in enumerate(canonical(facets), start=1)
        for i in range(1, n + 1)
        if i not in f
    }


def cross_polytope(d: int) -> tuple[int, list[tuple[int, ...]]]:
    """Boundary of the d-dimensional cross-polytope, a (d-1)-sphere:
    antipodal pairs (2k-1, 2k), one vertex from each pair per facet."""
    pairs = [(2 * k + 1, 2 * k + 2) for k in range(d)]
    return 2 * d, canonical(itertools.product(*pairs))


def octahedra_wedge() -> tuple[int, list[tuple[int, ...]]]:
    """Two octahedron boundaries glued at vertex 1.  The link of vertex 1
    is two disjoint 4-cycles, so the complex is not Cohen-Macaulay over
    any field."""
    _, octa = cross_polytope(3)
    shifted = [tuple(1 if v == 1 else v + 5 for v in f) for f in octa]
    return 11, canonical(octa + shifted)


def stacked_path(m: int, d: int) -> tuple[int, list[tuple[int, ...]]]:
    """Facets {k, ..., k+d-1} for k = 1..m: a shellable ball whose facet
    graph is the path 1-2-...-m."""
    return m + d - 1, [tuple(range(k, k + d)) for k in range(1, m + 1)]


def path_chains(m: int, d: int, i: int) -> tuple[list[int], list[int]]:
    """The vertex graph of vertex i on a stacked path is the formal root
    with two chains of facets omitting i.  Each chain is listed from the
    root outwards: left (facets i-d, i-d-1, ..., 1) and right (facets
    i+1, ..., m)."""
    left = list(range(i - d, 0, -1))
    right = list(range(i + 1, m + 1))
    return left, right


def tree_satisfying_path(rng: random.Random, m: int, d: int, max_exp: int) -> dict:
    """Exponents non-increasing away from the root along both chains of
    every vertex graph.  The facet graph is a tree and the complex is
    Cohen-Macaulay, so by the tree theorem the ideal is Cohen-Macaulay."""
    n, facets = stacked_path(m, d)
    table = {}
    for i in range(1, n + 1):
        for chain in path_chains(m, d, i):
            values = sorted((rng.randint(1, max_exp) for _ in chain), reverse=True)
            table.update({(j, i): v for j, v in zip(chain, values)})
    return problem(n, facets, table)


def violate_path(rng: random.Random, doc: dict, d: int) -> tuple[dict, tuple[int, int, int]]:
    """Raise one entry of a tree-satisfying stacked-path table above its
    parent's value on a chain.  That edge breaks monotonicity, so by the
    tree theorem the ideal is not Cohen-Macaulay.  Returns the new
    problem and the (vertex, parent facet, child facet) edge it breaks."""
    n, m = doc["n"], len(doc["facets"])
    table = {(a["facet"], a["vertex"]): a["value"] for a in doc["alpha"]}
    edges = [
        (i, chain[k], chain[k + 1])
        for i in range(1, n + 1)
        for chain in path_chains(m, d, i)
        for k in range(len(chain) - 1)
    ]
    i, parent, child = rng.choice(edges)
    table[(child, i)] = table[(parent, i)] + 1
    return problem(n, doc["facets"], table), (i, parent, child)


def uniform_table(rng: random.Random, n: int, facets, max_exp: int) -> dict:
    table = {
        key: rng.randint(1, max_exp) for key in constant_table(n, facets, 1)
    }
    return problem(n, facets, table)


def star(m: int) -> tuple[int, list[tuple[int, ...]]]:
    """m edges through the centre m+1.  The facet graph is complete, so
    the star has m^(m-2) relation trees."""
    return m + 1, canonical((k, m + 1) for k in range(1, m + 1))


def attach_quasitree(rng: random.Random, profile) -> tuple[int, list[tuple[int, ...]]]:
    """Triangles glued along edges: for each k in ``profile``, an edge of
    an earlier triangle that no other triangle shares yet receives k-1
    new triangles, each with one new vertex.  Every new triangle is a
    leaf whose branch holds its edge, so the result is a strongly
    connected quasi-tree.  Its facet graph is a tree of cliques, one of
    size k per glued edge, so it has prod(k^(k-2)) relation trees.
    Vertex labels are shuffled so the layout varies with ``rng``."""
    facets = [(1, 2, 3)]
    used_ridges: set[tuple[int, int]] = set()
    n = 3
    for k in profile:
        free = [
            r
            for f in facets
            for r in itertools.combinations(f, 2)
            if r not in used_ridges
            and sum(1 for g in facets if set(r) <= set(g)) == 1
        ]
        ridge = rng.choice(free)
        used_ridges.add(ridge)
        for _ in range(k - 1):
            n += 1
            facets.append(tuple(sorted(ridge + (n,))))
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return n, canonical([labels[v - 1] for v in f] for f in facets)

