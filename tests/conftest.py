"""Shared fixtures and seeded random generators for the test suite."""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, product

import pytest

from cmlab import get_fixture
from cmlab.complexes import MultiplicityAssignment, SimplicialComplex
from cmlab.graphs import ROOT, FacetLevelGraph
from cmlab.homology import ExactMatrix, FieldSpec, reduced_homology_ranks


@pytest.fixture
def tree_fixture() -> SimplicialComplex:
    return get_fixture("triangle-tree").complex


@pytest.fixture
def star_fixture() -> SimplicialComplex:
    return get_fixture("star").complex


@pytest.fixture
def square_fixture() -> SimplicialComplex:
    return get_fixture("square").complex


def built_anew(cx: SimplicialComplex) -> SimplicialComplex:
    """An equal complex that shares none of the data worked out from cx,
    which is kept on cx itself."""
    return SimplicialComplex(cx.n, cx.facets)


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
    rng: random.Random, max_m: int = 6, *, d: int | None = None, m: int | None = None
) -> SimplicialComplex:
    """Attach each new facet along a (d-1)-face of an old one plus a brand
    new vertex: strongly connected, quasi-tree, minimal multiplicity.
    Facets have d vertices (2 or 3 when not given) and there are m of
    them (2..max_m when not given)."""
    d = rng.randint(2, 3) if d is None else d
    target_m = rng.randint(2, max_m) if m is None else m
    facets = [tuple(range(1, d + 1))]
    next_vertex = d + 1
    for _ in range(target_m - 1):
        base = rng.choice(facets)
        shared = rng.sample(base, d - 1)
        facets.append(tuple(sorted(shared + [next_vertex])))
        next_vertex += 1
    return SimplicialComplex.from_facets(next_vertex - 1, facets)


def random_ridge_tree(rng: random.Random, d: int, m: int) -> tuple[SimplicialComplex, bool]:
    """Add facets one at a time, each a ridge plus one vertex: the ridge
    taken from an old facet or drawn from the vertices so far and a few
    new ones, the vertex new or reused.  A facet is kept when the old
    facets sharing a ridge with it lie in distinct components, so the
    facet graph stays a forest.  Returns the first such complex with m
    facets and a connected facet graph, a tree that need not have been
    grown along a leaf order, and whether some facet after the first
    brought no new vertex."""
    while True:
        facets: list[frozenset[int]] = []
        component: list[int] = []
        n, reused = 0, False
        for _ in range(20 * m):
            if len(facets) == m:
                break
            if facets and rng.random() < 0.7:
                ridge = set(rng.choice(facets))
                ridge.discard(rng.choice(sorted(ridge)))
            else:
                ridge = set(rng.sample(range(1, n + d), d - 1))
            old = [v for v in range(1, n + 1) if v not in ridge]
            vertex = rng.choice(old) if old and rng.random() < 0.6 else max(ridge | {n}) + 1
            new = frozenset(ridge | {vertex})
            touched = [component[k] for k, f in enumerate(facets) if len(new & f) == d - 1]
            if new in facets or len(set(touched)) < len(touched):
                continue
            component = [len(facets) if c in touched else c for c in component] + [len(facets)]
            reused |= bool(facets) and max(new) <= n
            facets.append(new)
            n = max(n, max(new))
        if len(facets) == m and len(set(component)) == 1:
            labels = {v: k for k, v in enumerate(sorted(set().union(*facets)), start=1)}
            cx = SimplicialComplex.from_facets(
                len(labels), [sorted(labels[v] for v in f) for f in facets]
            )
            return cx, reused


def random_tree_satisfying(
    rng: random.Random, cx: SimplicialComplex, max_exp: int, orientations=None
) -> MultiplicityAssignment:
    """Draw values non-increasing away from the root in every vertex
    graph, or, when given, along orientations[i - 1]: the rooted edges
    of another tree's restriction to vertex i (a relation tree's)."""
    from cmlab.graphs import root_orientation, vertex_graph

    values: dict[tuple[int, int], int] = {}
    for i in sorted(cx.vertices):
        chosen: dict[int, int] = {}
        edges = (
            root_orientation(vertex_graph(cx, i), ROOT)
            if orientations is None
            else orientations[i - 1]
        )
        for parent, child in edges:
            cap = max_exp if parent == ROOT else chosen[parent]
            chosen[child] = rng.randint(1, cap)
        for j, v in chosen.items():
            values[(j, i)] = v
    domain = [(j, i) for j, i, _ in MultiplicityAssignment.constant(cx).entries]
    return MultiplicityAssignment(
        cx, tuple((j, i, values.get((j, i), 1)) for j, i in domain)
    )


def restrict_relation_tree(
    cx: SimplicialComplex, tree: FacetLevelGraph, i: int
) -> FacetLevelGraph:
    """Reference restriction of a tree on the facets to vertex i: the
    formal root plus the facets omitting i, the tree's edges among them,
    and a root edge to each one tree-adjacent to a facet containing i."""
    kept = {j for j, f in enumerate(cx.facets, start=1) if i not in f}
    edges = [(a, b) for a, b in tree.edges if a in kept and b in kept]
    edges += [(ROOT, j) for j in kept if any(k not in kept for k in tree.neighbors(j))]
    return FacetLevelGraph((ROOT, *kept), tuple(edges))


def leaf_branches_reference(facets: tuple[tuple[int, ...], ...], idx: int) -> tuple[int, ...]:
    """Reference leaf test on Python sets: the 0-based indices g such
    that facets[g] absorbs every intersection with facets[idx]; non-empty
    exactly when facets[idx] is a leaf of a multi-facet collection."""
    f = set(facets[idx])
    others = [(g, set(facets[g]) & f) for g in range(len(facets)) if g != idx]
    return tuple(g for g, cap in others if all(other <= cap for _, other in others))


def canonical_facets_reference(raw) -> tuple[tuple[int, ...], ...]:
    """Reference facet canonicalization on Python sets: the distinct
    faces not strictly inside another, sorted; quadratic in the faces."""
    faces = {tuple(sorted(set(f))) for f in raw}
    facets = [f for f in faces if not any(set(f) < set(g) for g in faces)]
    return tuple(sorted(facets))


def prufer_trees_reference(nodes: list[int]) -> list[tuple[tuple[int, int], ...]]:
    """Reference Pruefer decoding, quadratic per tree: for each code over
    the ascending nodes, in product order, the (leaf, neighbour) pairs
    from joining the lowest leaf to each code entry and then to the last
    node."""
    trees = []
    for code in product(nodes, repeat=len(nodes) - 2):
        degree = {v: code.count(v) + 1 for v in nodes}
        edges = []
        for x in code + (nodes[-1],):
            leaf = next(v for v in nodes if degree[v] == 1)
            edges.append((leaf, x))
            degree[leaf] = 0
            degree[x] -= 1
        trees.append(tuple(edges))
    return trees


def relation_trees_reference(cx: SimplicialComplex) -> tuple[FacetLevelGraph, ...]:
    """Reference relation trees: every tree obtainable by recursive leaf
    removal with branch choice, deduplicated by edge set and sorted by
    edges, with the gate and messages of graphs.relation_trees.
    Memoized on the remaining facets; recursive, so for small complexes
    only."""
    from cmlab.errors import NotQuasiTree
    from cmlab.graphs import facet_graph

    if not cx.is_pure or not facet_graph(cx).is_connected():
        raise NotQuasiTree("relation trees need a pure, strongly connected complex")
    memo: dict[frozenset[int], frozenset[frozenset[tuple[int, int]]]] = {}

    def grow(present: frozenset[int]) -> frozenset[frozenset[tuple[int, int]]]:
        if present in memo:
            return memo[present]
        if len(present) == 1:
            memo[present] = frozenset({frozenset()})
            return memo[present]
        back = sorted(present)
        sub = tuple(cx.facets[j] for j in back)
        out: set[frozenset[tuple[int, int]]] = set()
        for pos, j in enumerate(back):
            branches = leaf_branches_reference(sub, pos)
            if not branches:
                continue
            rest = grow(present - {j})
            if not rest:
                # Removing a leaf leaves a quasi-forest, so no leaf
                # order can start here if none starts after removing j.
                out.clear()
                break
            for g in branches:
                edge = (min(j, back[g]) + 1, max(j, back[g]) + 1)
                out.update(t | {edge} for t in rest)
        memo[present] = frozenset(out)
        return memo[present]

    trees = grow(frozenset(range(cx.m)))
    if not trees:
        raise NotQuasiTree("no leaf order exists")
    nodes = tuple(range(1, cx.m + 1))
    built = [FacetLevelGraph(nodes, tuple(t)) for t in trees]
    return tuple(sorted(built, key=lambda g: g.edges))


def random_attach_quasitree(rng: random.Random, profile) -> SimplicialComplex:
    """Triangles glued along edges: for each k in profile, an edge that
    only one earlier triangle holds receives k-1 new triangles, each with
    one new vertex.  The facet graph is a tree of cliques of sizes k, so
    there are prod(k^(k-2)) relation trees."""
    facets = [(1, 2, 3)]
    n = 3
    for k in profile:
        free = [
            r
            for f in facets
            for r in combinations(f, 2)
            if sum(1 for g in facets if set(r) <= set(g)) == 1
        ]
        ridge = rng.choice(free)
        for _ in range(k - 1):
            n += 1
            facets.append(ridge + (n,))
    labels = rng.sample(range(1, n + 1), n)
    return SimplicialComplex.from_facets(n, [[labels[v - 1] for v in f] for f in facets])


def book_chain(t: int, extra: int) -> SimplicialComplex:
    """Triangles {s, s+1, s+2} for s = 1..t, plus extra triangles on each
    ridge two of them share: a quasi-tree whose t-1 ridge cliques hold
    extra+2 facets each."""
    facets = [(s, s + 1, s + 2) for s in range(1, t + 1)]
    n = t + 2
    for s in range(2, t + 1):
        for _ in range(extra):
            n += 1
            facets.append((s, s + 1, n))
    return SimplicialComplex.from_facets(n, facets)


def cross_polytope(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope: one vertex of each
    antipodal pair (2k - 1, 2k) per facet."""
    return SimplicialComplex.from_facets(
        2 * d, list(product(*[(2 * k + 1, 2 * k + 2) for k in range(d)]))
    )


def octahedra_wedge() -> SimplicialComplex:
    """Two octahedra glued at vertex 1: pure, not Cohen-Macaulay."""
    octahedron = cross_polytope(3).facets
    return SimplicialComplex.from_facets(
        11, octahedron + tuple(tuple(1 if v == 1 else v + 5 for v in f) for f in octahedron)
    )


def stacked_path(m: int, d: int) -> SimplicialComplex:
    """The facets {k, ..., k + d - 1} for k = 1..m: m simplices of d
    vertices, each meeting the next in a ridge."""
    return SimplicialComplex.from_facets(m + d - 1, [range(k, k + d) for k in range(1, m + 1)])


def random_spanning_tree(rng: random.Random, g: FacetLevelGraph) -> FacetLevelGraph:
    """A spanning tree of the connected graph g, grown from a random node
    along randomly chosen frontier edges."""
    start = rng.choice(g.nodes)
    seen = {start}
    edges = []
    frontier = [(start, k) for k in g.neighbors(start)]
    while frontier:
        a, b = frontier.pop(rng.randrange(len(frontier)))
        if b not in seen:
            seen.add(b)
            edges.append((a, b))
            frontier += [(b, k) for k in g.neighbors(b)]
    return FacetLevelGraph(g.nodes, edges)


@lru_cache(maxsize=8)
def clique_masks_reference(cx: SimplicialComplex):
    """Per ridge clique, every tree of clique_trees with the mask of the
    oriented edges (parent, i) -> (child, i), as pair-id pairs, that it
    puts into the vertex restrictions of a relation tree; and the
    clique's edges, bit b standing for edge b.  A clique-tree edge p-c
    orients the restriction to a vertex i in neither facet as p -> c when
    no facet containing i hangs on c's side, else c -> p.  Raises as the
    criterion does: outside the quasi-tree gate, or at a vertex in no
    facet."""
    from cmlab.complexes import _facet_masks, _pair_id
    from cmlab.errors import RestrictionNotTree
    from cmlab.graphs import clique_trees, facet_graph, rooted_walk

    cliques = clique_trees(cx)
    _, containing = _facet_masks(cx)
    uncovered = [i for i in range(1, cx.n + 1) if not containing[i]]
    if uncovered:
        raise RestrictionNotTree(f"restriction to vertex {uncovered[0]} is not a tree")
    walk, _ = rooted_walk(facet_graph(cx).adjacency, range(2, cx.m + 1), 1)
    parent = {c: p for p, c in walk}
    below = {j: 1 << (j - 1) for j in range(1, cx.m + 1)}
    for p, c in reversed(walk):
        below[p] |= below[c]
    out = []
    for trees in cliques:
        # hang[j]: the facets left with j when the clique's edges go
        nodes = {j for edge in trees[0] for j in edge}
        hang = {j: below[j] if parent.get(j) in nodes else below[1] for j in nodes}
        for k in nodes:
            if parent.get(k) in nodes:
                hang[parent[k]] &= ~below[k]
        bits: dict[tuple[int, int], int] = {}
        masks = []
        for tree in trees:
            side, mask = dict(hang), 0
            for c, p in tree:
                ends = 1 << (p - 1) | 1 << (c - 1)
                for i in range(1, cx.n + 1):
                    held = containing[i]
                    if not held & ends:
                        a, b = _pair_id(cx, p, i), _pair_id(cx, c, i)
                        edge = (b, a) if held & side[c] else (a, b)
                        mask |= 1 << bits.setdefault(edge, len(bits))
                side[p] |= side[c]
            masks.append(mask)
        out.append((trees, tuple(masks), tuple(bits)))
    return tuple(out)


def quasitree_reference(mult: MultiplicityAssignment):
    """The quasi-tree criterion by a scan of every clique tree: each
    ridge clique takes its first tree, in clique_trees' order, whose mask
    misses the edges along which the table grows.  Returns whether every
    clique has one, and the edges of the union of those trees (or None)."""
    get = mult._pair_values().get
    chosen: list[tuple[int, int]] = []
    for trees, masks, edges in clique_masks_reference(mult.complex):
        grown = sum(1 << b for b, (p, c) in enumerate(edges) if get(p, 1) < get(c, 1))
        tree = next((t for t, mask in zip(trees, masks) if not mask & grown), None)
        if tree is None:
            return False, None
        chosen += tree
    return True, FacetLevelGraph(range(1, mult.complex.m + 1), chosen).edges


def tree_criterion_reference(mult: MultiplicityAssignment, field: FieldSpec):
    """The tree criterion read off clique_masks_reference: after the
    tree-case hypotheses every ridge clique is one facet-graph edge, whose
    one tree's mask lists its oriented edges (p, i) -> (c, i), and the
    table grows along one when the value at (p, i) is below the one at
    (c, i).  Returns whether nothing grows and the violations, by vertex
    and then in the order of the vertex's rooted walk.  Raises as the
    criterion does."""
    from cmlab.complexes import _pair_id
    from cmlab.graphs import facet_graph, require_tree_case

    cx = mult.complex
    require_tree_case(cx, field)
    s, get = _pair_id(cx, 1, 0), mult._pair_values().get
    by_child = {}
    for trees, masks, edges in clique_masks_reference(cx):
        assert len(trees) == 1 and masks[0] == (1 << len(edges)) - 1
        for p, c in edges:
            a, b = get(p, 1), get(c, 1)
            if a < b:
                (h, i), k = divmod(p, s), c // s
                by_child[i, k] = (i, (h, k), (a, b))
    walks = next(restriction_edges_reference(cx, [facet_graph(cx)])) if by_child else ()
    violations = tuple(by_child[i, k] for i, _, k in walks if (i, k) in by_child)
    return not violations, violations


@cache
def perfbench_inputs():
    """The benchmark's known-answer generators, perfbench/inputs.py,
    loaded without writing bytecode into perfbench/."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def table_of_problem(doc: dict) -> MultiplicityAssignment:
    """The table of a problem-file dict whose facets are canonical."""
    cx = SimplicialComplex.from_facets(doc["n"], doc["facets"])
    overrides = {(a["facet"], a["vertex"]): a["value"] for a in doc.get("alpha", ())}
    return MultiplicityAssignment.from_overrides(cx, overrides)


def random_sparse_assignment(
    rng: random.Random, cx: SimplicialComplex, max_exp: int, most: int = 3
) -> MultiplicityAssignment:
    """Value 1 at all but 1..most random pairs, which take 2..max_exp."""
    domain = [(j, i) for j, i, _ in MultiplicityAssignment.constant(cx).entries]
    raised = rng.sample(domain, min(len(domain), rng.randint(1, most)))
    return MultiplicityAssignment.from_overrides(
        cx, {pair: rng.randint(2, max_exp) for pair in raised}
    )


def restriction_edges_reference(
    cx: SimplicialComplex, trees
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """For each tree on the facets, the directed edges (vertex i, parent,
    child) of its restriction to the facets omitting i, vertex by vertex
    in rooted_walk's order: the formal root is joined to each kept facet
    that is tree-adjacent to a facet containing i, and root edges are
    included.  Raises when some restriction is not a tree."""
    from cmlab.errors import RestrictionNotTree
    from cmlab.graphs import rooted_walk

    omitting = [
        (i, {j for j, f in enumerate(cx.facets, start=1) if i not in f})
        for i in range(1, cx.n + 1)
    ]
    for tree in trees:
        edges: list[tuple[int, int, int]] = []
        for i, kept in omitting:
            directed, ok = rooted_walk(tree.adjacency, kept, ROOT)
            if not ok:
                raise RestrictionNotTree(f"restriction to vertex {i} is not a tree")
            edges += [(i, h, k) for h, k in directed]
        yield tuple(edges)


def restriction_edge_sets(
    cx: SimplicialComplex, trees
) -> list[frozenset[tuple[int, int, int]]]:
    """Per tree, the oriented facet-facet edges (vertex, parent, child)
    of its vertex restrictions, read off restriction_edges_reference."""
    return [
        frozenset(e for e in edges if e[1] != ROOT)
        for edges in restriction_edges_reference(cx, trees)
    ]


def parent_maps_reference(cx: SimplicialComplex) -> dict[int, dict[int, int]]:
    """Per vertex, each facet's parent in the rooted vertex graph."""
    from cmlab.graphs import facet_graph

    parents: dict[int, dict[int, int]] = {i: {} for i in range(1, cx.n + 1)}
    for i, parent, child in next(restriction_edges_reference(cx, [facet_graph(cx)])):
        parents[i][child] = parent
    return parents


def check_cm_uniform_block_reference(
    cx: SimplicialComplex, block_vertices, block_facets, levels, field: FieldSpec
) -> bool:
    """The uniform-block criterion on induced vertex graphs, with the
    gates and messages of satisfying.check_cm_uniform_block: per block
    vertex, the vertex graph induced on the root plus the block facets
    missing that vertex must be a tree."""
    from cmlab.errors import FacetIndexOutOfRange, HypothesesViolated, VertexOutOfRange
    from cmlab.graphs import is_tree, vertex_graph
    from cmlab.structure import require_tree_case

    require_tree_case(cx, field)
    vs = sorted(set(block_vertices))
    fs = sorted(set(block_facets))
    for i in vs:
        if not 1 <= i <= cx.n:
            raise VertexOutOfRange(f"vertex {i} not in 1..{cx.n}")
    for j in fs:
        if not 1 <= j <= cx.m:
            raise FacetIndexOutOfRange(f"facet index {j} not in 1..{cx.m}")
    if set(levels) != set(vs):
        raise HypothesesViolated("levels must be keyed exactly by the block vertices")
    for i, a in levels.items():
        if not isinstance(a, int) or isinstance(a, bool) or a < 2:
            raise HypothesesViolated(f"level for vertex {i} must be an integer >= 2")
    for i in vs:
        g = vertex_graph(cx, i)
        keep = {ROOT} | {j for j in fs if j in g.nodes}
        induced = FacetLevelGraph(
            tuple(keep),
            tuple((a, b) for a, b in g.edges if a in keep and b in keep),
        )
        if not is_tree(induced):
            return False
    return True


def decompose_into_generators_reference(mult: MultiplicityAssignment):
    """The decomposition by level sets with an ancestor check on each:
    None when some level set is not ancestor-closed in its vertex's
    rooted vertex graph."""
    from cmlab.complexes import ExponentOffset
    from cmlab.homology import RATIONALS
    from cmlab.structure import require_tree_case

    cx = mult.complex
    require_tree_case(cx, RATIONALS)
    parents = parent_maps_reference(cx)
    parts = []
    for i in range(1, cx.n + 1):
        values = dict(mult.vertex_values(i))
        if not values:
            continue
        parent = parents[i]
        for level in range(1, max(values.values())):
            chosen = {j for j, v in values.items() if v - 1 >= level}
            if not all(parent[j] in chosen or parent[j] == ROOT for j in chosen):
                return None
            parts.append(ExponentOffset.indicator(cx, i, chosen))
    return tuple(parts)


def general_satisfying_reference(mult: MultiplicityAssignment) -> bool:
    """The shelling condition as defined: the complex must be shellable,
    and per vertex with values some shelling lists the facets containing
    it first and the rest with non-increasing values."""
    from cmlab.errors import NotShellable
    from cmlab.structure import find_shelling

    cx = mult.complex
    if find_shelling(cx) is None:
        raise NotShellable("complex is not shellable")
    for i in range(1, cx.n + 1):
        weights = dict(mult.vertex_values(i))
        if weights and find_shelling(cx, prefix_vertex=i, weights=weights) is None:
            return False
    return True


def random_pure_complex(rng: random.Random, max_n: int = 7, max_m: int = 7) -> SimplicialComplex:
    """At least two distinct random facets of one size d in 1..3 on
    1..n, often not strongly connected or shellable; vertices in no
    facet are left uncovered."""
    d = rng.choice((1, 2, 3, 3))
    n = rng.randint(d + 1, max_n)
    pool = [tuple(f) for f in combinations(range(1, n + 1), d)]
    return SimplicialComplex(n, rng.sample(pool, rng.randint(2, min(max_m, len(pool)))))


def step_ok_reference(new: set[int], previous: list[set[int]]) -> bool:
    """Reference shelling step: the inclusion-maximal intersections of
    the new facet with earlier ones must all be its maximal proper faces."""
    caps = [p & new for p in previous]
    return all(
        len(c) == len(new) - 1
        for c in caps
        if not any(c < other for other in caps)
    )


def is_shelling_reference(cx: SimplicialComplex, order) -> bool:
    placed: list[set[int]] = []
    for j in order:
        new = set(cx.facets[j - 1])
        if placed and not step_ok_reference(new, placed):
            return False
        placed.append(new)
    return True


def find_shelling_reference(
    cx: SimplicialComplex, *, prefix_vertex=None, weights=None
) -> tuple[int, ...] | None:
    """Reference backtracking shelling search on vertex sets, facets
    tried in ascending index, with the prefix and weight rules of
    structure.find_shelling; recursive, so for small complexes only."""
    m = cx.m
    if m == 0:
        return ()
    sets = [set(f) for f in cx.facets]
    if prefix_vertex is not None:
        containing = frozenset(
            j for j in range(1, m + 1) if prefix_vertex in sets[j - 1]
        )
    else:
        containing = frozenset()

    def allowed(used: frozenset[int]) -> list[int]:
        unused = [j for j in range(1, m + 1) if j not in used]
        if prefix_vertex is None:
            return unused
        first = [j for j in unused if j in containing]
        if first:
            return first
        if weights:
            top = max(weights[j] for j in unused)
            return [j for j in unused if weights[j] == top]
        return unused

    order: list[int] = []
    dead: set[frozenset[int]] = set()

    def search(used: frozenset[int]) -> bool:
        if len(used) == m:
            return True
        if used in dead:
            return False
        for j in allowed(used):
            if not used or step_ok_reference(sets[j - 1], [sets[t - 1] for t in used]):
                order.append(j)
                if search(used | {j}):
                    return True
                order.pop()
        dead.add(used)
        return False

    return tuple(order) if search(frozenset()) else None


def shelling_reference(cx: SimplicialComplex, tiers: list[int]) -> tuple[int, ...] | None:
    """Reference tiered shelling search: one depth-first search on one
    explicit stack over all tiers at once, prefixes kept as facet masks
    and remembered when dead, facets tried in ascending index; the first
    shelling placing every facet of each tier before any of a later one,
    or None.  It backtracks across tier boundaries, which
    structure._shelling never needs to do."""
    from cmlab.errors import NotPure
    from cmlab.structure import _extends, _ridge_masks

    if not cx.is_pure:
        raise NotPure("shellings are defined for pure complexes here")
    m = cx.m
    if m == 0:
        return ()
    neighbours, ridges = _ridge_masks(cx)
    full = (1 << m) - 1

    def allowed(used: int) -> int:
        for tier in tiers:
            if tier & ~used:
                return tier & ~used
        return 0

    order: list[int] = []
    dead: set[int] = set()
    stack = [[0, 0, allowed(0)]]
    while stack:
        node = stack[-1]
        used, reach, untried = node
        while untried:
            low = untried & -untried
            untried ^= low
            j = low.bit_length() - 1
            if not used or _extends(ridges[j], used):
                break
        else:
            dead.add(used)
            stack.pop()
            if order:
                order.pop()
            continue
        node[2] = untried
        order.append(j + 1)
        grown = used | low
        if grown == full:
            return tuple(order)
        if grown in dead:
            order.pop()
            continue
        reach |= neighbours[j]
        stack.append([grown, reach, allowed(grown) & reach])
    return None


def oracle_reference(mult: MultiplicityAssignment, field: FieldSpec) -> tuple[bool, tuple[int, ...] | None]:
    """Reference threshold-grid walk: per coordinate the grid {0} union
    {table values} ascending, each value narrowing the alive facets by a
    loop over the cuts, memoized on (coordinate, alive mask), every leaf
    decided by is_cm_complex.  Returns (is Cohen-Macaulay, lex-least
    failing threshold vector or None); recursive, so for small n only."""
    from cmlab.homology import is_cm_complex

    cx = mult.complex
    grids: list[tuple[int, ...]] = []
    cut: list[list[tuple[int, int]]] = []
    for i in range(1, cx.n + 1):
        values = [(j, v) for j, i2, v in mult.entries if i2 == i]
        grids.append(tuple(sorted({0} | {v for _, v in values})))
        cut.append([(j - 1, v) for j, v in values])
    memo: dict[tuple[int, int], tuple[int, ...] | None] = {}

    def suffix(t: int, alive: int) -> tuple[int, ...] | None:
        key = (t, alive)
        if key in memo:
            return memo[key]
        if t == cx.n:
            surviving = tuple(f for j, f in enumerate(cx.facets) if alive >> j & 1)
            memo[key] = None if is_cm_complex(SimplicialComplex(cx.n, surviving), field) else ()
            return memo[key]
        for a in grids[t]:
            narrowed = alive
            for j0, v in cut[t]:
                if a >= v:
                    narrowed &= ~(1 << j0)
            rest = suffix(t + 1, narrowed)
            if rest is not None:
                memo[key] = (a,) + rest
                return memo[key]
        memo[key] = None
        return None

    witness = suffix(0, (1 << cx.m) - 1)
    return witness is None, witness


def exact_matrix(field: FieldSpec, ncols: int, dense) -> ExactMatrix:
    """The ExactMatrix with these dense integer rows of length ncols."""
    assert all(len(r) == ncols for r in dense)
    rows = tuple(tuple((c, x) for c, x in enumerate(r) if x) for r in dense)
    return ExactMatrix(field, ncols, rows)


def dense_entries(mx: ExactMatrix) -> list[list[int]]:
    """The rows of mx with every zero written out."""
    dense = [[0] * mx.ncols for _ in mx.rows]
    for r, row in enumerate(mx.rows):
        for c, x in row:
            dense[r][c] = x
    return dense


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    assert a.field == b.field and a.ncols == b.nrows
    da, db = dense_entries(a), dense_entries(b)
    product = [
        [sum(da[r][k] * db[k][c] for k in range(a.ncols)) for c in range(b.ncols)]
        for r in range(a.nrows)
    ]
    return exact_matrix(a.field, b.ncols, product)


def is_zero(mx: ExactMatrix) -> bool:
    p = mx.field.characteristic
    return all(x % p == 0 if p else x == 0 for row in mx.rows for _, x in row)


def strongly_connected_by_bfs(cx: SimplicialComplex) -> bool:
    """Reference strong connectivity of a pure complex: any two facets
    are joined by a chain of facets with consecutive intersections of
    size dim, found by a search over all facet pairs."""
    d = cx.dim
    sets = [set(f) for f in cx.facets]
    seen = {0}
    queue = [0]
    while queue:
        a = queue.pop()
        for b in range(cx.m):
            if b not in seen and len(sets[a] & sets[b]) == d:
                seen.add(b)
                queue.append(b)
    return len(seen) == cx.m


def random_complex(
    rng: random.Random, n: int, max_size: int, cone: int = 0
) -> SimplicialComplex:
    """Random facets of sizes 1..max_size on 1..n, usually not pure, each
    joined with the apex vertices n+1..n+cone; vertices in no facet are
    left uncovered."""
    facets = [
        rng.sample(range(1, n + 1), rng.randint(1, max_size))
        for _ in range(rng.randint(1, 5))
    ]
    apex = list(range(n + 1, n + cone + 1))
    return SimplicialComplex(n + cone, tuple(tuple(f + apex) for f in facets))


def dense_rank(field: FieldSpec, entries) -> int:
    """Reference rank of an integer matrix by dense Gaussian elimination,
    over Fraction in characteristic 0 and over residues mod p otherwise."""
    p = field.characteristic
    if p:
        rows = [[x % p for x in r] for r in entries]
    else:
        rows = [[Fraction(x) for x in r] for r in entries]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        inv = pow(lead, p - 2, p) if p else 1 / lead
        for r in range(rank + 1, nrows):
            factor = rows[r][col] * inv
            if factor == 0:
                continue
            if p:
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
            else:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def dense_boundary(cx: SimplicialComplex, q: int) -> list[list[int]]:
    """Reference q-th boundary map as dense rows: (q-1)-faces by q-faces,
    both in all_faces() order."""
    faces = cx.all_faces()
    cols = [f for f in faces if len(f) == q + 1]
    index = {f: r for r, f in enumerate(f for f in faces if len(f) == q)}
    entries = [[0] * len(cols) for _ in index]
    for c, face in enumerate(cols):
        for k in range(len(face)):
            entries[index[face[:k] + face[k + 1 :]]][c] = (-1) ** k
    return entries


def dense_homology_ranks(cx: SimplicialComplex, field: FieldSpec) -> tuple[int, ...]:
    """Reference reduced homology ranks in dimensions -1..dim."""
    counts = [sum(1 for f in cx.all_faces() if len(f) == q + 1) for q in range(-1, cx.dim + 1)]
    ranks = [dense_rank(field, dense_boundary(cx, q)) for q in range(-1, cx.dim + 1)]
    ranks.append(0)
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(len(counts)))


def unpruned_is_cm(cx: SimplicialComplex, field: FieldSpec) -> bool:
    """Reference Reisner check: every face's link, no pruning."""
    if cx.is_void or cx.is_irrelevant:
        return True
    return all(_acyclic_below_top(cx.link(face), field) for face in cx.all_faces())


@cache
def _acyclic_below_top(link: SimplicialComplex, field: FieldSpec) -> bool:
    """Whether the complex has no reduced homology below its top
    dimension; equal links, which the package works out anew per
    complex, share one answer across the references' calls."""
    return not any(reduced_homology_ranks(link, field)[:-1])


def reference_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def reference_minimalize(gens) -> tuple[tuple[int, ...], ...]:
    """Minimal generators by pairwise divisibility, in display order
    (descending lex)."""
    kept: list[tuple[int, ...]] = []
    for g in sorted(set(gens), key=sum):
        if not any(reference_divides(d, g) for d in kept):
            kept.append(g)
    return tuple(sorted(kept, key=lambda g: tuple(-e for e in g)))


def reference_intersect(a, b) -> tuple[tuple[int, ...], ...]:
    """Minimal generators of the intersection of the ideals generated by
    a and b: every pairwise lcm, then minimalized."""
    return reference_minimalize(
        tuple(max(x, y) for x, y in zip(g, h)) for g in a for h in b
    )


def splitting_witness_reference(
    mult: MultiplicityAssignment, order: tuple[int, ...]
) -> tuple[int, int] | None:
    """The splitting check by folded ideal arithmetic: intersect every
    earlier component, add the last one, and compare with the candidate
    power plus the last component.  The order must be a shelling whose
    last facet has one neighbor in the facet graph."""
    from cmlab.graphs import facet_graph
    from cmlab.ideals import MonomialIdeal, irreducible_component

    cx = mult.complex
    last = order[-1]
    (against,) = facet_graph(cx).neighbors(last)
    (i,) = set(cx.facets[last - 1]) - set(cx.facets[against - 1])
    s = mult.value(against, i)
    q_last = irreducible_component(mult, last)
    inter = MonomialIdeal.unit(cx.n)
    for j in order[:-1]:
        inter = inter.intersect(irreducible_component(mult, j))
    power = MonomialIdeal(cx.n, (tuple(s if k == i else 0 for k in range(1, cx.n + 1)),))
    return (i, s) if inter + q_last == power + q_last else None
