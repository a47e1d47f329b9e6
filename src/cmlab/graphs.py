"""Graphs whose nodes are facets: the adjacency graph of a pure
complex, its per-vertex variants with a formal root, the rooted
breadth-first walk behind every traversal and vertex restriction, and
relation trees of quasi-trees.

Nodes are 1-based facet indices into the complex's canonical facet
list; node 0 is reserved for the formal root of per-vertex graphs.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Collection, Iterable, Iterator, Mapping

from .complexes import Frozen, SimplicialComplex, leaf_branches
from .errors import (
    FacetIndexOutOfRange,
    HypothesesViolated,
    NotATree,
    NotPure,
    NotQuasiTree,
    RestrictionNotTree,
    RootNotFound,
    VertexOutOfRange,
)

__all__ = [
    "FacetLevelGraph",
    "facet_graph",
    "vertex_graph",
    "is_tree",
    "root_orientation",
    "rooted_walk",
    "restriction_edges",
    "relation_trees",
]

ROOT = 0


def _canonical_edges(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(min(a, b), max(a, b)) for a, b in edges}))


class FacetLevelGraph(Frozen):
    """Undirected graph on facet indices, optionally with the formal
    root node 0.  adjacency maps each node to its sorted neighbours."""

    __slots__ = ("nodes", "edges", "adjacency")
    _fields = ("nodes", "edges")
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    adjacency: dict[int, tuple[int, ...]]

    def __init__(self, nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> None:
        self._freeze(tuple(sorted(set(nodes))), _canonical_edges(edges))
        adjacency: dict[int, list[int]] = {node: [] for node in self.nodes}
        for a, b in self.edges:
            if a == b:
                raise HypothesesViolated(f"self-loop at node {a} is not allowed")
            if a not in adjacency or b not in adjacency:
                raise FacetIndexOutOfRange(f"edge {a}-{b} has an endpoint missing from nodes")
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(
            self, "adjacency", {node: tuple(sorted(nbs)) for node, nbs in adjacency.items()}
        )

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self.adjacency.get(node, ())

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    def is_connected(self) -> bool:
        if not self.nodes:
            return False
        edges, _ = rooted_walk(self.adjacency, set(self.nodes[1:]), self.nodes[0])
        return len(edges) == len(self.nodes) - 1


def rooted_walk(
    adjacency: Mapping[int, tuple[int, ...]], kept: Collection[int], root: int
) -> tuple[tuple[tuple[int, int], ...], bool]:
    """Breadth-first walk over the nodes in kept (every one a key of
    adjacency) away from root, which is joined to each kept node with a
    neighbour outside kept.  Start nodes and neighbours are visited in
    ascending order.  Returns the directed (parent, child) edges in
    visiting order, and whether root plus kept form a tree."""
    start = [j for j in sorted(kept) if any(k not in kept for k in adjacency[j])]
    directed = [(root, j) for j in start]
    seen = set(start)
    queue = deque(start)
    while queue:
        h = queue.popleft()
        for k in adjacency[h]:
            if k in kept and k not in seen:
                seen.add(k)
                directed.append((h, k))
                queue.append(k)
    inner = sum(1 for j in kept for k in adjacency[j] if k in kept) // 2
    return tuple(directed), len(directed) == len(kept) == len(start) + inner


def is_tree(g: FacetLevelGraph) -> bool:
    return bool(g.nodes) and len(g.edges) == len(g.nodes) - 1 and g.is_connected()


def root_orientation(g: FacetLevelGraph, root: int) -> tuple[tuple[int, int], ...]:
    """The tree's edges directed away from root, in breadth-first order
    with neighbours ascending."""
    if root not in g.adjacency:
        raise RootNotFound(f"node {root} is not in the graph")
    directed, tree = rooted_walk(g.adjacency, set(g.nodes) - {root}, root)
    if not tree:
        raise NotATree("orientation requires a tree")
    return directed


@lru_cache(maxsize=256)
def facet_graph(cx: SimplicialComplex) -> FacetLevelGraph:
    """Nodes 1..m; an edge joins two facets meeting in size dim."""
    if not cx.is_pure:
        raise NotPure("the facet graph requires a pure complex")
    d = cx.dim
    sets = [set(f) for f in cx.facets]
    edges = [
        (a + 1, b + 1)
        for a in range(cx.m)
        for b in range(a + 1, cx.m)
        if len(sets[a] & sets[b]) == d
    ]
    return FacetLevelGraph(tuple(range(1, cx.m + 1)), tuple(edges))


@lru_cache(maxsize=1024)
def vertex_graph(cx: SimplicialComplex, i: int) -> FacetLevelGraph:
    """The formal root 0 plus every facet omitting vertex i; facet-facet
    edges are inherited, and a root edge marks adjacency to some facet
    that contains the vertex.

    When every facet contains the vertex the graph is just the root.
    """
    if not 1 <= i <= cx.n:
        raise VertexOutOfRange(f"vertex {i} not in 1..{cx.n}")
    base = facet_graph(cx)
    kept = {j for j, f in enumerate(cx.facets, start=1) if i not in f}
    edges = [(a, b) for a, b in base.edges if a in kept and b in kept]
    edges += [(ROOT, j) for j in kept if any(k not in kept for k in base.neighbors(j))]
    return FacetLevelGraph((ROOT, *kept), tuple(edges))


def restriction_edges(
    cx: SimplicialComplex, trees: Iterable[FacetLevelGraph]
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """For each tree on the facets, the directed edges (vertex i, parent,
    child) of its restriction to the facets omitting i, vertex by vertex
    in rooted_walk's order: the formal root is joined to each kept facet
    that is tree-adjacent to a facet containing i, and root edges are
    included.  Raises when some restriction is not a tree."""
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


@lru_cache(maxsize=32)
def relation_trees(cx: SimplicialComplex) -> tuple[FacetLevelGraph, ...]:
    """All trees obtainable by recursive leaf removal with branch
    choice, deduplicated by edge set and canonically sorted.

    Restricted to strongly connected quasi-trees so that each result is
    a spanning tree of the facet graph; anything else is rejected.
    """
    if not cx.is_pure or not facet_graph(cx).is_connected():
        raise NotQuasiTree("relation trees need a pure, strongly connected complex")
    all_indices = frozenset(range(cx.m))
    memo: dict[frozenset[int], frozenset[frozenset[tuple[int, int]]]] = {}

    def grow(present: frozenset[int]) -> frozenset[frozenset[tuple[int, int]]]:
        if present in memo:
            return memo[present]
        if len(present) == 1:
            result = frozenset({frozenset()})
            memo[present] = result
            return result
        sub = tuple(cx.facets[j] for j in sorted(present))
        back = sorted(present)
        out: set[frozenset[tuple[int, int]]] = set()
        for pos, j in enumerate(back):
            branches = leaf_branches(sub, pos)
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
        result = frozenset(out)
        memo[present] = result
        return result

    trees = grow(all_indices)
    if not trees:
        raise NotQuasiTree("no leaf order exists")
    nodes = tuple(range(1, cx.m + 1))
    built = [FacetLevelGraph(nodes, tuple(t)) for t in trees]
    return tuple(sorted(built, key=lambda g: g.edges))

