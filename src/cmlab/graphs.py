"""Graphs whose nodes are facets: the adjacency graph of a pure
complex, its per-vertex variants with a formal root, rooted
orientations, and relation trees of quasi-trees.

Nodes are 1-based facet indices into the complex's canonical facet
list; node 0 is reserved for the formal root of per-vertex graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .complexes import SimplicialComplex, leaf_branches
from .errors import (
    FacetIndexOutOfRange,
    HypothesesViolated,
    NotATree,
    NotPure,
    NotQuasiTree,
    NotRelationTree,
    RestrictionNotTree,
    RootNotFound,
    VertexOutOfRange,
)

__all__ = [
    "FacetLevelGraph",
    "RootedOrientation",
    "facet_graph",
    "vertex_graph",
    "is_tree",
    "root_orientation",
    "relation_trees",
    "restrict_relation_tree",
]

ROOT = 0


def _canonical_edges(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(min(a, b), max(a, b)) for a, b in edges}))


@dataclass(frozen=True)
class FacetLevelGraph:
    """Undirected graph on facet indices, optionally with the formal
    root node 0."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(set(self.nodes))))
        object.__setattr__(self, "edges", _canonical_edges(self.edges))
        node_set = set(self.nodes)
        for a, b in self.edges:
            if a == b:
                raise HypothesesViolated(f"self-loop at node {a} is not allowed")
            if a not in node_set or b not in node_set:
                raise FacetIndexOutOfRange(f"edge {a}-{b} has an endpoint missing from nodes")

    def neighbors(self, node: int) -> tuple[int, ...]:
        return tuple(
            sorted(b if a == node else a for a, b in self.edges if node in (a, b))
        )

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    def is_connected(self) -> bool:
        if not self.nodes:
            return False
        seen = {self.nodes[0]}
        queue = [self.nodes[0]]
        while queue:
            for nb in self.neighbors(queue.pop()):
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        return len(seen) == len(self.nodes)


def is_tree(g: FacetLevelGraph) -> bool:
    return bool(g.nodes) and len(g.edges) == len(g.nodes) - 1 and g.is_connected()


@dataclass(frozen=True)
class RootedOrientation:
    """A tree with every edge directed away from a chosen root."""

    base: FacetLevelGraph
    root: int
    directed_edges: tuple[tuple[int, int], ...]

    def parent_of(self, node: int) -> int | None:
        for parent, child in self.directed_edges:
            if child == node:
                return parent
        return None


def root_orientation(g: FacetLevelGraph, root: int) -> RootedOrientation:
    if root not in g.nodes:
        raise RootNotFound(f"node {root} is not in the graph")
    if not is_tree(g):
        raise NotATree("orientation requires a tree")
    directed: list[tuple[int, int]] = []
    seen = {root}
    queue = [root]
    while queue:
        node = queue.pop(0)
        for nb in g.neighbors(node):
            if nb not in seen:
                seen.add(nb)
                directed.append((node, nb))
                queue.append(nb)
    return RootedOrientation(g, root, tuple(directed))


@lru_cache(maxsize=None)
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


def _restrict(cx: SimplicialComplex, base: FacetLevelGraph, i: int) -> FacetLevelGraph:
    """The formal root plus the nodes of base (facets 1..m) omitting
    vertex i: edges among those are kept, and the root is joined to each
    one adjacent in base to a facet containing the vertex."""
    omitting = {j for j, f in enumerate(cx.facets, start=1) if i not in f}
    edges = [(a, b) for a, b in base.edges if a in omitting and b in omitting]
    for j in sorted(omitting):
        if any(k not in omitting for k in base.neighbors(j)):
            edges.append((ROOT, j))
    return FacetLevelGraph((ROOT,) + tuple(sorted(omitting)), tuple(edges))


@lru_cache(maxsize=None)
def vertex_graph(cx: SimplicialComplex, i: int) -> FacetLevelGraph:
    """The formal root 0 plus every facet omitting vertex i; facet-facet
    edges are inherited, and a root edge marks adjacency to some facet
    that contains the vertex.

    When every facet contains the vertex the graph is just the root.
    """
    if not 1 <= i <= cx.n:
        raise VertexOutOfRange(f"vertex {i} not in 1..{cx.n}")
    return _restrict(cx, facet_graph(cx), i)


@lru_cache(maxsize=None)
def relation_trees(cx: SimplicialComplex) -> tuple[FacetLevelGraph, ...]:
    """All trees obtainable by recursive leaf removal with branch
    choice, deduplicated by edge set and canonically sorted.

    Restricted to strongly connected quasi-trees so that each result is
    a spanning tree of the facet graph; anything else is rejected.
    """
    if not cx.is_pure or not cx.is_strongly_connected():
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


def restrict_relation_tree(
    cx: SimplicialComplex, tree: FacetLevelGraph, i: int
) -> FacetLevelGraph:
    """Drop the relation tree to the facets omitting vertex i, attaching
    the formal root to each facet that was tree-adjacent to a facet
    containing the vertex.  The result is always a tree."""
    if tree not in relation_trees(cx):
        raise NotRelationTree("not a relation tree of this complex")
    restricted = _restrict(cx, tree, i)
    if not is_tree(restricted):
        raise RestrictionNotTree(
            f"restriction to vertex {i} is not a tree; this should be impossible"
        )
    return restricted
