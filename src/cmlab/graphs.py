"""Graphs whose nodes are facets: the adjacency graph of a pure
complex and the tree-case hypotheses on it, its per-vertex variants with
a formal root, the rooted breadth-first walk behind every traversal,
leaf orders of quasi-forests, and relation trees of quasi-trees.

Nodes are 1-based facet indices into the complex's canonical facet
list; node 0 is reserved for the formal root of per-vertex graphs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterable, Mapping
from itertools import chain, combinations, product

from .complexes import (
    Frozen,
    SimplicialComplex,
    _check_vertex,
    _facet_masks,
    _leaf_branch,
    _per_complex,
    _Record,
)
from .errors import (
    FacetIndexOutOfRange,
    HypothesesViolated,
    NotATree,
    NotCohenMacaulay,
    NotPure,
    NotQuasiTree,
    NotTreeFacetGraph,
    RootNotFound,
)
from .homology import FieldSpec, is_cm_complex

__all__ = [
    "FacetLevelGraph",
    "facet_graph",
    "vertex_graph",
    "is_tree",
    "root_orientation",
    "rooted_walk",
    "LeafOrder",
    "find_leaf_order",
    "require_quasi_tree",
    "require_tree_case",
    "clique_trees",
    "relation_trees",
]

ROOT = 0
# a spanning tree of one ridge clique, as bottom-up (child, parent) pairs
CliqueTree = tuple[tuple[int, int], ...]


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


@_per_complex
def _ridge_groups(cx: SimplicialComplex) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per ridge that two or more facets share, the pairs (facet j,
    vertex of facet j outside the ridge), facets ascending; ridges in
    the order their first facet lists them.  Their facets are the ridge
    cliques, whose union is the facet graph of a pure complex."""
    by_ridge: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for j, f in enumerate(cx.facets, start=1):
        for k, v in enumerate(f):
            by_ridge.setdefault(f[:k] + f[k + 1 :], []).append((j, v))
    return tuple(tuple(pairs) for pairs in by_ridge.values() if len(pairs) > 1)


@_per_complex
def facet_graph(cx: SimplicialComplex) -> FacetLevelGraph:
    """Nodes 1..m; an edge joins two facets meeting in size dim, that
    is, sharing a ridge."""
    if not cx.is_pure:
        raise NotPure("the facet graph requires a pure complex")
    edges = [(a, b) for group in _ridge_groups(cx) for (a, _), (b, _) in combinations(group, 2)]
    return FacetLevelGraph(tuple(range(1, cx.m + 1)), edges)


@_per_complex
def _facet_walk(cx: SimplicialComplex) -> tuple[tuple[tuple[int, int], ...], bool, bool]:
    """The one rooted_walk of a pure complex's facet graph from facet 1:
    its (parent, child) edges, whether the graph is connected and whether
    it is a tree; the void complex's graph is neither."""
    walk, tree = rooted_walk(facet_graph(cx).adjacency, range(2, cx.m + 1), 1)
    return walk, len(walk) == cx.m - 1, tree and not cx.is_void


def require_tree_case(cx: SimplicialComplex, field: FieldSpec | None = None) -> None:
    """Raise unless the complex is pure with a tree facet graph and, when
    a field is given, Cohen-Macaulay over it: the hypotheses of the
    tree-case criterion and of the constructions built on it."""
    if not _tree_facet_graph(cx):
        raise NotTreeFacetGraph("the facet graph must be a tree")
    if field is not None and not is_cm_complex(cx, field):
        raise NotCohenMacaulay(
            f"complex is not Cohen-Macaulay in characteristic {field.characteristic}"
        )


@_per_complex
def _tree_facet_graph(cx: SimplicialComplex) -> bool:
    """Whether the complex is pure with a tree facet graph."""
    return cx.is_pure and _facet_walk(cx)[2]


def vertex_graph(cx: SimplicialComplex, i: int) -> FacetLevelGraph:
    """The formal root 0 plus every facet omitting vertex i; facet-facet
    edges are inherited, and a root edge marks adjacency to some facet
    that contains the vertex.

    When every facet contains the vertex the graph is just the root.
    """
    _check_vertex(cx, i)
    base = facet_graph(cx)
    kept = {j for j, f in enumerate(cx.facets, start=1) if i not in f}
    edges = [(a, b) for a, b in base.edges if a in kept and b in kept]
    edges += [(ROOT, j) for j in kept if any(k not in kept for k in base.neighbors(j))]
    return FacetLevelGraph((ROOT, *kept), tuple(edges))


class LeafOrder(_Record, fields="order branches"):
    """Facet order where each facet is a leaf of the preceding ones,
    with the chosen branch recorded per position (None for the first)."""

    __slots__ = ()


def find_leaf_order(cx: SimplicialComplex) -> LeafOrder | None:
    """Greedy reverse construction: repeatedly remove the lowest-index
    leaf of what remains.  Cross-checked against the exhaustive search
    in the test suite."""
    masks, _ = _facet_masks(cx)
    remaining = list(range(cx.m))
    removed: list[tuple[int, int]] = []
    while len(remaining) > 1:
        for k in remaining:
            g = _leaf_branch(masks, remaining, k)
            if g is not None:
                break
        else:
            return None
        removed.append((k + 1, g + 1))
        remaining.remove(k)
    order = tuple(j + 1 for j in remaining) + tuple(j for j, _ in reversed(removed))
    branches = (None,) * len(remaining) + tuple(g for _, g in reversed(removed))
    return LeafOrder(order, branches)


@_per_complex
def require_quasi_tree(cx: SimplicialComplex) -> None:
    """Raise unless the complex is pure, strongly connected and has a
    leaf order: the hypotheses of relation trees and of the quasi-tree
    criterion."""
    if not cx.is_pure or not _facet_walk(cx)[1]:
        raise NotQuasiTree("relation trees need a pure, strongly connected complex")
    if find_leaf_order(cx) is None:
        raise NotQuasiTree("no leaf order exists")


@_per_complex
def clique_trees(cx: SimplicialComplex) -> tuple[tuple[CliqueTree, ...], ...]:
    """Per ridge clique of a strongly connected quasi-tree, every spanning
    tree of the clique sorted by edges; anything else is rejected.  Each
    tree is its Pruefer decoding, (leaf, neighbour) pairs that list the
    edges bottom-up as (child, parent) under the clique's last facet."""
    require_quasi_tree(cx)
    cliques = []
    for group in _ridge_groups(cx):
        nodes = [j for j, _ in group]
        k = len(nodes)
        trees = []
        for code in product(range(k), repeat=k - 2):
            # each step joins the lowest remaining leaf to the next code
            # entry: a pointer climbs over the leaves, and a node that
            # becomes a leaf below the pointer is taken at once
            degree = [1] * k
            for x in code:
                degree[x] += 1
            ptr = leaf = degree.index(1)
            edges, key = [], []
            for x in code:
                edges.append((nodes[leaf], nodes[x]))
                key.append((leaf, x) if leaf < x else (x, leaf))
                degree[x] -= 1
                if degree[x] == 1 and x < ptr:
                    leaf = x
                else:
                    ptr += 1
                    while degree[ptr] != 1:
                        ptr += 1
                    leaf = ptr
            edges.append((nodes[leaf], nodes[-1]))
            key.append((leaf, k - 1))
            # positions ascend with the nodes, so this sorts by edges
            trees.append((sorted(key), tuple(edges)))
        trees.sort()
        cliques.append(tuple(tree for _, tree in trees))
    return tuple(cliques)


@_per_complex
def relation_trees(cx: SimplicialComplex) -> tuple[FacetLevelGraph, ...]:
    """The relation trees of a strongly connected quasi-tree, sorted by
    edges; anything else is rejected.  They are the spanning trees of the
    facet graph, a block graph whose blocks are the cliques of facets
    sharing a ridge (along a leaf order each new facet meets its earlier
    ridge neighbours in one ridge), so each is one tree per clique."""
    nodes = tuple(range(1, cx.m + 1))
    built = (FacetLevelGraph(nodes, chain.from_iterable(p)) for p in product(*clique_trees(cx)))
    return tuple(sorted(built, key=lambda g: g.edges))
