"""Combinatorial Cohen-Macaulayness checks for the ideal attached to an
exponent table: the tree-case criterion (exact), the quasi-tree
criterion (sufficient only), the shelling-based condition (neither),
the uniform-block criterion, and the semigroup of tree-case tables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple

from .complexes import ExponentOffset, MultiplicityAssignment, SimplicialComplex
from .errors import (
    FacetIndexOutOfRange,
    HypothesesViolated,
    NotShellable,
    RestrictionNotTree,
    VertexOutOfRange,
)
from .graphs import (
    ROOT,
    FacetLevelGraph,
    facet_graph,
    is_tree,
    relation_trees,
    restriction_edges,
    vertex_graph,
)
from .homology import RATIONALS, FieldSpec
from .structure import find_shelling, require_tree_case

__all__ = [
    "SatisfyingVerdict",
    "is_tree_satisfying",
    "check_cm_tree_case",
    "is_quasitree_satisfying",
    "check_cm_quasitree_sufficient",
    "is_general_satisfying",
    "uniform_block_assignment",
    "check_cm_uniform_block",
    "semigroup_generators",
    "decompose_into_generators",
]

# (vertex, (parent facet, child facet), (parent value, child value))
Violation = tuple[int, tuple[int, int], tuple[int, int]]


class SatisfyingVerdict(NamedTuple):
    satisfied: bool
    violations: tuple[Violation, ...] = ()
    witness_tree: FacetLevelGraph | None = None

    def __bool__(self) -> bool:
        return self.satisfied


def is_tree_satisfying(
    mult: MultiplicityAssignment, field: FieldSpec = RATIONALS
) -> SatisfyingVerdict:
    """Per vertex, values must be non-increasing away from the root of
    the vertex graph; root edges carry no constraint.  Exact criterion
    when the facet graph is a tree and the complex is Cohen-Macaulay."""
    cx = mult.complex
    require_tree_case(cx, field)
    violations = [
        (i, (h, k), (mult.value(h, i), mult.value(k, i)))
        for i, h, k in _facet_graph_edges(cx)
        if mult.value(h, i) < mult.value(k, i)
    ]
    return SatisfyingVerdict(not violations, tuple(violations))


@lru_cache(maxsize=32)
def _facet_graph_edges(cx: SimplicialComplex) -> tuple[tuple[int, int, int], ...]:
    """The facet-facet edges (vertex i, parent, child) of the facet
    graph's vertex restrictions, in restriction_edges' order."""
    return tuple(
        edge for edge in next(restriction_edges(cx, [facet_graph(cx)])) if edge[1] != ROOT
    )


def check_cm_tree_case(
    mult: MultiplicityAssignment, field: FieldSpec = RATIONALS
) -> bool:
    return is_tree_satisfying(mult, field).satisfied


@lru_cache(maxsize=32)
def _tree_masks(
    cx: SimplicialComplex,
) -> tuple[tuple[FacetLevelGraph, ...], tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """The relation trees in canonical order, every oriented facet-facet
    edge (vertex i, parent, child) of their vertex restrictions, and per
    tree the mask of its edges: bit b stands for edge b."""
    trees = relation_trees(cx)
    return (trees, *_edge_masks(cx, trees))


def _edge_masks(
    cx: SimplicialComplex, trees: Iterable[FacetLevelGraph]
) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """The oriented facet-facet edges of restriction_edges(cx, trees), as
    a list of distinct edges and one bitmask per tree over it, raising
    what restriction_edges raises.

    A tree edge p-c between two facets omitting i splits the facets in
    two sides.  With C_i the facets containing i, the restriction to i
    orients it p -> c when no facet of C_i lies on c's side, c -> p when
    none lies on p's side, and is no tree when both sides hold one, or
    when C_i is empty.  Each tree is rooted once at facet 1, so c's side
    is the subtree mask of c, and the edge bits are worked out once per
    distinct split (p, c, c's side) rather than once per tree."""
    containing = [0] * (cx.n + 1)
    for j, f in enumerate(cx.facets, start=1):
        for i in f:
            containing[i] |= 1 << j
    uncovered = sum(1 << i for i in range(1, cx.n + 1) if not containing[i])
    bits: dict[tuple[int, int, int], int] = {}
    splits: dict[tuple[int, int, int], tuple[int, int]] = {}
    masks = []
    for tree in trees:
        parent = {1: ROOT}
        order = [1]
        for h in order:
            for k in tree.adjacency[h]:
                if k not in parent:
                    parent[k] = h
                    order.append(k)
        side = {j: 1 << j for j in order}
        mask, failing = 0, uncovered
        for c in reversed(order[1:]):
            p, below = parent[c], side[c]
            side[p] |= below
            split = splits.get((p, c, below))
            if split is None:
                edge_mask = broken = 0
                ends = 1 << p | 1 << c
                for i in range(1, cx.n + 1):
                    held = containing[i]
                    if not held or held & ends:
                        continue
                    if not held & below:
                        edge = (i, p, c)
                    elif not held & ~below:
                        edge = (i, c, p)
                    else:
                        broken |= 1 << i
                        continue
                    edge_mask |= 1 << bits.setdefault(edge, len(bits))
                split = splits[p, c, below] = (edge_mask, broken)
            mask |= split[0]
            failing |= split[1]
        if failing:
            i = (failing & -failing).bit_length() - 1
            raise RestrictionNotTree(f"restriction to vertex {i} is not a tree")
        masks.append(mask)
    return tuple(bits), tuple(masks)


def is_quasitree_satisfying(mult: MultiplicityAssignment) -> SatisfyingVerdict:
    """Search for one relation tree whose every vertex restriction
    satisfies the non-increase condition; the first such tree in
    canonical order is returned as witness.  The table only decides
    which oriented edges grow; the trees' edge masks are per complex."""
    trees, edges, masks = _tree_masks(mult.complex)
    grown = 0
    for b, (i, h, k) in enumerate(edges):
        if mult.value(h, i) < mult.value(k, i):
            grown |= 1 << b
    for tree, mask in zip(trees, masks):
        if not mask & grown:
            return SatisfyingVerdict(True, (), tree)
    return SatisfyingVerdict(False, (), None)


def check_cm_quasitree_sufficient(mult: MultiplicityAssignment) -> bool | None:
    """True means Cohen-Macaulay; None means the criterion is silent.
    Never returns False: the condition is sufficient only."""
    return True if is_quasitree_satisfying(mult).satisfied else None


def is_general_satisfying(mult: MultiplicityAssignment) -> bool:
    """Per vertex, some shelling must list every facet containing the
    vertex first and the remaining facets with non-increasing values.
    Neither sufficient nor known to be necessary."""
    cx = mult.complex
    held, shelled = True, False
    for i in range(1, cx.n + 1):
        weights = dict(mult.vertex_values(i))
        if not weights:
            continue
        if find_shelling(cx, prefix_vertex=i, weights=weights) is None:
            held = False
            break
        shelled = True
    # Any prefix shelling found proves the complex shellable; otherwise
    # the unweighted search tells "fails" from "not shellable".
    if not shelled and find_shelling(cx) is None:
        raise NotShellable("complex is not shellable")
    return held


def uniform_block_assignment(
    cx: SimplicialComplex,
    block_vertices: Iterable[int],
    block_facets: Iterable[int],
    levels: Mapping[int, int],
) -> MultiplicityAssignment:
    """Value levels[i] at (j, i) for block pairs with vertex i missing
    from facet j, value 1 everywhere else."""
    vs = set(block_vertices)
    fs = set(block_facets)
    overrides = {
        (j, i): levels[i]
        for j in fs
        for i in vs
        if i not in cx.facets[j - 1]
    }
    return MultiplicityAssignment.from_overrides(cx, overrides)


def check_cm_uniform_block(
    cx: SimplicialComplex,
    block_vertices: Iterable[int],
    block_facets: Iterable[int],
    levels: Mapping[int, int],
    field: FieldSpec = RATIONALS,
) -> bool:
    """Exact criterion for block-uniform tables: the ideal is
    Cohen-Macaulay iff, per block vertex, the vertex graph induced on
    the root plus the block facets missing that vertex is a tree."""
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


def _parent_maps(cx: SimplicialComplex) -> dict[int, dict[int, int]]:
    """Per vertex, each facet's parent in the rooted vertex graph."""
    parents: dict[int, dict[int, int]] = {i: {} for i in range(1, cx.n + 1)}
    for i, parent, child in next(restriction_edges(cx, [facet_graph(cx)])):
        parents[i][child] = parent
    return parents


def semigroup_generators(
    cx: SimplicialComplex, vertex: int | None = None
) -> tuple[ExponentOffset, ...]:
    """Offsets generating the tree-case tables additively: for each
    vertex, the indicator of every ancestor-closed node set of its
    rooted vertex graph (the zero offset arises from the empty set).

    With vertex given, only that vertex's offsets are returned; the
    global list is deduplicated, which merges the zero offsets.
    """
    require_tree_case(cx, RATIONALS)
    if vertex is not None and not 1 <= vertex <= cx.n:
        raise VertexOutOfRange(f"vertex {vertex} not in 1..{cx.n}")
    wanted = [vertex] if vertex is not None else list(range(1, cx.n + 1))
    parents = _parent_maps(cx)
    out: list[ExponentOffset] = []
    seen: set[tuple[tuple[int, int, int], ...]] = set()
    for i in wanted:
        parent = parents[i]
        nodes = sorted(parent)
        for size in range(len(nodes) + 1):
            for subset in combinations(nodes, size):
                chosen = set(subset)
                if all(parent[j] in chosen or parent[j] == ROOT for j in chosen):
                    offset = ExponentOffset.indicator(cx, i, chosen)
                    if vertex is not None:
                        out.append(offset)
                    elif offset.entries not in seen:
                        seen.add(offset.entries)
                        out.append(offset)
    return tuple(out)


def decompose_into_generators(
    mult: MultiplicityAssignment,
) -> tuple[ExponentOffset, ...] | None:
    """Write the table minus one as a sum of generator offsets by
    slicing each vertex's values into level sets; None exactly when
    some level set is not ancestor-closed, i.e. the table is not
    tree-satisfying."""
    cx = mult.complex
    require_tree_case(cx, RATIONALS)
    parents = _parent_maps(cx)
    parts: list[ExponentOffset] = []
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
