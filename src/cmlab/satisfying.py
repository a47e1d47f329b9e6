"""Combinatorial Cohen-Macaulayness checks for the ideal attached to an
exponent table: the tree-case criterion (exact), the quasi-tree
criterion (sufficient only), the shelling-based condition (neither),
the uniform-block criterion, and the semigroup of tree-case tables.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

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
    root_orientation,
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


@dataclass(frozen=True)
class SatisfyingVerdict:
    satisfied: bool
    violations: tuple[Violation, ...] = ()
    witness_tree: FacetLevelGraph | None = None

    def __bool__(self) -> bool:
        return self.satisfied


def _adjacency(g: FacetLevelGraph) -> dict[int, tuple[int, ...]]:
    return {node: g.neighbors(node) for node in g.nodes}


def _violations(
    adjacency: Mapping[int, tuple[int, ...]], i: int, values: Mapping[int, int]
) -> list[Violation]:
    """Walk a tree on the facets, restricted to the facets omitting
    vertex i (the keys of values), breadth-first away from the formal
    root, which is joined to each such facet that is adjacent to a facet
    containing i.  Every facet-facet edge along which the value grows is
    a violation; neighbours are visited in ascending order."""
    start = [j for j in sorted(values) if any(k not in values for k in adjacency[j])]
    facet_edges = sum(1 for j in values for k in adjacency[j] if k in values) // 2
    seen = set(start)
    queue = deque(start)
    found: list[Violation] = []
    while queue:
        h = queue.popleft()
        for k in adjacency[h]:
            if k in values and k not in seen:
                if values[h] < values[k]:
                    found.append((i, (h, k), (values[h], values[k])))
                seen.add(k)
                queue.append(k)
    if len(seen) != len(values) or len(start) + facet_edges != len(values):
        raise RestrictionNotTree(
            f"restriction to vertex {i} is not a tree; this should be impossible"
        )
    return found


def is_tree_satisfying(
    mult: MultiplicityAssignment, field: FieldSpec = RATIONALS
) -> SatisfyingVerdict:
    """Per vertex, values must be non-increasing away from the root of
    the vertex graph; root edges carry no constraint.  Exact criterion
    when the facet graph is a tree and the complex is Cohen-Macaulay."""
    cx = mult.complex
    require_tree_case(cx, field)
    adjacency = _adjacency(facet_graph(cx))
    violations = [
        v
        for i in range(1, cx.n + 1)
        for v in _violations(adjacency, i, dict(mult.vertex_values(i)))
    ]
    return SatisfyingVerdict(not violations, tuple(violations))


def check_cm_tree_case(
    mult: MultiplicityAssignment, field: FieldSpec = RATIONALS
) -> bool:
    return is_tree_satisfying(mult, field).satisfied


def is_quasitree_satisfying(mult: MultiplicityAssignment) -> SatisfyingVerdict:
    """Search for one relation tree whose every vertex restriction
    satisfies the non-increase condition; the first such tree in
    canonical order is returned as witness."""
    cx = mult.complex
    trees = relation_trees(cx)
    per_vertex = {
        i: dict(mult.vertex_values(i)) for i in range(1, cx.n + 1)
    }
    for tree in trees:
        adjacency = _adjacency(tree)
        if not any(_violations(adjacency, i, values) for i, values in per_vertex.items()):
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
    if find_shelling(cx) is None:
        raise NotShellable("complex is not shellable")
    for i in range(1, cx.n + 1):
        weights = dict(mult.vertex_values(i))
        if not weights:
            continue
        if find_shelling(cx, prefix_vertex=i, weights=weights) is None:
            return False
    return True


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


def _parent_map(cx: SimplicialComplex, i: int) -> dict[int, int]:
    g = vertex_graph(cx, i)
    orientation = root_orientation(g, ROOT)
    return {child: parent for parent, child in orientation.directed_edges}


def semigroup_generators(
    cx: SimplicialComplex, vertex: int | None = None
) -> tuple[ExponentOffset, ...]:
    """Offsets generating the tree-case tables additively: for each
    vertex, the indicator of every ancestor-closed node set of its
    rooted vertex graph (the zero offset arises from the empty set).

    With vertex given, only that vertex's offsets are returned; the
    global list is deduplicated, which merges the zero offsets.
    """
    require_tree_case(cx)
    if vertex is not None and not 1 <= vertex <= cx.n:
        raise VertexOutOfRange(f"vertex {vertex} not in 1..{cx.n}")
    wanted = [vertex] if vertex is not None else list(range(1, cx.n + 1))
    out: list[ExponentOffset] = []
    seen: set[tuple[tuple[int, int, int], ...]] = set()
    for i in wanted:
        parent = _parent_map(cx, i)
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
    require_tree_case(cx)
    parts: list[ExponentOffset] = []
    for i in range(1, cx.n + 1):
        values = dict(mult.vertex_values(i))
        if not values:
            continue
        parent = _parent_map(cx, i)
        for level in range(1, max(values.values())):
            chosen = {j for j, v in values.items() if v - 1 >= level}
            if not all(parent[j] in chosen or parent[j] == ROOT for j in chosen):
                return None
            parts.append(ExponentOffset.indicator(cx, i, chosen))
    return tuple(parts)
