"""Combinatorial Cohen-Macaulayness checks for the ideal attached to an
exponent table: the tree-case criterion (exact), the quasi-tree
criterion (sufficient only), the shelling-based condition (neither),
the uniform-block criterion, and the semigroup of tree-case tables.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import chain, combinations, islice
from operator import itemgetter
from typing import Iterable, Mapping

from .complexes import (
    ExponentOffset,
    MultiplicityAssignment,
    SimplicialComplex,
    _facet_masks,
    _pair_id,
    _per_complex,
)
from .errors import (
    FacetIndexOutOfRange,
    HypothesesViolated,
    NotShellable,
    RestrictionNotTree,
    VertexOutOfRange,
)
from .graphs import ROOT, CliqueTree, FacetLevelGraph, clique_trees, facet_graph, rooted_walk
from .homology import RATIONALS, FieldSpec, is_cm_complex
from .structure import _shelling, require_tree_case

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

class SatisfyingVerdict(
    namedtuple("SatisfyingVerdict", "satisfied violations witness_tree", defaults=((), None))
):
    """Whether the criterion holds, its violations, each (vertex, (parent
    facet, child facet), (parent value, child value)), and the
    FacetLevelGraph it was witnessed on, if any."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.satisfied


def is_tree_satisfying(
    mult: MultiplicityAssignment, field: FieldSpec = RATIONALS
) -> SatisfyingVerdict:
    """Per vertex, values must be non-increasing away from the root of
    the vertex graph (violations in rooted_walk's order); root edges
    carry no constraint.  Exact criterion when the facet graph is a tree
    and the complex is Cohen-Macaulay."""
    cx = mult.complex
    require_tree_case(cx, field)
    s, get = _pair_id(cx, 1, 0), mult._pair_values().get
    _, parents, children = _clique_masks(cx)
    values = ((p, c, get(p, 1), get(c, 1)) for p, c in zip(parents, children))
    grown = [(*divmod(p, s), c // s, a, b) for p, c, a, b in values if a < b]
    by_child = {(i, k): (i, (h, k), (a, b)) for h, i, k, a, b in grown}
    # only the vertices with a violation are walked, to order them
    violations = tuple(
        by_child[i, k]
        for i in sorted({i for i, _ in by_child})
        for k in _vertex_walk(cx, i)[1::2]
        if (i, k) in by_child
    )
    return SatisfyingVerdict(not violations, violations)


def check_cm_tree_case(mult: MultiplicityAssignment, field: FieldSpec = RATIONALS) -> bool:
    """The verdict of is_tree_satisfying, without its violations."""
    require_tree_case(mult.complex, field)
    get = mult._pair_values().get
    _, parents, children = _clique_masks(mult.complex)
    return not any(get(p, 1) < get(c, 1) for p, c in zip(parents, children))


@_per_complex
def _vertex_walk(cx: SimplicialComplex, i: int) -> array:
    """The directed edges of the vertex graph of i, root edges included,
    in rooted_walk's order, flat: parent, child, parent, child, ...  Kept
    on the complex as machine ints, at most one walk per vertex, O(n * m)
    ints in all, a few bytes per entry of a dense table."""
    kept = {j for j, f in enumerate(cx.facets, start=1) if i not in f}
    edges = rooted_walk(facet_graph(cx).adjacency, kept, ROOT)[0]
    return array("i", chain.from_iterable(edges))


def _require_covered(cx: SimplicialComplex) -> None:
    """Raise at the lowest vertex in no facet, whose restriction is no tree."""
    _, containing = _facet_masks(cx)
    uncovered = [i for i in range(1, cx.n + 1) if not containing[i]]
    if uncovered:
        raise RestrictionNotTree(f"restriction to vertex {uncovered[0]} is not a tree")


@_per_complex
def _clique_masks(
    cx: SimplicialComplex,
) -> tuple[tuple[tuple[tuple[CliqueTree, ...], tuple[int, ...], int, int], ...], array, array]:
    """Per ridge clique: its trees in clique_trees' order, per tree the
    mask of the oriented facet-facet edges (vertex i, parent, child) it
    puts into the vertex restrictions of a relation tree, bit b standing
    for the clique's edge b, and the range start:stop of its edges; and
    every clique's edges in turn, as the pair ids of (parent, i) and
    (child, i) in two arrays.

    A clique-tree edge p-c has on c's side the facets hanging from c's
    subtree.  The facets containing i form a subtree of every relation
    tree, so the restriction to i orients p -> c when none of them lies
    on c's side and c -> p otherwise; with none at all it is no tree.
    The bits are worked out once per distinct split (c, p, c's side).

    The tree criterion reads its orientations here too: a Cohen-Macaulay
    complex with a tree facet graph is a quasi-tree whose ridge cliques
    are single edges.  The facets holding a vertex are joined through
    ridges, so a leaf F of the facet tree has a vertex in F alone, and
    gluing F along a whole ridge keeps every link's homology."""
    cliques = clique_trees(cx)
    _, containing = _facet_masks(cx)
    _require_covered(cx)
    walk, _ = rooted_walk(facet_graph(cx).adjacency, range(2, cx.m + 1), 1)
    parent = {c: p for p, c in walk}
    below = {j: 1 << (j - 1) for j in range(1, cx.m + 1)}
    for p, c in reversed(walk):
        below[p] |= below[c]
    out, parents, children = [], array("q"), array("q")
    for trees in cliques:
        # hang[j]: the facets left with j when a relation tree drops the clique's
        # edges, j's walk subtree (all facets at the clique's top) minus its clique children's
        nodes = {j for edge in trees[0] for j in edge}
        hang = {j: below[j] if parent.get(j) in nodes else below[1] for j in nodes}
        for k in nodes:
            if parent.get(k) in nodes:
                hang[parent[k]] &= ~below[k]
        bits: dict[tuple[int, int], int] = {}
        splits: dict[tuple[int, int, int], int] = {}
        masks = []
        for tree in trees:
            side, mask = dict(hang), 0
            for c, p in tree:
                split = splits.get((c, p, side[c]))
                if split is None:
                    split, ends = 0, 1 << (p - 1) | 1 << (c - 1)
                    # the ids of (p, i) and (c, i) are a + i and b + i
                    a, b = _pair_id(cx, p, 0), _pair_id(cx, c, 0)
                    for i in range(1, cx.n + 1):
                        held = containing[i]
                        if not held & ends:
                            edge = (b + i, a + i) if held & side[c] else (a + i, b + i)
                            split |= 1 << bits.setdefault(edge, len(bits))
                    splits[c, p, side[c]] = split
                mask |= split
                side[p] |= side[c]
            masks.append(mask)
        parents.extend(map(itemgetter(0), bits))
        children.extend(map(itemgetter(1), bits))
        out.append((trees, tuple(masks), len(parents) - len(bits), len(parents)))
    return tuple(out), parents, children


def is_quasitree_satisfying(mult: MultiplicityAssignment) -> SatisfyingVerdict:
    """Search for one relation tree whose every vertex restriction
    satisfies the non-increase condition; the first such tree in
    canonical order is returned as witness.  A relation tree passes
    exactly when its tree in every ridge clique does, so each clique
    takes its first tree whose mask misses the edges along which the
    table grows, and the witness is the union of those trees."""
    get = mult._pair_values().get
    cliques, parents, children = _clique_masks(mult.complex)
    edges = zip(parents, children)  # each clique takes its own run of them
    chosen: list[tuple[int, int]] = []
    for trees, masks, start, stop in cliques:
        grown = 0
        for b, (p, c) in enumerate(islice(edges, stop - start)):
            if get(p, 1) < get(c, 1):
                grown |= 1 << b
        tree = next((t for t, mask in zip(trees, masks) if not mask & grown), None)
        if tree is None:
            return SatisfyingVerdict(False, (), None)
        chosen += tree
    return SatisfyingVerdict(True, (), FacetLevelGraph(range(1, mult.complex.m + 1), chosen))


def check_cm_quasitree_sufficient(mult: MultiplicityAssignment) -> bool | None:
    """True means Cohen-Macaulay; None means the criterion is silent.
    Never returns False: the condition is sufficient only."""
    return True if is_quasitree_satisfying(mult).satisfied else None


def is_general_satisfying(mult: MultiplicityAssignment) -> bool:
    """Per vertex, some shelling must list every facet containing the
    vertex first and the remaining facets with non-increasing values.
    Neither sufficient nor known to be necessary."""
    cx = mult.complex
    # A shellable complex is Cohen-Macaulay over every field, so one
    # that is not over Q needs no search; a complex that is not pure
    # goes on to the search, which refuses it.
    if cx.is_pure and not is_cm_complex(cx, RATIONALS):
        raise NotShellable("complex is not shellable")
    holders = _facet_masks(cx)[1]
    held, shelled = True, False
    for i, levels in enumerate(mult.levels):
        if not levels:
            continue
        # the facets holding i, then those omitting it by descending value
        if _shelling(cx, [holders[i]] + [mask for _, mask in reversed(levels)]) is None:
            held = False
            break
        shelled = True
    # Any prefix shelling found proves the complex shellable; otherwise
    # the unweighted search tells "fails" from "not shellable".
    if not shelled and _shelling(cx, [(1 << cx.m) - 1]) is None:
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
    the root plus the block facets missing that vertex is a tree.  That
    is the tree criterion on the block's table, which grows along an
    edge exactly when the edge enters the block from outside."""
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
    return check_cm_tree_case(uniform_block_assignment(cx, vs, fs, levels), field)


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
    _require_covered(cx)
    wanted = [vertex] if vertex is not None else range(1, cx.n + 1)
    out: list[ExponentOffset] = []
    seen: set[ExponentOffset] = set()
    for i in wanted:
        # each facet's parent in the rooted vertex graph
        walk = _vertex_walk(cx, i)
        parent = dict(zip(walk[1::2], walk[::2]))
        nodes = sorted(parent)
        for size in range(len(nodes) + 1):
            for subset in combinations(nodes, size):
                chosen = set(subset)
                if all(parent[j] in chosen or parent[j] == ROOT for j in chosen):
                    offset = ExponentOffset.indicator(cx, i, chosen)
                    if vertex is not None:
                        out.append(offset)
                    elif offset not in seen:
                        seen.add(offset)
                        out.append(offset)
    return tuple(out)


def decompose_into_generators(
    mult: MultiplicityAssignment,
) -> tuple[ExponentOffset, ...] | None:
    """Write the table minus one as a sum of generator offsets by
    slicing each vertex's values into level sets; None exactly when
    some level set is not ancestor-closed, i.e. the table is not
    tree-satisfying."""
    if not check_cm_tree_case(mult, RATIONALS):
        return None
    cx = mult.complex
    parts: list[ExponentOffset] = []
    for i in range(1, cx.n + 1):
        values = dict(mult.vertex_values(i))
        for level in range(1, max(values.values(), default=1)):
            chosen = {j for j, v in values.items() if v - 1 >= level}
            parts.append(ExponentOffset.indicator(cx, i, chosen))
    return tuple(parts)
