"""Combinatorial Cohen-Macaulayness checks for the ideal attached to an
exponent table: the tree-case criterion (exact), the quasi-tree
criterion (sufficient only), the shelling-based condition (neither),
the uniform-block criterion, and the semigroup of tree-case tables.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from functools import cache
from itertools import combinations

from .complexes import (
    RATIONALS,
    ExponentOffset,
    FieldSpec,
    MultiplicityAssignment,
    SimplicialComplex,
    _check_facet,
    _check_vertex,
    _facet_masks,
    _pair_id,
    _per_complex,
    _Record,
)
from .errors import HypothesesViolated, NotPure, NotShellable, RestrictionNotTree
from .graphs import (
    ROOT,
    FacetLevelGraph,
    _facet_walk,
    _ridge_groups,
    require_quasi_tree,
    require_tree_case,
)

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
    _Record, fields="satisfied violations witness_tree", defaults=((), None)
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
    grown = _grown_edges(mult, _facet_tree(cx)[0])
    by_child = {(i, edge[1]): (i, edge, values) for i, edge, values in grown}
    # only the vertices with a violation get their parents, to order them
    violations = tuple(
        by_child[i, k]
        for i in sorted({i for i, _ in by_child})
        for k in _vertex_parents(cx, i)
        if (i, k) in by_child
    )
    return SatisfyingVerdict(not violations, violations)


def check_cm_tree_case(mult: MultiplicityAssignment, field: FieldSpec = RATIONALS) -> bool:
    """The verdict of is_tree_satisfying, without its violations."""
    require_tree_case(mult.complex, field)
    return next(_grown_edges(mult, _facet_tree(mult.complex)[0]), None) is None


def _grown_edges(mult: MultiplicityAssignment, into: tuple):
    """The bridges of the facet graph along which a table grows, each
    (vertex i, (parent facet h, child facet j), (a, b)) with a < b the
    values at (h, i) and (j, i), at most one per raised entry (j, i, b)
    and in their order: per entry, the one bridge h-j in into (from
    _facet_tree), if any, that points into j at i.  In the tree case,
    the violations; both criteria pass the bridges when there is none."""
    get, stride = mult._pair_values().get, _pair_id(mult.complex, 1, 0)
    for j, i, b in mult.raised if into else ():
        for h, at in into[j]:
            if at >> i & 1:
                a = get(h * stride + i, 1)
                if a < b:
                    yield i, (h, j), (a, b)
                break


def _vertex_parents(cx: SimplicialComplex, i: int) -> dict[int, int]:
    """In the tree case, each facet missing vertex i mapped to its parent
    in the vertex graph of i, in rooted_walk's order: breadth first from
    ROOT, children ascending.  The parent of j is the one bridge in
    into[j] that points into j at i, or ROOT when the neighbour towards
    i holds i.  Not kept: a report needs it once per violating vertex."""
    into = _facet_tree(cx)[0]
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {}
    for j, f in enumerate(cx.facets, start=1):
        if i not in f:
            parent[j] = h = next((h for h, at in into[j] if at >> i & 1), ROOT)
            children.setdefault(h, []).append(j)
    order = [ROOT]
    for h in order:
        order += children.get(h, ())
    return {j: parent[j] for j in order[1:]}


@_per_complex
def _facet_tree(cx: SimplicialComplex) -> tuple[tuple, tuple[tuple, ...]]:
    """The index both criteria read, built in one pass over the ridge
    cliques.  The facet walk away from facet 1 (the facet tree in the
    tree case, a relation tree of a quasi-tree) gives each facet j
    reach[j], the vertices of its walk subtree.  The facets holding a
    vertex i form a subtree, so a walk edge p-c, c the child, points
    c -> p at i exactly when i is in reach[c].

    into: per facet j and bridge h-j (a two-facet ridge clique, so held
    by every relation tree), h and the mask of the vertices in neither
    facet at which h-j points h -> j; () when there is no bridge.

    cliques: per ridge clique of three or more facets, (nodes, anchors,
    others).  nodes are its facets, ascending.  Dropping its edges
    leaves a part hanging from each clique facet: its walk subtree
    (everything, at the top) minus its clique children's.  anchors holds
    per clique facet the vertices off the ridge in its part, those
    anchored there; an edge x-y of a clique tree points x -> y at i
    exactly when i's anchor is on x's side.  others holds per position
    y and other clique facet x the slot x*k + y, the pair id of (x, 0)
    and x's own vertex, the one vertex off the ridge that x holds.  A
    vertex in no facet leaves no tree: the lowest raises."""
    masks, containing = _facet_masks(cx)
    uncovered = [i for i in range(1, cx.n + 1) if not containing[i]]
    if uncovered:
        raise RestrictionNotTree(f"restriction to vertex {uncovered[0]} is not a tree")
    parent = [0] * (cx.m + 1)
    reach = [0, *masks]
    for p, c in reversed(_facet_walk(cx)[0]):
        parent[c] = p
        reach[p] |= reach[c]
    into: list[list[tuple[int, int]]] = [[] for _ in parent]
    cliques = []
    for group in _ridge_groups(cx):
        nodes = tuple(j for j, _ in group)
        if len(nodes) == 2:
            p, c = nodes if parent[nodes[1]] == nodes[0] else nodes[::-1]
            outside = reach[1] & ~(masks[p - 1] | masks[c - 1])
            into[c].append((p, outside & ~reach[c]))
            into[p].append((c, outside & reach[c]))
            continue
        k = len(nodes)
        ridge = masks[nodes[0] - 1] ^ 1 << group[0][1]
        anchors = [reach[j if parent[j] in nodes else 1] & ~ridge for j in nodes]
        for j in nodes:
            if parent[j] in nodes:
                anchors[nodes.index(parent[j])] &= ~reach[j]
        others = tuple(
            tuple((x * k + y, _pair_id(cx, h, 0), v) for x, (h, v) in enumerate(group) if x != y)
            for y in range(k)
        )
        cliques.append((nodes, tuple(anchors), others))
    return tuple(map(tuple, into)) if any(into) else (), tuple(cliques)


def _tree_exists(k: int, bad: list[int], forced: tuple[int, ...] = (), floor: int = -1) -> bool:
    """Whether some spanning tree of a ridge clique on positions 0..k-1
    passes the split test at each of its edges, holds every forced edge
    and no other edge with an id up to floor; x-y, x < y, has id x*k + y.

    Edge x-y passes when x's side X misses bad[x*k + y] and holds
    bad[y*k + x].  A tree rooted at r on the node set U is a subtree T,
    holding the lowest node of U but r and hung from r by its root c,
    beside a tree rooted at r on U minus T.  T is c's whole side, so the
    test of c-r bounds T alone: T holds c, that lowest node and
    bad[r*k + c], and misses bad[c*k + r].  Memoized on (U, r): at most
    k * 2^k problems and O(k^2 * 3^k) steps, depth first.  A problem's
    state is the roots c left, the current c, T's least value, the free
    nodes T may add and the submask s of them taken (-1: next c); the
    stack holds the states of the problems waiting on the current one."""
    full = (1 << k) - 1
    cuts = [(e, 1 << e // k | 1 << e % k) for e in forced]
    known: dict[int, bool] = {}
    stack = []
    u, r, roots, c, base, free, s = full, 0, full ^ 1, 0, 0, 0, -1
    while True:
        rest = u ^ 1 << r
        low = rest & -rest
        found = None
        while found is None:
            if s < 0:
                if not roots:
                    found = False
                    break
                bit = roots & -roots
                roots ^= bit
                c = bit.bit_length() - 1
                base = bad[r * k + c] | bit | low
                miss = bad[c * k + r]
                if base & miss or base & ~rest:
                    continue
                if floor >= 0:
                    e = min(c, r) * k + max(c, r)
                    if e <= floor and e not in forced:
                        continue
                free, s = rest & ~(base | miss), 0
            t = base | s
            # a forced edge is the one edge across its own cut
            if cuts and any(
                f != min(c, r) * k + max(c, r) and t & ends not in (0, ends) for f, ends in cuts
            ):
                inner = outer = False
            else:
                inner = True if t == 1 << c else known.get(t * k + c)
                outer = True if u ^ t == 1 << r else known.get((u ^ t) * k + r)
            if inner is None and outer is not False or outer is None and inner:
                # decide the open part first, then come back to this choice
                stack.append((u, r, roots, c, base, free, s))
                u, r = (t, c) if inner is None else (u ^ t, r)
                roots, s = u ^ 1 << r, -1
                break
            if inner and outer:
                found = True
            else:
                s = -1 if s == free else (s - free) & free
        if found is None:
            continue
        known[u * k + r] = found
        if not stack:
            return found
        u, r, roots, c, base, free, s = stack.pop()


def _first_tree(k: int, bad: list[int]) -> list[tuple[int, int]]:
    """The first passing tree of the clique in clique_trees' order, by
    edges ascending: each edge in turn is the lowest with which some
    passing tree holds the edges already taken and otherwise only
    higher ones."""
    taken: list[int] = []
    floor = -1
    for _ in range(k - 1):
        floor = next(
            e
            for e in range(floor + 1, k * k)
            if e // k < e % k and _tree_exists(k, bad, (*taken, e), e)
        )
        taken.append(floor)
    return [divmod(e, k) for e in taken]


def _passing_cliques(mult: MultiplicityAssignment) -> list[tuple[tuple[int, ...], list]] | None:
    """Per ridge clique of three or more facets its facets and, per slot
    x*k + y, the mask of the anchors of the vertices at which the table
    grows along x -> y; None when the table grows along a bridge or at
    the first clique with no passing tree.  Only a raised entry (j, i, b)
    grows an edge, one into j at i: in each clique holding j at y,
    x -> y for i anchored off y, when i is not x's own vertex (a facet
    holding i reads 1) and x's value there is below b.  A clique reads
    the raised entries of its own facets, a slice of mult.raised each."""
    require_quasi_tree(mult.complex)
    into, cliques = _facet_tree(mult.complex)
    if next(_grown_edges(mult, into), None) is not None:
        return None
    get, raised = mult._pair_values().get, mult.raised
    passing = []
    for nodes, anchors, others in cliques:
        k = len(nodes)
        bad = [0] * (k * k)
        for y, j in enumerate(nodes):
            for _, i, b in raised[bisect_left(raised, (j,)) : bisect_left(raised, (j + 1,))]:
                a = 0
                while not anchors[a] >> i & 1:
                    a += 1
                if a != y:
                    bit = 1 << a
                    for s, base, v in others[y]:
                        if i != v and get(base + i, 1) < b:
                            bad[s] |= bit
        if not _tree_exists(k, bad):
            return None
        passing.append((nodes, bad))
    return passing


def is_quasitree_satisfying(mult: MultiplicityAssignment) -> SatisfyingVerdict:
    """Search for one relation tree whose every vertex restriction
    satisfies the non-increase condition; the first such tree in
    canonical order is returned as witness.  A relation tree passes
    exactly when its tree in every ridge clique does, so the witness is
    the union of each clique's first passing tree: the bridges, and the
    split search's tree in each larger clique."""
    passing = _passing_cliques(mult)
    if passing is None:
        return SatisfyingVerdict(False, (), None)
    chosen = [(h, j) for j, at in enumerate(_facet_tree(mult.complex)[0]) for h, _ in at]
    for nodes, bad in passing:
        chosen += [(nodes[x], nodes[y]) for x, y in _first_tree(len(nodes), bad)]
    return SatisfyingVerdict(True, (), FacetLevelGraph(range(1, mult.complex.m + 1), chosen))


def check_cm_quasitree_sufficient(mult: MultiplicityAssignment) -> bool | None:
    """True means Cohen-Macaulay; None means the criterion is silent.
    Never returns False: the condition is sufficient only.  Builds no
    witness."""
    return True if _passing_cliques(mult) is not None else None


def is_general_satisfying(mult: MultiplicityAssignment) -> bool:
    """Per vertex, some shelling must list every facet containing the
    vertex first and the remaining facets with non-increasing values.
    Neither sufficient nor known to be necessary.  Each vertex searches
    its tiers (see structure._shelling), the facets holding it and then
    its levels by descending value, and the first tier it cannot
    complete fails."""
    structure = _structure()
    cx = mult.complex
    # shellable implies Cohen-Macaulay over every field, so over Q too
    if cx.is_pure and not structure.is_cm_complex(cx, RATIONALS):
        raise NotShellable("complex is not shellable")
    if not cx.is_pure:
        raise NotPure("shellings are defined for pure complexes here")
    holders = _facet_masks(cx)[1]
    held, shelled = True, False
    for i, levels in enumerate(mult.levels):
        if not levels:
            continue
        placed = holders[i]
        held = not placed or structure._tier_order(cx, 0, placed) is not None
        for _, mask in reversed(levels) if held else ():
            if structure._tier_order(cx, placed, mask) is None:
                held = False
                break
            placed |= mask
        if not held:
            break
        shelled = True
    # Any prefix shelling found proves the complex shellable; otherwise
    # the unweighted search tells "fails" from "not shellable".
    if not shelled and structure._shelling(cx, [(1 << cx.m) - 1]) is None:
        raise NotShellable("complex is not shellable")
    return held


@cache
def _structure():
    """The module of the shelling searches and, through it, of
    is_cm_complex, imported on first use, so that the tree and quasi-tree
    criteria run without it or homology; an import statement in
    is_general_satisfying cost each table 1 to 2.5 microseconds."""
    from . import structure

    return structure


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
        _check_vertex(cx, i)
    for j in fs:
        _check_facet(cx, j)
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
    if vertex is not None:
        _check_vertex(cx, vertex)
    wanted = [vertex] if vertex is not None else range(1, cx.n + 1)
    out: list[ExponentOffset] = []
    seen: set[ExponentOffset] = set()
    for i in wanted:
        parent = _vertex_parents(cx, i)
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
