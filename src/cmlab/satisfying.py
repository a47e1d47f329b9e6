"""Combinatorial Cohen-Macaulayness checks for the ideal attached to an
exponent table: the tree-case criterion (exact), the quasi-tree
criterion (sufficient only), the shelling-based condition (neither),
the uniform-block criterion, and the semigroup of tree-case tables.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Mapping
from itertools import chain, combinations, compress, permutations, repeat
from operator import lt

from .complexes import (
    ExponentOffset,
    MultiplicityAssignment,
    SimplicialComplex,
    _facet_masks,
    _pair_id,
    _per_complex,
    _Record,
)
from .errors import (
    FacetIndexOutOfRange,
    HypothesesViolated,
    NotPure,
    NotShellable,
    RestrictionNotTree,
    VertexOutOfRange,
)
from .graphs import (
    ROOT,
    FacetLevelGraph,
    _ridge_groups,
    facet_graph,
    require_quasi_tree,
    rooted_walk,
)
from .homology import RATIONALS, FieldSpec, _bits, is_cm_complex
from .structure import _shelling, _tier_order, require_tree_case

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
) -> tuple[tuple[tuple[tuple[int, ...], int, int, tuple | None], ...], array, array]:
    """Per ridge clique: its facets, ascending, and its oriented edges
    x -> y at the vertices i in neither facet.  A clique of two facets
    keeps them as its run start:stop of two flat arrays, the pair ids of
    (x, i) and (y, i).  A larger clique keeps them as split: the pair ids
    of each of its facets with each vertex anchored at it, and per edge
    the positions of its two pairs there, its slot x * k + y and its
    anchor.

    Dropping the clique's edges splits a relation tree into one part per
    clique facet j, hang[j]: j's walk subtree (every facet, at the
    clique's top) minus its clique children's.  The facets containing a
    vertex i outside the clique's ridge form a subtree of every relation
    tree, so they lie in one part, that of i's anchor.  A clique-tree
    edge x-y orients the restriction to i as x -> y exactly when i's
    anchor is on x's side, so x -> y is kept at each vertex anchored
    anywhere but at y.  A vertex in no facet leaves no tree.

    The tree criterion reads the flat arrays: a Cohen-Macaulay complex
    with a tree facet graph is a quasi-tree whose ridge cliques are
    single edges.  The facets holding a vertex are joined through
    ridges, so a leaf F of the facet tree has a vertex in F alone, and
    gluing F along a whole ridge keeps every link's homology."""
    require_quasi_tree(cx)
    masks, _ = _facet_masks(cx)
    _require_covered(cx)
    walk, _ = rooted_walk(facet_graph(cx).adjacency, range(2, cx.m + 1), 1)
    parent = {c: p for p, c in walk}
    # reach[j]: the vertices of the facets in j's walk subtree
    reach = [0, *masks]
    for p, c in reversed(walk):
        reach[p] |= reach[c]
    out, parents, children = [], array("q"), array("q")
    for group in _ridge_groups(cx):
        nodes = tuple(j for j, _ in group)
        k = len(nodes)
        ridge = masks[nodes[0] - 1] ^ 1 << group[0][1]
        # the vertices anchored at each clique facet: those of hang[j] off the ridge
        anchored = {j: reach[j if parent.get(j) in nodes else 1] & ~ridge for j in nodes}
        for j in nodes:
            if parent.get(j) in nodes:
                anchored[parent[j]] &= ~reach[j]
        # per anchor, its vertices; at x itself, without x's own vertex
        away = [list(_bits(anchored[j])) for j in nodes]
        home = [[i for i in at if i != v] for at, (_, v) in zip(away, group)]
        ids = [_pair_id(cx, j, 0) for j in nodes]
        start = len(parents)
        if k == 2:
            for x, y in ((0, 1), (1, 0)):
                parents.extend(ids[x] + i for i in home[x])
                children.extend(ids[y] + i for i in home[x])
            out.append((nodes, start, len(parents), None))
            continue
        held = [i for at in away for i in at]
        spot = {i: q for q, i in enumerate(held)}
        w = len(held)
        ups, downs, slots, anchors = array("i"), array("i"), array("i"), array("i")
        for x, y in permutations(range(k), 2):
            for a in range(k):
                if a != y:
                    at = [spot[i] for i in (home[a] if a == x else away[a])]
                    ups.extend(x * w + q for q in at)
                    downs.extend(y * w + q for q in at)
                    slots.extend(repeat(x * k + y, len(at)))
                    anchors.extend(repeat(a, len(at)))
        pairs = tuple(ids[x] + i for x in range(k) for i in held)
        out.append((nodes, start, start, (pairs, ups, downs, slots, anchors)))
    return tuple(out), parents, children


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
    """Per ridge clique its facets and, per slot x*k + y, the mask of
    the anchors of the vertices at which the table grows along x -> y;
    None at the first clique with no passing tree.  A clique of two
    facets has one tree, which passes unless some edge grows."""
    get = mult._pair_values().get
    cliques, parents, children = _clique_masks(mult.complex)
    ones = repeat(1)
    passing = []
    for nodes, start, stop, split in cliques:
        k = len(nodes)
        bad = [0] * (k * k)
        if split is None:
            ps, cs = parents[start:stop], children[start:stop]
            if any(map(lt, map(get, ps, ones), map(get, cs, ones))):
                return None
        else:
            pairs, ups, downs, slots, anchors = split
            value = list(map(get, pairs, ones)).__getitem__
            grows = map(lt, map(value, ups), map(value, downs))
            for s, a in compress(zip(slots, anchors), grows):
                bad[s] |= 1 << a
            if not _tree_exists(k, bad):
                return None
        passing.append((nodes, bad))
    return passing


def is_quasitree_satisfying(mult: MultiplicityAssignment) -> SatisfyingVerdict:
    """Search for one relation tree whose every vertex restriction
    satisfies the non-increase condition; the first such tree in
    canonical order is returned as witness.  A relation tree passes
    exactly when its tree in every ridge clique does, so the witness is
    the union of each clique's first passing tree."""
    passing = _passing_cliques(mult)
    if passing is None:
        return SatisfyingVerdict(False, (), None)
    chosen = [
        (nodes[x], nodes[y]) for nodes, bad in passing for x, y in _first_tree(len(nodes), bad)
    ]
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
    its tiers (see _shelling), the facets holding it and then its levels
    by descending value, and the first tier it cannot complete fails."""
    cx = mult.complex
    # shellable implies Cohen-Macaulay over every field, so over Q too
    if cx.is_pure and not is_cm_complex(cx, RATIONALS):
        raise NotShellable("complex is not shellable")
    if not cx.is_pure:
        raise NotPure("shellings are defined for pure complexes here")
    holders = _facet_masks(cx)[1]
    held, shelled = True, False
    for i, levels in enumerate(mult.levels):
        if not levels:
            continue
        placed = holders[i]
        held = not placed or _tier_order(cx, 0, placed) is not None
        for _, mask in reversed(levels) if held else ():
            if _tier_order(cx, placed, mask) is None:
                held = False
                break
            placed |= mask
        if not held:
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
