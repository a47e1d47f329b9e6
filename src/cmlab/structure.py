"""Shellability search, the leaf test of quasi-forests, free-vertex
checks, and the minimal-multiplicity classification report.
"""

from __future__ import annotations

from collections.abc import Iterable

from .complexes import (
    SimplicialComplex,
    _check_facet,
    _check_vertex,
    _facet_masks,
    _leaf_branch,
    _per_complex,
    _Record,
)
from .errors import InternalInvariantViolation, NotPermutation, NotPure, NotShellable
from .graphs import (
    LeafOrder,
    _facet_walk,
    _ridge_groups,
    facet_graph,
    find_leaf_order,
    require_tree_case,
)
from .homology import RATIONALS, FieldSpec, _bits, is_cm_complex

__all__ = [
    "is_shelling",
    "find_shelling",
    "is_leaf",
    "LeafOrder",
    "find_leaf_order",
    "ClassificationReport",
    "classify",
    "free_vertex_of_last",
    "require_tree_case",
]


def _check_permutation(cx: SimplicialComplex, order: Iterable[int]) -> tuple[int, ...]:
    seq = tuple(order)
    ints = all(isinstance(j, int) and not isinstance(j, bool) for j in seq)
    if not ints or sorted(seq) != list(range(1, cx.m + 1)):
        raise NotPermutation(f"expected a permutation of 1..{cx.m}, got {seq}")
    return seq


@_per_complex
def _ridge_masks(
    cx: SimplicialComplex,
) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """The bitmasks of the shelling step test, the facet at position j
    of cx.facets (0-based) being bit j.

    Per facet j: the mask of the facets that share a ridge with it, and
    for each such facet t the pair (t, holders), where holders is the
    mask of the facets containing the one vertex of j outside t."""
    _, containing = _facet_masks(cx)
    neighbours = [0] * cx.m
    pairs: list[list[tuple[int, int]]] = [[] for _ in cx.facets]
    for group in _ridge_groups(cx):
        for j, v in group:
            for t, _ in group:
                if t != j:
                    neighbours[j - 1] |= 1 << (t - 1)
                    pairs[j - 1].append((t - 1, containing[v]))
    return tuple(neighbours), tuple(map(tuple, pairs))


def _extends(pairs: tuple[tuple[int, int], ...], used: int) -> bool:
    """Whether a facet F, given by its ridge pairs, extends the nonempty
    shelling prefix whose facets are the bits of used.

    Let R be the vertices v of F such that F minus v lies in a placed
    facet.  The step is valid exactly when R is nonempty and no placed
    facet P contains R (R & ~P != 0 for every P): then every maximal
    intersection of F with a placed facet is a ridge of F.  The placed
    facets containing R are used ANDed with the holders of each vertex
    of R, and that AND is used itself when R is empty."""
    common = used
    for t, holders in pairs:
        if used >> t & 1:
            common &= holders
    return not common


def is_shelling(cx: SimplicialComplex, order: Iterable[int]) -> bool:
    if not cx.is_pure:
        raise NotPure("shellings are defined for pure complexes here")
    seq = _check_permutation(cx, order)
    _, ridges = _ridge_masks(cx)
    used = 0
    for j in seq:
        if used and not _extends(ridges[j - 1], used):
            return False
        used |= 1 << (j - 1)
    return True


def _tiers(
    cx: SimplicialComplex,
    prefix_vertex: int | None,
    weights: dict[int, int] | None,
) -> list[int]:
    """The facet masks a shelling must exhaust in turn: all facets, or,
    with a prefix vertex, the facets containing it and then the rest,
    split by descending weight when weights are given."""
    full = (1 << cx.m) - 1
    if prefix_vertex is None:
        return [full]
    _check_vertex(cx, prefix_vertex)
    first = _facet_masks(cx)[1][prefix_vertex]
    rest = full & ~first
    if not weights:
        return [first, rest]
    by_weight: dict[int, int] = {}
    for j in range(cx.m):
        if rest >> j & 1:
            w = weights[j + 1]
            by_weight[w] = by_weight.get(w, 0) | 1 << j
    return [first] + [by_weight[w] for w in sorted(by_weight, reverse=True)]


def find_shelling(
    cx: SimplicialComplex,
    *,
    prefix_vertex: int | None = None,
    weights: dict[int, int] | None = None,
) -> tuple[int, ...] | None:
    """Backtracking shelling search, facets tried in ascending index.

    With prefix_vertex set, only orders where every facet containing
    that vertex precedes every facet omitting it are considered; with
    weights set as well, the omitting facets must additionally appear
    with non-increasing weight.  Returns the first witness, or None.
    """
    return _shelling(cx, _tiers(cx, prefix_vertex, weights))


def _shelling(cx: SimplicialComplex, tiers: list[int]) -> tuple[int, ...] | None:
    """The first shelling, facets tried in ascending index, that places
    every facet of each tier, a facet mask, before any facet of a later
    one; the tiers cover all facets.  None when there is none.

    Whether a facet extends a prefix depends only on the set of facets
    placed, and every order of a tier ends on the same set, the earlier
    tiers and that tier.  So each tier is searched from that fixed set
    alone, the first shelling is the concatenation of each tier's first
    order, and a tier that cannot be completed ends the search.
    """
    if not cx.is_pure:
        raise NotPure("shellings are defined for pure complexes here")
    order: list[int] = []
    placed = 0
    for tier in tiers:
        tier &= ~placed
        if tier:
            part = _tier_order(cx, placed, tier)
            if part is None:
                return None
            order += part
            placed |= tier
    return tuple(order) if placed == (1 << cx.m) - 1 else None


@_per_complex(maxsize=1024)
def _tier_order(cx: SimplicialComplex, placed: int, tier: int) -> tuple[int, ...] | None:
    """The first order, facets tried in ascending index, in which the
    facets of tier, a nonempty facet mask disjoint from placed, extend
    one by one the shelling prefix whose facets are placed; None when
    there is none.  Kept on the complex, so every vertex, table and call
    that reaches the same placed set and tier shares one search; the
    searches grow with the tables decided, so a complex keeps at most
    1,024 of them, the least recently used dropped first.

    The search is depth-first on an explicit stack, so a long tier
    needs no recursion.  Prefixes are facet bitmasks; only facets that
    share a ridge with a placed one can extend a nonempty prefix, and
    prefixes that extend to no order of the tier are remembered.
    """
    neighbours, ridges = _ridge_masks(cx)
    reach = 0
    for j in _bits(placed):
        reach |= neighbours[j]
    full = placed | tier
    order: list[int] = []
    dead: set[int] = set()
    # Open prefixes as [placed facets, their ridge neighbours, untried].
    stack = [[placed, reach, tier & reach if placed else tier]]
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
        stack.append([grown, reach, full & ~grown & reach])
    return None


def is_leaf(cx: SimplicialComplex, j: int) -> tuple[bool, int | None]:
    """Whether facet j is a leaf, with the lowest branch as witness.

    A single-facet complex has a leaf with no branch.
    """
    _check_facet(cx, j)
    if cx.m == 1:
        return True, None
    g = _leaf_branch(_facet_masks(cx)[0], range(cx.m), j - 1)
    return (False, None) if g is None else (True, g + 1)


class ClassificationReport(_Record, fields=(
    "field pure strongly_connected shellable cohen_macaulay minimal_multiplicity"
    " quasi_tree facet_graph_is_tree cm_without_codim1_cycles strongly_connected_quasi_tree"
)):
    """The FieldSpec of a classification and its structural booleans."""

    __slots__ = ()

    def flags(self) -> tuple[tuple[str, bool], ...]:
        return tuple((name, flag) for name, flag in zip(self._fields, self) if name != "field")


def classify(cx: SimplicialComplex, field: FieldSpec = RATIONALS) -> ClassificationReport:
    """Structural booleans for one complex over one field.

    Also cross-checks that the four minimal-multiplicity
    characterizations (strongly connected / Cohen-Macaulay / shellable,
    each with minimal multiplicity, and strongly connected quasi-tree)
    agree, and refuses to return a report that would break that.
    """
    pure = cx.is_pure
    sc = pure and _facet_walk(cx)[1]
    cm = is_cm_complex(cx, field)
    # A shellable complex is Cohen-Macaulay over every field.
    shellable = cm and find_shelling(cx) is not None
    mm = cx.has_minimal_multiplicity()
    qt = find_leaf_order(cx) is not None
    tree = pure and _facet_walk(cx)[2]
    report = ClassificationReport(
        field=field,
        pure=pure,
        strongly_connected=sc,
        shellable=shellable,
        cohen_macaulay=cm,
        minimal_multiplicity=mm,
        quasi_tree=qt,
        facet_graph_is_tree=tree,
        cm_without_codim1_cycles=cm and tree,
        strongly_connected_quasi_tree=sc and qt,
    )
    covered = cx.is_void or len(cx.vertices) == cx.n
    if covered:
        conditions = (sc and mm, cm and mm, shellable and mm, sc and qt)
        if len(set(conditions)) != 1:
            raise InternalInvariantViolation(
                f"minimal-multiplicity characterizations disagree: {conditions} "
                f"on facets {cx.facets}"
            )
    return report


def free_vertex_of_last(cx: SimplicialComplex, order: Iterable[int]) -> bool:
    """Whether the last facet of the shelling has degree 1 in the facet
    graph; the facet graph must be a tree."""
    require_tree_case(cx)
    seq = _check_permutation(cx, order)
    if not is_shelling(cx, seq):
        raise NotShellable(f"{seq} is not a shelling")
    if cx.m == 1:
        return True
    return facet_graph(cx).degree(seq[-1]) == 1
