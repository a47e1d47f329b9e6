"""Shellability search, leaf orders of quasi-forests, free-vertex
checks, and the minimal-multiplicity classification report.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .complexes import SimplicialComplex, leaf_branches
from .errors import (
    FacetIndexOutOfRange,
    InternalInvariantViolation,
    NotCohenMacaulay,
    NotPermutation,
    NotPure,
    NotShellable,
    NotTreeFacetGraph,
)
from .graphs import facet_graph, is_tree
from .homology import RATIONALS, FieldSpec, is_cm_complex

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


def require_tree_case(cx: SimplicialComplex, field: FieldSpec | None = None) -> None:
    """Raise unless the complex is pure with a tree facet graph and, when
    a field is given, Cohen-Macaulay over it: the hypotheses of the
    tree-case criterion and of the constructions built on it."""
    if not cx.is_pure or not is_tree(facet_graph(cx)):
        raise NotTreeFacetGraph("the facet graph must be a tree")
    if field is not None and not is_cm_complex(cx, field):
        raise NotCohenMacaulay(
            f"complex is not Cohen-Macaulay in characteristic {field.characteristic}"
        )


def _check_permutation(cx: SimplicialComplex, order: Iterable[int]) -> tuple[int, ...]:
    seq = tuple(order)
    if sorted(seq) != list(range(1, cx.m + 1)):
        raise NotPermutation(f"expected a permutation of 1..{cx.m}, got {seq}")
    return seq


def _step_ok(new: set[int], previous: list[set[int]]) -> bool:
    # Inclusion-maximal intersections with earlier facets must all be
    # maximal proper faces of the new facet.
    caps = [p & new for p in previous]
    return all(
        len(c) == len(new) - 1
        for c in caps
        if not any(c < other for other in caps)
    )


def is_shelling(cx: SimplicialComplex, order: Iterable[int]) -> bool:
    if not cx.is_pure:
        raise NotPure("shellings are defined for pure complexes here")
    seq = _check_permutation(cx, order)
    placed: list[set[int]] = []
    for j in seq:
        new = set(cx.facets[j - 1])
        if placed and not _step_ok(new, placed):
            return False
        placed.append(new)
    return True


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
    if not cx.is_pure:
        raise NotPure("shellings are defined for pure complexes here")
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
            if not used or _step_ok(sets[j - 1], [sets[t - 1] for t in used]):
                order.append(j)
                if search(used | {j}):
                    return True
                order.pop()
        dead.add(used)
        return False

    return tuple(order) if search(frozenset()) else None


def is_leaf(cx: SimplicialComplex, j: int) -> tuple[bool, int | None]:
    """Whether facet j is a leaf, with the lowest branch as witness.

    A single-facet complex has a leaf with no branch.
    """
    if not 1 <= j <= cx.m:
        raise FacetIndexOutOfRange(f"facet index {j} not in 1..{cx.m}")
    if cx.m == 1:
        return True, None
    branches = leaf_branches(cx.facets, j - 1)
    if branches:
        return True, branches[0] + 1
    return False, None


class LeafOrder(NamedTuple):
    """Facet order where each facet is a leaf of the preceding ones,
    with the chosen branch recorded per position (None for the first)."""

    order: tuple[int, ...]
    branches: tuple[int | None, ...]


def find_leaf_order(cx: SimplicialComplex) -> LeafOrder | None:
    """Greedy reverse construction: repeatedly remove the lowest-index
    leaf of what remains.  Cross-checked against the exhaustive search
    in the test suite."""
    remaining = list(range(1, cx.m + 1))
    removed: list[tuple[int, int]] = []
    while len(remaining) > 1:
        step = None
        sub = tuple(cx.facets[t - 1] for t in remaining)
        for pos, j in enumerate(remaining):
            branches = leaf_branches(sub, pos)
            if branches:
                step = (j, remaining[branches[0]])
                break
        if step is None:
            return None
        removed.append(step)
        remaining.remove(step[0])
    order = tuple(remaining) + tuple(j for j, _ in reversed(removed))
    branches = (None,) * len(remaining) + tuple(g for _, g in reversed(removed))
    return LeafOrder(order, branches)


class ClassificationReport(NamedTuple):
    field: FieldSpec
    pure: bool
    strongly_connected: bool
    shellable: bool
    cohen_macaulay: bool
    minimal_multiplicity: bool
    quasi_tree: bool
    facet_graph_is_tree: bool
    cm_without_codim1_cycles: bool
    strongly_connected_quasi_tree: bool

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
    sc = facet_graph(cx).is_connected() if pure else False
    shellable = (find_shelling(cx) is not None) if pure else False
    cm = is_cm_complex(cx, field)
    mm = cx.has_minimal_multiplicity()
    qt = find_leaf_order(cx) is not None
    try:
        require_tree_case(cx)
        tree = True
    except NotTreeFacetGraph:
        tree = False
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
