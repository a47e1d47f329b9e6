"""Exact reduced simplicial homology over the rationals or a prime
field, and the Cohen-Macaulayness oracles built on it.

Everything here is exact.  Ranks come from one sparse elimination
kernel: XOR on integer bitsets in characteristic 2, residues mod p with
each pivot row scaled to lead with 1 in an odd characteristic p, and
fraction-free integer elimination with content division in
characteristic 0.  No floating point is involved anywhere,
so rank decisions are never approximate.

Reisner's test works on facet bitmasks.  Only closed faces, the
intersections of facets, are tested: any other face's link is a cone
and so acyclic.  A link has no reduced homology in degree 0 exactly
when it is connected, which bitmasks decide, so a link of dimension L
needs boundary ranks in degrees 2..L only.  Before any rank, a
connected link sheds the facets that meet the rest in a cone or in one
simplex, which keeps its homotopy type.  A quasi-tree's leaves are
such facets, and the links met on tree-satisfying stacked paths peel
down to one simplex; spheres shed nothing.  What is left is ranked on
boundary rows built straight from the vertex masks of its faces, with
no complex built; over Q the same rows are first ranked mod 2, which
can only confirm vanishing.  Each complex finds its closed faces once,
and every threshold subcomplex of it shares the link verdicts.

The oracle cuts each vertex's levels in turn and decides a state with
two facets on the spot: no later cut can split it otherwise than into
at most one facet.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd

from .complexes import (
    Frozen,
    MultiplicityAssignment,
    SimplicialComplex,
    _facet_masks,
    _leaf_branch,
    _per_complex,
    _Record,
)
from .errors import DimensionOutOfRange, InvalidCharacteristic, VoidComplex

__all__ = [
    "FieldSpec",
    "RATIONALS",
    "GF2",
    "ExactMatrix",
    "boundary_matrix",
    "reduced_homology_ranks",
    "is_cm_complex",
    "OracleVerdict",
    "is_cm_ideal_oracle",
]


# Strong probable primes to these bases are prime below _PRIME_LIMIT
# (Sorenson and Webster, 2015); larger characteristics are refused.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 318_665_857_834_031_151_167_461


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < _PRIME_LIMIT."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # 2**s exactly divides p - 1
    d = (p - 1) >> s
    for a in _WITNESSES:
        if pow(a, d, p) != 1 and all(pow(a, d << r, p) != p - 1 for r in range(s)):
            return False
    return True


class FieldSpec(Frozen):
    """Coefficient field, identified by its characteristic (0 or a prime)."""

    __slots__ = _fields = ("characteristic",)
    characteristic: int

    def __init__(self, characteristic: int = 0) -> None:
        c = characteristic
        if isinstance(c, int) and c >= _PRIME_LIMIT:
            raise InvalidCharacteristic(f"characteristic must be below {_PRIME_LIMIT}")
        if not isinstance(c, int) or isinstance(c, bool) or (c != 0 and not _is_prime(c)):
            raise InvalidCharacteristic(f"characteristic must be 0 or a prime, got {c!r}")
        self._freeze(c)


RATIONALS = FieldSpec(0)
GF2 = FieldSpec(2)


def _rank(rows: tuple[tuple[tuple[int, int], ...], ...], p: int) -> int:
    """Rank over GF(p), or over the rationals when p is 0, of the integer
    matrix with these sparse rows of (column, value) pairs, columns
    strictly ascending.  Each row is reduced against the pivot rows kept
    so far, keyed by leading column, until it vanishes or leads in a new
    column."""
    if p == 2:
        bit_pivots: dict[int, int] = {}
        for row in rows:
            bits = sum(1 << c for c, x in row if x & 1)
            while bits and (lead := bits.bit_length()) in bit_pivots:
                bits ^= bit_pivots[lead]
            if bits:
                bit_pivots[lead] = bits
        return len(bit_pivots)
    pivots: dict[int, dict[int, int]] = {}
    if p:
        # each pivot row is scaled to lead with 1 and kept without its
        # lead, so a row with lead f drops it and subtracts f * pivot
        for pairs in rows:
            row = {c: x % p for c, x in pairs if x % p}
            while row:
                lead = min(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    unit = pow(row.pop(lead), -1, p)
                    pivots[lead] = {c: x * unit % p for c, x in row.items()}
                    break
                f = row.pop(lead)
                for c, x in pivot.items():
                    # f * x is a unit mod p, so a residue 0 was an entry
                    x = (row.get(c, 0) - f * x) % p
                    if x:
                        row[c] = x
                    else:
                        del row[c]
        return len(pivots)
    for pairs in rows:
        row = _primitive(dict(pairs))
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            # a * row - b * pivot cancels the lead without any division
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            row = {c: a * x for c, x in row.items()}
            for c, x in pivot.items():
                row[c] = row.get(c, 0) - b * x
            row = _primitive(row)
    return len(pivots)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The nonzero entries of an integer row divided by their gcd."""
    content = gcd(*row.values())
    return {c: x // content for c, x in row.items() if x}


class ExactMatrix(Frozen):
    """Integer matrix over a fixed field, kept as sparse rows: each row is
    a tuple of (column, value) pairs with int values and columns strictly
    ascending in 0..ncols-1; omitted entries are zero."""

    __slots__ = _fields = ("field", "ncols", "rows")
    field: FieldSpec
    ncols: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(
        self, field: FieldSpec, ncols: int, rows: tuple[tuple[tuple[int, int], ...], ...]
    ) -> None:
        for r, row in enumerate(rows):
            last = -1
            for c, x in row:
                if type(c) is not int or type(x) is not int or not last < c < ncols:
                    raise DimensionOutOfRange(
                        f"row {r} needs int values at ascending columns in 0..{ncols - 1}"
                    )
                last = c
        self._freeze(field, ncols, rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def rank(self) -> int:
        return _rank(self.rows, self.field.characteristic)


def boundary_matrix(cx: SimplicialComplex, q: int, field: FieldSpec = RATIONALS) -> ExactMatrix:
    """The q-th boundary map, rows indexed by (q-1)-faces, columns by
    q-faces, in the complex's canonical face order.  q = 0 is the
    augmentation onto the empty face; q = -1 is the 0 x 1 map out of it.
    """
    if q < -1 or q > cx.dim:
        raise DimensionOutOfRange(f"no boundary map in dimension {q}")
    cols = cx.faces_of_dim(q)
    index = {face: r for r, face in enumerate(cx.faces_of_dim(q - 1))}
    rows: list[list[tuple[int, int]]] = [[] for _ in index]
    for c, face in enumerate(cols):
        for k in range(len(face)):
            rows[index[face[:k] + face[k + 1 :]]].append((c, (-1) ** k))
    return ExactMatrix(field, len(cols), tuple(map(tuple, rows)))


@_per_complex
def reduced_homology_ranks(
    cx: SimplicialComplex, field: FieldSpec = RATIONALS
) -> tuple[int, ...]:
    """Ranks of the reduced homology groups in dimensions -1..dim."""
    if cx.is_void:
        raise VoidComplex("the void complex has no chain complex")
    maps = [boundary_matrix(cx, q, field) for q in range(-1, cx.dim + 1)]
    ranks = [d.rank() for d in maps] + [0]
    return tuple(d.ncols - ranks[k] - ranks[k + 1] for k, d in enumerate(maps))


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Sweep:
    """Reisner's test on facet masks (facet j as bit j - 1) for one
    complex over one field, shared by is_cm_complex and every oracle
    table on the complex.  Vertex v is bit v of a vertex mask.

    Only closed faces, the intersections of facets, need a test: if
    every facet containing a face F also contains a vertex v outside F,
    the link of F is a cone over v and so acyclic.  A closed face of the
    subcomplex on the facets A is a closed face of the whole complex,
    and with S the facets containing such a face, the facets of A that
    contain the closed face meet(S & A) are exactly S & A.  So each
    subcomplex takes the keys S & A, and the verdict on a key K, the
    test of meet(K) in the complex on the facets K, serves every
    subcomplex.  Keys whose links are equal share one verdict.

    The sweep is kept on its complex, per field, and keeps no reference
    to the complex, so that the two form no reference cycle and the
    sweep dies with the complex.  Whether the complex is pure is decided
    once: on a pure complex every subcomplex is pure.
    """

    __slots__ = ("field", "facet_bits", "pure", "closed", "_keys", "_links", "_verdicts")

    def __init__(self, cx: SimplicialComplex, field: FieldSpec) -> None:
        self.field = field
        fb, incidence = _facet_masks(cx)
        self.facet_bits = fb
        # A nonempty meet of facets holds some vertex v, so it is a meet
        # of the facets that hold v: each vertex star is closed under
        # meets on its own, and the meet of all facets is the one meet
        # that may be empty.
        bottom = -1 if fb else 0
        for x in fb:
            bottom &= x
        faces = {bottom}
        for star in incidence:
            meets = set()
            for j in _bits(star):
                meets |= {x & fb[j] for x in meets}
                meets.add(fb[j])
            faces |= meets
        # Per closed face, the facets containing it.  Faces of top - 1 or
        # more vertices have links of dimension <= 0 in every subcomplex.
        top = max((x.bit_count() for x in fb), default=0)
        self.pure = all(x.bit_count() == top for x in fb)
        self.closed = []
        for x in faces:
            if x.bit_count() <= top - 2:
                containing = (1 << cx.m) - 1
                for v in _bits(x):
                    containing &= incidence[v]
                self.closed.append(containing)
        self._keys: dict[int, bool] = {}
        self._links: dict[tuple[int, ...], bool] = {}
        self._verdicts: dict[int, bool] = {}

    def is_cm(self, alive: int) -> bool:
        """The verdict on the subcomplex generated by the facets in alive."""
        verdict = self._verdicts.get(alive)
        if verdict is None:
            verdict = self._verdicts[alive] = self._decide(alive)
        return verdict

    def _decide(self, alive: int) -> bool:
        if not alive & (alive - 1):
            return True  # void, or a single simplex
        fb = self.facet_bits
        d = fb[(alive & -alive).bit_length() - 1].bit_count()
        if not self.pure and any(fb[j].bit_count() != d for j in _bits(alive)):
            return False  # Cohen-Macaulay implies pure
        keys = self._keys
        for key in {s & alive for s in self.closed}:
            if key & (key - 1):
                ok = keys.get(key)
                if ok is None:
                    ok = keys[key] = self._key_is_cm(key, d)
                if not ok:
                    return False
        return True

    def _key_is_cm(self, key: int, d: int) -> bool:
        """Reisner's condition at meet(key) in the complex on the facets
        in key, each of d vertices."""
        fb = self.facet_bits
        face = -1
        for j in _bits(key):
            face &= fb[j]
        top = d - face.bit_count() - 1
        if top <= 0:
            return True
        link = tuple(fb[j] & ~face for j in _bits(key))
        ok = self._links.get(link)
        if ok is None:
            ok = self._links[link] = self._link_is_cm(link, top)
        return ok

    def _link_is_cm(self, link: tuple[int, ...], top: int) -> bool:
        """Whether the pure complex of dimension top >= 1 with these facet
        vertex masks, in canonical order, has no reduced homology below
        dimension top.  Being nonempty, it has none in degree -1; it has
        none in degree 0 exactly when it is connected, and then d_1 has
        rank (vertices - 1), so only d_2 .. d_top need ranks, and only
        for what peeling leaves when that is more than one simplex."""
        reach, rest = link[0], link[1:]
        while rest:
            left = []
            for x in rest:
                if x & reach:
                    reach |= x
                else:
                    left.append(x)
            if len(left) == len(rest):
                return False
            rest = left
        if top == 1:
            return True
        link = _peeled(link)
        if len(link) == 1:
            return True
        vertices = 0
        for x in link:
            vertices |= x
        chain = _chain_rows(link, top)
        # An integer matrix has rank over Q at least its rank mod 2, so
        # homology that vanishes over GF(2) vanishes over Q, and the XOR
        # kernel is tried first on the same rows.
        p = self.field.characteristic
        if p == 0 and _acyclic(chain, vertices.bit_count(), 2):
            return True
        return _acyclic(chain, vertices.bit_count(), p)


def _peeled(facets: tuple[int, ...]) -> tuple[int, ...]:
    """The facets, as vertex masks of a complex, left in their order
    after deleting, while one exists, a facet F whose nonempty meets with
    the other facets either share a vertex (F meets the rest in a cone)
    or all lie inside one of them (F is a leaf: it meets the rest in one
    simplex).  Then F and its meet with the rest are contractible, so
    the deletion keeps the homotopy type and the reduced homology over
    every field.  A facet is kept as soon as its meets share no vertex
    and cover it, since no meet, a proper face of F, can then contain
    the others; without that early stop, spheres, which never peel,
    would pay a full scan per facet."""
    kept = list(facets)
    peeling = True
    while peeling and len(kept) > 1:
        peeling = False
        k = 0
        while k < len(kept):
            f = kept[k]
            # a meet equals f only for g == f, facets being distinct
            common, union = -1, 0
            for g in kept:
                meet = f & g
                if meet and meet != f:
                    common &= meet
                    union |= meet
                    if not common and union == f:
                        break
            else:
                if union and (common or _leaf_branch(kept, range(len(kept)), k) is not None):
                    del kept[k]
                    peeling = True
                    continue
            k += 1
    return tuple(kept)


def _chain_rows(facets: tuple[int, ...], top: int) -> list[tuple[int, list[tuple]]]:
    """Per q = 1..top - 1 ascending, the number of q-faces of the pure
    complex of dimension top with these facet vertex masks, and the rows
    of d_{q+1}: one per (q+1)-face, listing its q-faces with alternating
    signs in ascending vertex order, columns ascending.  That is the
    transpose of boundary_matrix's d_{q+1}, so it has the same rank.
    Each layer of faces comes from the one above by dropping a vertex
    and is indexed in ascending mask order, so dropping a higher vertex
    gives a lower column."""
    chain = []
    layer = sorted(facets)
    for _ in range(top - 1):
        below = sorted({x ^ (1 << v) for x in layer for v in _bits(x)})
        index = {x: c for c, x in enumerate(below)}
        rows = []
        for x in layer:
            row = []
            sign = 1
            y = x
            while y:
                b = y & -y
                row.append((index[x ^ b], sign))
                sign = -sign
                y ^= b
            row.reverse()
            rows.append(tuple(row))
        chain.append((len(below), rows))
        layer = below
    chain.reverse()
    return chain


def _acyclic(chain: list[tuple[int, list[tuple]]], vertices: int, p: int) -> bool:
    """Whether a connected complex with this many vertices and these
    _chain_rows has no reduced homology in degrees 1..top - 1 over GF(p),
    or over Q when p is 0."""
    rank = vertices - 1  # of d_1, the complex being connected
    for faces, rows in chain:
        after = _rank(rows, p)
        if faces != rank + after:
            return False
        rank = after
    return True


@_per_complex
def _sweep(cx: SimplicialComplex, field: FieldSpec) -> _Sweep:
    return _Sweep(cx, field)


@_per_complex
def is_cm_complex(cx: SimplicialComplex, field: FieldSpec = RATIONALS) -> bool:
    """Cohen-Macaulayness of the complex itself over the given field, by
    Reisner's criterion: every face's link has vanishing reduced
    homology below its top dimension.

    Cohen-Macaulay implies pure, so a complex that is not pure fails at
    once.  Only closed faces are tested, the intersections of facets:
    any other face's link is a cone and so acyclic, which covers both
    the vertices common to all facets and every face whose link has
    dimension <= 0.  A link passes degree 0 exactly when it is connected,
    which bitmasks decide, so a 1-dimensional link needs no matrix.  The
    void complex and the irrelevant complex both count as Cohen-Macaulay.
    """
    return _sweep(cx, field).is_cm((1 << cx.m) - 1)


class OracleVerdict(_Record, fields="is_cm witness"):
    """Whether the ideal is Cohen-Macaulay, and the failing threshold
    vector (a tuple of ints) or None."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.is_cm


def is_cm_ideal_oracle(
    mult: MultiplicityAssignment, field: FieldSpec = RATIONALS
) -> OracleVerdict:
    """Cohen-Macaulayness of the monomial ideal determined by the
    exponent table, decided by checking every threshold subcomplex.

    Per coordinate only thresholds in {0} union {table values} can
    change which facets survive, so the search runs over that grid; the
    returned witness is the lexicographically smallest failing threshold
    vector over the full box, or None when the ideal is Cohen-Macaulay.

    The walk is depth-first on an explicit stack over (coordinate,
    alive-facet mask) states, so n coordinates need no recursion, and
    each surviving facet mask is decided once per complex and field, by
    the sweep kept on the complex.  The threshold a at vertex i removes
    the facets of i's levels up to a, whose masks are disjoint and ascend
    in value, so a coordinate cuts its levels in turn, each from the mask
    its cuts so far left, the cut 0 first; those masks are nested.

    A state with at most one facet is never entered: every narrowing of
    it is a simplex or void, and so Cohen-Macaulay.  Once a cut leaves
    at most one facet, so does every later cut at that coordinate, which
    ends there.  A state with exactly two facets is not entered either
    but decided on the spot: every later cut keeps both facets or leaves
    at most one, so the only completion that can fail is the mask
    itself, which the completion by zeros reaches first in lexicographic
    order.  A failure there has the values of the open cuts followed by
    zeros as its lex-least witness.

    A mask whose state finished is never entered again, at any
    coordinate.  At a coordinate t' >= t that is sound as the cut 0
    removes nothing, so t' reaches a subset of t's completions.  At
    t' < t: say A finished at t under the prefix p and is reached at t'
    under a later prefix q.  Each coordinate's cuts leave nested masks,
    so a completion of (t', A) is the mask of the grid point that keeps
    p's first t' choices, takes the larger of p's and the completion's
    value at coordinates t'..t-1, and the completion's after.  That point
    extends p's first t' choices, and the walk is lexicographic, so it
    had finished their whole subtree with no failure before it reached q.
    """
    cx = mult.complex
    n = cx.n
    levels = mult.levels
    cm = _sweep(cx, field).is_cm
    full_mask = (1 << cx.m) - 1
    if n == 0:
        return OracleVerdict(True, None) if cm(full_mask) else OracleVerdict(False, ())
    # The masks known to stay Cohen-Macaulay from every coordinate.
    dead: set[int] = set()
    # Per open coordinate 0..t: the alive mask before it, the mask its
    # cuts so far leave, its last cut's value and its next level's position.
    alive, left, value, nxt = [full_mask] * n, [full_mask] * n, [0] * n, [0] * n
    narrowed, t = full_mask, 0
    while True:
        rest = narrowed & (narrowed - 1)
        if not rest:
            nxt[t] = len(levels[t + 1])  # the later cuts kill at least as much
        elif t + 1 == n or not rest & (rest - 1):
            if not cm(narrowed):
                return OracleVerdict(False, (*value[: t + 1], *(0,) * (n - t - 1)))
        elif narrowed not in dead:
            t += 1
            alive[t] = left[t] = narrowed
            value[t] = nxt[t] = 0
            continue
        while nxt[t] == len(levels[t + 1]):
            dead.add(alive[t])
            if not t:
                return OracleVerdict(True, None)
            t -= 1
        value[t], kill = levels[t + 1][nxt[t]]
        nxt[t] += 1
        narrowed = left[t] = left[t] & ~kill
