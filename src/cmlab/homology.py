"""Exact reduced simplicial homology over the rationals or a prime
field, and the Cohen-Macaulayness oracles built on it.

Everything here is exact.  Ranks come from one sparse elimination
kernel: XOR on integer bitsets in characteristic 2, residues mod p in an
odd characteristic p, and fraction-free integer elimination with content
division in characteristic 0.  No floating point is involved anywhere,
so rank decisions are never approximate.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .complexes import Frozen, MultiplicityAssignment, SimplicialComplex
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
    for pairs in rows:
        row = _reduced(dict(pairs), p)
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
            row = _reduced(row, p)
    return len(pivots)


def _reduced(row: dict[int, int], p: int) -> dict[int, int]:
    """The nonzero entries of a row as residues mod p or, when p is 0,
    divided by their gcd."""
    if p:
        return {c: x % p for c, x in row.items() if x % p}
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


@lru_cache(maxsize=None)
def reduced_homology_ranks(
    cx: SimplicialComplex, field: FieldSpec = RATIONALS
) -> tuple[int, ...]:
    """Ranks of the reduced homology groups in dimensions -1..dim."""
    if cx.is_void:
        raise VoidComplex("the void complex has no chain complex")
    maps = [boundary_matrix(cx, q, field) for q in range(-1, cx.dim + 1)]
    ranks = [d.rank() for d in maps] + [0]
    return tuple(d.ncols - ranks[k] - ranks[k + 1] for k, d in enumerate(maps))


@lru_cache(maxsize=None)
def is_cm_complex(cx: SimplicialComplex, field: FieldSpec = RATIONALS) -> bool:
    """Cohen-Macaulayness of the complex itself over the given field,
    decided by checking that every face's link has vanishing reduced
    homology below its top dimension.

    Three shortcuts keep every verdict: Cohen-Macaulay implies pure; a
    cone is Cohen-Macaulay exactly when its base is, so the vertices
    common to all facets are stripped; a link of dimension <= 0 never
    fails, so the sweep stops at the first face that has one.  The void
    complex and the irrelevant complex both count as Cohen-Macaulay.
    """
    if cx.is_void or cx.is_irrelevant:
        return True
    if not cx.is_pure:
        return False
    apex = set(cx.facets[0]).intersection(*cx.facets[1:])
    if apex:
        cx = SimplicialComplex(cx.n, tuple(tuple(set(f) - apex) for f in cx.facets))
    for face in cx.all_faces():
        if len(face) >= cx.dim:
            break
        ranks = reduced_homology_ranks(cx.link(face), field)
        if any(r != 0 for r in ranks[:-1]):
            return False
    return True


class OracleVerdict(NamedTuple):
    is_cm: bool
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.is_cm


@lru_cache(maxsize=32)
def _subcomplex_verdicts(cx: SimplicialComplex, field: FieldSpec) -> dict[int, bool]:
    """The Cohen-Macaulay verdicts the oracle has reached on threshold
    subcomplexes of cx, keyed by the mask of their facets (facet j as
    bit j - 1), shared by every table on cx."""
    return {}


def _cuts(mult: MultiplicityAssignment) -> list[tuple[tuple[int, int], ...]]:
    """Per coordinate, the grid {0} union {table values} ascending, each
    value a paired with the mask of the facets that threshold a removes:
    those whose value at that vertex is at most a."""
    cuts = []
    for i in range(1, mult.complex.n + 1):
        by_value: dict[int, int] = {}
        for j, v in mult.vertex_values(i):
            by_value[v] = by_value.get(v, 0) | 1 << (j - 1)
        kill = 0
        cut = [(0, 0)]
        for v in sorted(by_value):
            kill |= by_value[v]
            cut.append((v, kill))
        cuts.append(tuple(cut))
    return cuts


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
    alive-facet mask) states, so n coordinates need no recursion; a
    state from which every completion stays Cohen-Macaulay is
    remembered for the call, a state with at most one facet (every
    narrowing a simplex or void) is never entered, and each surviving
    facet mask is decided once per complex and field.
    """
    cx = mult.complex
    n = cx.n
    cuts = _cuts(mult)
    verdicts = _subcomplex_verdicts(cx, field)

    def cm(alive: int) -> bool:
        verdict = verdicts.get(alive)
        if verdict is None:
            surviving = tuple(f for j, f in enumerate(cx.facets) if alive >> j & 1)
            sub = SimplicialComplex._of_canonical(n, surviving)
            verdict = verdicts[alive] = is_cm_complex(sub, field)
        return verdict

    full_mask = (1 << cx.m) - 1
    if n == 0:
        return OracleVerdict(True, None) if cm(full_mask) else OracleVerdict(False, ())
    dead: set[tuple[int, int]] = set()
    # Per open coordinate t: the alive mask before it and the next grid
    # position to try.
    alive = [full_mask]
    nxt = [0]
    while nxt:
        t = len(nxt) - 1
        k = nxt[t]
        if k == len(cuts[t]):
            dead.add((t, alive.pop()))
            nxt.pop()
            continue
        nxt[t] = k + 1
        narrowed = alive[t] & ~cuts[t][k][1]
        if not narrowed & (narrowed - 1):
            continue
        if t + 1 == n:
            if not cm(narrowed):
                witness = tuple(cut[p - 1][0] for cut, p in zip(cuts, nxt))
                return OracleVerdict(False, witness)
        elif (t + 1, narrowed) not in dead:
            alive.append(narrowed)
            nxt.append(0)
    return OracleVerdict(True, None)
