"""Exact reduced simplicial homology over the rationals or a prime
field, and the Cohen-Macaulayness oracles built on it.

Everything here is exact: characteristic 0 uses Fractions, positive
characteristic uses residues.  No floating point is involved anywhere,
so rank decisions are never approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .complexes import MultiplicityAssignment, SimplicialComplex
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


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field, identified by its characteristic (0 or a prime)."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        c = self.characteristic
        if not isinstance(c, int) or isinstance(c, bool) or (c != 0 and not _is_prime(c)):
            raise InvalidCharacteristic(f"characteristic must be 0 or a prime, got {c!r}")


RATIONALS = FieldSpec(0)
GF2 = FieldSpec(2)


@dataclass(frozen=True)
class ExactMatrix:
    """Dense integer matrix interpreted over a fixed field."""

    field: FieldSpec
    nrows: int
    ncols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.nrows or any(
            len(r) != self.ncols for r in self.entries
        ):
            raise DimensionOutOfRange(
                f"entries do not form a {self.nrows} x {self.ncols} matrix"
            )

    def rank(self) -> int:
        p = self.field.characteristic
        if p:
            rows = [[x % p for x in r] for r in self.entries]
        else:
            rows = [[Fraction(x) for x in r] for r in self.entries]
        rank = 0
        for col in range(self.ncols):
            pivot = next(
                (r for r in range(rank, self.nrows) if rows[r][col] != 0), None
            )
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            lead = rows[rank][col]
            inv = pow(lead, p - 2, p) if p else 1 / lead
            for r in range(rank + 1, self.nrows):
                factor = rows[r][col] * inv
                if factor == 0:
                    continue
                if p:
                    rows[r] = [
                        (a - factor * b) % p for a, b in zip(rows[r], rows[rank])
                    ]
                else:
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
            if rank == self.nrows:
                break
        return rank


def boundary_matrix(cx: SimplicialComplex, q: int, field: FieldSpec = RATIONALS) -> ExactMatrix:
    """The q-th boundary map, rows indexed by (q-1)-faces, columns by
    q-faces, in the complex's canonical face order.  q = 0 is the
    augmentation onto the empty face; q = -1 is the 0 x 1 map out of it.
    """
    if q < -1 or q > cx.dim:
        raise DimensionOutOfRange(f"no boundary map in dimension {q}")
    if q == -1:
        return ExactMatrix(field, 0, 1, ())
    cols = cx.faces_of_dim(q)
    if q == 0:
        return ExactMatrix(field, 1, len(cols), (tuple(1 for _ in cols),))
    rows = cx.faces_of_dim(q - 1)
    index = {face: r for r, face in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for c, face in enumerate(cols):
        for k in range(len(face)):
            sub = face[:k] + face[k + 1 :]
            entries[index[sub]][c] = (-1) ** k
    return ExactMatrix(field, len(rows), len(cols), tuple(map(tuple, entries)))


@lru_cache(maxsize=None)
def reduced_homology_ranks(
    cx: SimplicialComplex, field: FieldSpec = RATIONALS
) -> tuple[int, ...]:
    """Ranks of the reduced homology groups in dimensions -1..dim."""
    if cx.is_void:
        raise VoidComplex("the void complex has no chain complex")
    face_counts = (1,) + cx.f_vector()
    boundary_ranks = [boundary_matrix(cx, q, field).rank() for q in range(-1, cx.dim + 1)]
    boundary_ranks.append(0)
    return tuple(
        face_counts[q + 1] - boundary_ranks[q + 1] - boundary_ranks[q + 2]
        for q in range(-1, cx.dim + 1)
    )


@lru_cache(maxsize=None)
def is_cm_complex(cx: SimplicialComplex, field: FieldSpec = RATIONALS) -> bool:
    """Cohen-Macaulayness of the complex itself over the given field,
    decided by checking that every face's link has vanishing reduced
    homology below its top dimension.

    The void complex and the irrelevant complex both count as
    Cohen-Macaulay.
    """
    if cx.is_void or cx.is_irrelevant:
        return True
    for face in cx.all_faces():
        ranks = reduced_homology_ranks(cx.link(face), field)
        if any(r != 0 for r in ranks[:-1]):
            return False
    return True


class OracleVerdict(NamedTuple):
    is_cm: bool
    witness: tuple[int, ...] | None

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
    """
    cx = mult.complex
    grids: list[tuple[int, ...]] = []
    cut: list[list[tuple[int, int]]] = []
    for i in range(1, cx.n + 1):
        values = mult.vertex_values(i)
        grids.append(tuple(sorted({0} | {v for _, v in values})))
        cut.append([(j - 1, v) for j, v in values])

    full_mask = (1 << cx.m) - 1
    memo: dict[tuple[int, int], tuple[int, ...] | None] = {}

    def suffix(t: int, alive: int) -> tuple[int, ...] | None:
        # Lex-least failing suffix for coordinates t.. given the still
        # alive facets, or None if every completion stays CM.
        key = (t, alive)
        if key in memo:
            return memo[key]
        if t == cx.n:
            surviving = tuple(
                f for j, f in enumerate(cx.facets) if alive >> j & 1
            )
            sub = SimplicialComplex(cx.n, surviving)
            result: tuple[int, ...] | None = (
                None if is_cm_complex(sub, field) else ()
            )
            memo[key] = result
            return result
        for a in grids[t]:
            narrowed = alive
            for j0, v in cut[t]:
                if a >= v:
                    narrowed &= ~(1 << j0)
            rest = suffix(t + 1, narrowed)
            if rest is not None:
                memo[key] = (a,) + rest
                return memo[key]
        memo[key] = None
        return None

    witness = suffix(0, full_mask)
    return OracleVerdict(witness is None, witness)
