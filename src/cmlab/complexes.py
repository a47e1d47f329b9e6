"""Simplicial complexes stored by facet lists, plus the exponent tables
attached to them.

Vertices are the integers 1..n.  A complex keeps its facets
(inclusion-maximal faces) canonically sorted, so equal complexes compare
equal and serialize identically.  Two degenerate values are
representable because links and threshold subcomplexes produce them:
the void complex (no faces at all) and the irrelevant complex whose
only face is the empty set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, Mapping

from .errors import (
    EmptyFacet,
    FaceNotInComplex,
    MultiplicityDomainMismatch,
    NotPure,
    UncoveredVertex,
    VertexOutOfRange,
    VoidComplex,
)

__all__ = [
    "Face",
    "SimplicialComplex",
    "MultiplicityAssignment",
    "ExponentOffset",
    "leaf_branches",
]

Face = tuple[int, ...]


def _canonical_facets(raw: Iterable[Iterable[int]]) -> tuple[Face, ...]:
    faces = {tuple(sorted(set(f))) for f in raw}
    facets = [f for f in faces if not any(set(f) < set(g) for g in faces)]
    return tuple(sorted(facets))


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex on vertex set {1..n}, given by its facets.

    The constructor canonicalizes: facets are sorted vertex tuples,
    duplicates and non-maximal faces are absorbed, and the facet list is
    sorted lexicographically.  Use :meth:`from_facets` for validated
    construction from user input; the raw constructor is for internal
    values (links, subcomplexes) that may leave vertices uncovered.
    """

    n: int
    facets: tuple[Face, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "facets", _canonical_facets(self.facets))

    @classmethod
    def from_facets(cls, n: int, raw_facets: Iterable[Iterable[int]]) -> SimplicialComplex:
        """Build a complex from raw facet input, validating vertex cover."""
        facets = [tuple(sorted(set(f))) for f in raw_facets]
        for f in facets:
            if not f:
                raise EmptyFacet("facets must be non-empty vertex sets")
            for v in f:
                if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
                    raise VertexOutOfRange(f"vertex {v!r} not in 1..{n}")
        covered = set(itertools.chain.from_iterable(facets))
        missing = sorted(set(range(1, n + 1)) - covered)
        if missing:
            raise UncoveredVertex(f"vertices {missing} appear in no facet")
        return cls(n, tuple(facets))

    # The facet count; the ambient vertex count is the field n.
    @property
    def m(self) -> int:
        return len(self.facets)

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_irrelevant(self) -> bool:
        return self.facets == ((),)

    @property
    def dim(self) -> int:
        if self.is_void:
            return -2
        return max(len(f) for f in self.facets) - 1

    @property
    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set(itertools.chain.from_iterable(self.facets))))

    def all_faces(self) -> tuple[Face, ...]:
        """Every face, the empty one included, sorted by (size, lex)."""
        return _all_faces(self)

    def faces_of_dim(self, q: int) -> tuple[Face, ...]:
        return tuple(f for f in _all_faces(self) if len(f) == q + 1)

    def has_face(self, face: Iterable[int]) -> bool:
        key = tuple(sorted(set(face)))
        return any(set(key) <= set(g) for g in self.facets)

    def link(self, face: Iterable[int]) -> SimplicialComplex:
        """The link of a face, on the same ambient vertex set."""
        key = tuple(sorted(set(face)))
        if not self.has_face(key):
            raise FaceNotInComplex(f"{key} is not a face")
        if not key:
            return self
        ks = set(key)
        stripped = tuple(
            tuple(v for v in g if v not in ks) for g in self.facets if ks <= set(g)
        )
        return SimplicialComplex(self.n, stripped)

    def stanley_reisner_primes(self) -> tuple[tuple[int, ...], ...]:
        """Per facet, the complementary vertex set (one prime component each)."""
        full = range(1, self.n + 1)
        return tuple(tuple(i for i in full if i not in f) for f in self.facets)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts (f_0, ..., f_dim); empty for dim < 0."""
        if self.dim < 0:
            return ()
        counts = [0] * (self.dim + 1)
        for face in _all_faces(self):
            if face:
                counts[len(face) - 1] += 1
        return tuple(counts)

    def h_vector(self) -> tuple[int, ...]:
        if self.is_void:
            raise VoidComplex("h-vector undefined for the void complex")
        d = self.dim + 1
        f = (1,) + self.f_vector()
        return tuple(
            sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
            for k in range(d + 1)
        )

    def multiplicity(self) -> int:
        """The number of top-dimensional faces."""
        if self.is_void:
            raise VoidComplex("multiplicity undefined for the void complex")
        if self.is_irrelevant:
            return 1
        return self.f_vector()[-1]

    def has_minimal_multiplicity(self) -> bool:
        if self.is_void:
            return False
        return self.multiplicity() == 1 + self.n - (self.dim + 1)

    def is_strongly_connected(self) -> bool:
        """Whether any two facets are joined by a chain of facets with
        consecutive intersections of size dim."""
        if not self.is_pure:
            raise NotPure("strong connectivity requires a pure complex")
        if self.is_void:
            return False
        if self.m == 1:
            return True
        d = self.dim
        sets = [set(f) for f in self.facets]
        seen = {0}
        queue = [0]
        while queue:
            a = queue.pop()
            for b in range(self.m):
                if b not in seen and len(sets[a] & sets[b]) == d:
                    seen.add(b)
                    queue.append(b)
        return len(seen) == self.m


@lru_cache(maxsize=None)
def _all_faces(cx: SimplicialComplex) -> tuple[Face, ...]:
    faces: set[Face] = set()
    for f in cx.facets:
        for k in range(len(f) + 1):
            faces.update(itertools.combinations(f, k))
    return tuple(sorted(faces, key=lambda t: (len(t), t)))


def leaf_branches(facets: tuple[Face, ...], idx: int) -> tuple[int, ...]:
    """0-based indices g such that facet[g] absorbs every intersection
    with facet[idx]; non-empty exactly when facet[idx] is a leaf of a
    multi-facet collection."""
    f = set(facets[idx])
    others = [(g, set(facets[g]) & f) for g in range(len(facets)) if g != idx]
    return tuple(
        g
        for g, cap in others
        if all(other <= cap for _, other in others)
    )


def _exponent_domain(cx: SimplicialComplex) -> tuple[tuple[int, int], ...]:
    return tuple(
        (j, i)
        for j, facet in enumerate(cx.facets, start=1)
        for i in range(1, cx.n + 1)
        if i not in facet
    )


def _validated_entries(
    cx: SimplicialComplex,
    entries: tuple[tuple[int, int, int], ...],
    minimum: int,
    kind: str,
) -> tuple[tuple[int, int, int], ...]:
    domain = _exponent_domain(cx)
    given = [(j, i) for j, i, _ in entries]
    if sorted(given) != sorted(domain):
        raise MultiplicityDomainMismatch(
            f"{kind} must cover each (facet, missing vertex) pair exactly once"
        )
    for j, i, v in entries:
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            raise MultiplicityDomainMismatch(
                f"{kind} value at facet {j}, vertex {i} must be an integer >= {minimum}, got {v!r}"
            )
    return tuple(sorted(entries))


@dataclass(frozen=True)
class MultiplicityAssignment:
    """A positive exponent for every (facet, missing vertex) pair.

    Entry (j, i, v) assigns exponent v to vertex i at the j-th facet
    (1-based, canonical facet order), defined exactly when vertex i lies
    outside that facet.  Together with the complex this determines one
    generically complete intersection monomial ideal.
    """

    complex: SimplicialComplex
    entries: tuple[tuple[int, int, int], ...]
    _values: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = _validated_entries(self.complex, tuple(self.entries), 1, "exponent table")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_values", {(j, i): v for j, i, v in entries})

    @classmethod
    def constant(cls, cx: SimplicialComplex, value: int = 1) -> MultiplicityAssignment:
        return cls(cx, tuple((j, i, value) for j, i in _exponent_domain(cx)))

    @classmethod
    def from_overrides(
        cls, cx: SimplicialComplex, overrides: Mapping[tuple[int, int], int] | None = None
    ) -> MultiplicityAssignment:
        """Constant 1 table with the given (facet index, vertex) -> value overrides."""
        overrides = dict(overrides or {})
        domain = set(_exponent_domain(cx))
        for j, i in overrides:
            if (j, i) not in domain:
                raise MultiplicityDomainMismatch(
                    f"no exponent slot at facet {j}, vertex {i}"
                )
        return cls(
            cx,
            tuple((j, i, overrides.get((j, i), 1)) for j, i in _exponent_domain(cx)),
        )

    def value(self, j: int, i: int) -> int:
        try:
            return self._values[(j, i)]
        except KeyError:
            raise MultiplicityDomainMismatch(
                f"no exponent slot at facet {j}, vertex {i}"
            ) from None

    def vertex_values(self, i: int) -> tuple[tuple[int, int], ...]:
        """(facet index, value) pairs for one vertex, facet order."""
        return tuple((j, v) for j, i2, v in self.entries if i2 == i)

    def max_value(self) -> int:
        return max((v for _, _, v in self.entries), default=1)

    def overrides(self) -> dict[tuple[int, int], int]:
        return {(j, i): v for j, i, v in self.entries if v != 1}

    def offset(self) -> ExponentOffset:
        return ExponentOffset(
            self.complex, tuple((j, i, v - 1) for j, i, v in self.entries)
        )

    def threshold_subcomplex(self, a: Iterable[int]) -> SimplicialComplex:
        """The subcomplex generated by facets whose every missing-vertex
        exponent strictly exceeds the corresponding coordinate of a."""
        avec = tuple(a)
        if len(avec) != self.complex.n:
            raise MultiplicityDomainMismatch(
                f"threshold vector must have length {self.complex.n}, got {len(avec)}"
            )
        for x in avec:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise MultiplicityDomainMismatch(
                    f"threshold coordinates must be integers >= 0, got {x!r}"
                )
        alive = [True] * self.complex.m
        for j, i, v in self.entries:
            if avec[i - 1] >= v:
                alive[j - 1] = False
        surviving = tuple(
            f for j, f in enumerate(self.complex.facets) if alive[j]
        )
        return SimplicialComplex(self.complex.n, surviving)


@dataclass(frozen=True)
class ExponentOffset:
    """Nonnegative exponent table; the additive counterpart of
    MultiplicityAssignment, used for semigroup arithmetic."""

    complex: SimplicialComplex
    entries: tuple[tuple[int, int, int], ...]
    _values: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = _validated_entries(self.complex, tuple(self.entries), 0, "offset table")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_values", {(j, i): v for j, i, v in entries})

    @classmethod
    def zero(cls, cx: SimplicialComplex) -> ExponentOffset:
        return cls(cx, tuple((j, i, 0) for j, i in _exponent_domain(cx)))

    @classmethod
    def indicator(
        cls, cx: SimplicialComplex, vertex: int, facet_indices: Iterable[int]
    ) -> ExponentOffset:
        """Offset 1 at (j, vertex) for the given facet indices, 0 elsewhere."""
        marked = set(facet_indices)
        return cls(
            cx,
            tuple(
                (j, i, 1 if i == vertex and j in marked else 0)
                for j, i in _exponent_domain(cx)
            ),
        )

    def value(self, j: int, i: int) -> int:
        return self._values[(j, i)]

    def __add__(self, other: ExponentOffset) -> ExponentOffset:
        if not isinstance(other, ExponentOffset):
            return NotImplemented
        if other.complex != self.complex:
            raise MultiplicityDomainMismatch("offsets live on different complexes")
        return ExponentOffset(
            self.complex,
            tuple((j, i, v + other._values[(j, i)]) for j, i, v in self.entries),
        )

    def scale(self, k: int) -> ExponentOffset:
        if k < 0:
            raise MultiplicityDomainMismatch("offset scale factor must be >= 0")
        return ExponentOffset(
            self.complex, tuple((j, i, v * k) for j, i, v in self.entries)
        )

    def plus_one(self) -> MultiplicityAssignment:
        return MultiplicityAssignment(
            self.complex, tuple((j, i, v + 1) for j, i, v in self.entries)
        )

    def is_zero(self) -> bool:
        return all(v == 0 for _, _, v in self.entries)
