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
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from functools import update_wrapper
from math import comb
from operator import itemgetter, ne

from .errors import (
    EmptyFacet,
    FaceNotInComplex,
    MultiplicityDomainMismatch,
    UncoveredVertex,
    VertexOutOfRange,
    VoidComplex,
)

__all__ = [
    "Face",
    "SimplicialComplex",
    "MultiplicityAssignment",
    "ExponentOffset",
]

Face = tuple[int, ...]


def _canonical_facets(raw: Iterable[Iterable[int]]) -> tuple[Face, ...]:
    """The distinct inclusion-maximal faces, sorted.  Faces are distinct
    sets, so the faces holding every vertex of a face are the face itself
    and the larger faces it lies in: bit k stands for the k-th face, and
    a face is kept when the meet of its vertices' holder masks is its
    own bit."""
    faces = sorted({tuple(sorted(set(f))) for f in raw})
    holders: dict[int, int] = {}
    for k, f in enumerate(faces):
        for v in f:
            holders[v] = holders.get(v, 0) | 1 << k
    everything = (1 << len(faces)) - 1
    facets = []
    for k, f in enumerate(faces):
        common = everything
        for v in f:
            common &= holders[v]
        if common == 1 << k:
            facets.append(f)
    return tuple(facets)


_set = object.__setattr__


class Frozen:
    """Immutable base of the slotted value classes.  A subclass names its
    compared fields in _fields, and its __init__ stores their values
    through _freeze, which also keeps them as the tuple _key.  The hash
    of _key is computed on the first call of hash() and kept, so a value
    that is never hashed, as most exponent tables, never pays for it.
    Equality is same class and equal _key."""

    __slots__ = ("_key", "_hash")
    _fields: tuple[str, ...] = ()

    def _freeze(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)
        _set(self, "_key", values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self._key))
            return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Record(tuple):
    """Base of the plain result records: a tuple with named fields, as
    collections.namedtuple builds, without the exec and eval that
    namedtuple runs for each class when its module loads.  A subclass
    names its fields and its trailing defaults as class keywords, and
    each field reads its position of the tuple."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, fields: str = "", defaults: tuple = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields, cls._defaults = tuple(fields.split()), defaults
        for k, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(k)))

    def __new__(cls, *args, **kwargs):
        missing = len(cls._fields) - len(args)
        if kwargs:
            args = cls._of_keywords(args, kwargs)
        elif missing:
            if not 0 < missing <= len(cls._defaults):
                raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
            args += cls._defaults[-missing:]
        return tuple.__new__(cls, args)

    @classmethod
    def _of_keywords(cls, args: tuple, kwargs: dict) -> tuple:
        """The fields given by position, then by keyword or default."""
        fields = cls._fields
        first_default = len(fields) - len(cls._defaults)
        values = list(args)
        for k in range(len(args), len(fields)):
            if fields[k] in kwargs:
                values.append(kwargs.pop(fields[k]))
            elif k >= first_default:
                values.append(cls._defaults[k - first_default])
            else:
                raise TypeError(f"{cls.__name__} is missing field {fields[k]!r}")
        if kwargs or len(values) > len(fields):
            raise TypeError(f"{cls.__name__} takes the fields {fields}, got {args} and {kwargs}")
        return tuple(values)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({body})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def _replace(self, **changes) -> _Record:
        values = [changes.pop(name, value) for name, value in zip(self._fields, self)]
        if changes:
            raise ValueError(f"unexpected field names: {sorted(changes)}")
        return type(self)(*values)


class _CacheInfo(_Record, fields="hits misses"):
    __slots__ = ()


_KWD_MARK = (object(),)


def _per_complex(fn=None, *, maxsize: int | None = None):
    """Memoize fn(cx, *args, **kwargs) on the complex cx itself, in a dict
    made on its first use and kept in the complex's _memo slot, so what is
    worked out from a complex dies with it.  Nothing kept may refer back
    to the complex, or the two would form a reference cycle.  An exception
    is not kept.  With maxsize, a complex keeps at most that many results
    of fn, dropping the least recently used first.  cache_info() counts
    hits and misses over every complex, under functools' names."""

    def decorate(fn):
        hits = misses = 0

        def memo(cx, *args, **kwargs):
            nonlocal hits, misses
            key = (*args, *_KWD_MARK, *kwargs.items()) if kwargs else args
            try:
                results = cx._memo[memo]
                value = results[key]
            except (AttributeError, KeyError):
                pass
            else:
                hits += 1
                if maxsize is not None:
                    results[key] = results.pop(key)
                return value
            misses += 1
            value = fn(cx, *args, **kwargs)
            try:
                store = cx._memo
            except AttributeError:
                store = {}
                _set(cx, "_memo", store)
            results = store.setdefault(memo, {})
            if len(results) == maxsize:
                del results[next(iter(results))]
            results[key] = value
            return value

        memo.cache_info = lambda: _CacheInfo(hits, misses)
        return update_wrapper(memo, fn)

    return decorate if fn is None else decorate(fn)


class SimplicialComplex(Frozen):
    """A simplicial complex on vertex set {1..n}, given by its facets.

    The constructor canonicalizes: facets are sorted vertex tuples,
    duplicates and non-maximal faces are absorbed, and the facet list is
    sorted lexicographically.  Use :meth:`from_facets` for validated
    construction from user input; the raw constructor is for internal
    values (links, subcomplexes) that may leave vertices uncovered.
    """

    __slots__ = ("n", "facets", "_pure", "_memo")
    _fields = ("n", "facets")
    n: int
    facets: tuple[Face, ...]

    def __init__(self, n: int, facets: Iterable[Iterable[int]]) -> None:
        self._freeze(n, _canonical_facets(facets))

    @classmethod
    def _of_canonical(cls, n: int, facets: tuple[Face, ...]) -> SimplicialComplex:
        """The complex on facets that are already maximal, distinct and
        sorted, as those of a link or subcomplex of a canonical complex."""
        cx = cls.__new__(cls)
        cx._freeze(n, facets)
        return cx

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
        if len(covered) < n:
            head = [v for v in range(1, min(n, len(covered) + 10) + 1) if v not in covered]
            more = f" and {n - len(covered) - 10} more" if n - len(covered) > 10 else ""
            raise UncoveredVertex(f"vertices {head[:10]}{more} appear in no facet")
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
        """Whether all facets have one size; worked out on first use."""
        try:
            return self._pure
        except AttributeError:
            pure = len({len(f) for f in self.facets}) <= 1
            _set(self, "_pure", pure)
            return pure

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set(itertools.chain.from_iterable(self.facets))))

    def all_faces(self) -> tuple[Face, ...]:
        """Every face, the empty one included, sorted by (size, lex)."""
        return _all_faces(self)

    def faces_of_dim(self, q: int) -> tuple[Face, ...]:
        faces = _all_faces(self)
        lo = bisect_left(faces, q + 1, key=len)
        return faces[lo : bisect_left(faces, q + 2, lo=lo, key=len)]

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
        return SimplicialComplex._of_canonical(self.n, stripped)

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
        """The number of top-dimensional faces, which are the facets of
        dim + 1 vertices."""
        if self.is_void:
            raise VoidComplex("multiplicity undefined for the void complex")
        top = self.dim + 1
        return sum(len(f) == top for f in self.facets)

    def has_minimal_multiplicity(self) -> bool:
        if self.is_void:
            return False
        return self.multiplicity() == 1 + self.n - (self.dim + 1)


@_per_complex
def _all_faces(cx: SimplicialComplex) -> tuple[Face, ...]:
    faces: set[Face] = set()
    for f in cx.facets:
        for k in range(len(f) + 1):
            faces.update(itertools.combinations(f, k))
    return tuple(sorted(faces, key=lambda t: (len(t), t)))


@_per_complex
def _facet_masks(cx: SimplicialComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The bitmask index of a complex: per facet its vertex mask, vertex
    v being bit v, and per vertex 0..n the mask of the facets holding it,
    facet j being bit j - 1."""
    holders = [0] * (cx.n + 1)
    for j, f in enumerate(cx.facets):
        for v in f:
            holders[v] |= 1 << j
    return tuple(sum(1 << v for v in f) for f in cx.facets), tuple(holders)


def _leaf_branch(masks: Sequence[int], kept: Sequence[int], k: int) -> int | None:
    """The lowest g other than k among the ascending indices kept whose
    vertex mask holds every meet of masks[k] with the other kept masks:
    the branch of the leaf k of the kept facets, or None when k is not a
    leaf of them.  A facet meeting none of the others hangs from the
    lowest one."""
    rest = 0
    for g in kept:
        if g != k:
            rest |= masks[g]
    union = masks[k] & rest
    return next((g for g in kept if g != k and masks[g] & union == union), None)


def _exponent_domain(cx: SimplicialComplex) -> list[tuple[int, int]]:
    vertices = range(1, cx.n + 1)
    return [(j, i) for j, f in enumerate(cx.facets, start=1) for i in vertices if i not in f]


def _is_slot(cx: SimplicialComplex, j: object, i: object) -> bool:
    """Whether (facet j, vertex i) is a pair of the exponent domain of cx."""
    return (
        isinstance(j, int) and isinstance(i, int) and 1 <= j <= cx.m and 1 <= i <= cx.n
        and i not in cx.facets[j - 1]
    )


def _pair_id(cx: SimplicialComplex, j: int, i: int) -> int:
    """The id of the pair (facet j, vertex i) of a table on cx: ids ascend
    in the domain's order, and divmod(id, _pair_id(cx, 1, 0)) is (j, i)."""
    return j * (cx.n + 1) + i


def _validated_entries(
    cx: SimplicialComplex,
    entries: tuple[tuple[int, int, int], ...],
    minimum: int,
    kind: str,
) -> tuple[tuple[int, int, int], ...]:
    domain = _exponent_domain(cx)
    pair = itemgetter(0, 1)
    ordered = entries
    if len(entries) != len(domain) or any(map(ne, map(pair, entries), domain)):
        # Sorted by the pair alone, so a repeated pair whose values do not
        # compare is still reported as a domain mismatch.
        ordered = tuple(sorted(entries, key=pair))
        if list(map(pair, ordered)) != domain:
            raise MultiplicityDomainMismatch(
                f"{kind} must cover each (facet, missing vertex) pair exactly once"
            )
    for j, i, v in entries:
        _check_value(j, i, v, minimum, kind)
    return ordered


def _check_value(j: int, i: int, v: object, minimum: int, kind: str) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise MultiplicityDomainMismatch(
            f"{kind} value at facet {j}, vertex {i} must be an integer >= {minimum}, got {v!r}"
        )


class _Table(Frozen):
    """An integer of at least _minimum for every (facet, missing vertex)
    pair of a complex.

    Entry (j, i, v) gives vertex i the value v at the j-th facet
    (1-based, canonical facet order), defined exactly when vertex i lies
    outside that facet.  Only the raised entries are kept, those whose
    value is above _minimum, sorted by pair; every other pair of the
    domain takes _minimum, as in a problem file every omitted pair is 1.
    """

    __slots__ = ("complex", "raised", "_values", "_levels")
    _fields = ("complex", "raised")
    _minimum, _kind = 1, "exponent table"
    complex: SimplicialComplex
    raised: tuple[tuple[int, int, int], ...]

    def __init__(
        self, complex: SimplicialComplex, entries: Iterable[tuple[int, int, int]]
    ) -> None:
        # raised holds every entry until __post_init__ checks them and keeps the raised
        _set(self, "complex", complex)
        _set(self, "raised", entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        entries = _validated_entries(
            self.complex, tuple(self.raised), self._minimum, self._kind
        )
        self._freeze(self.complex, tuple(e for e in entries if e[2] > self._minimum))

    @classmethod
    def _of_canonical(cls, cx: SimplicialComplex, raised: tuple[tuple[int, int, int], ...]):
        """The table with these raised entries, already known to be valid:
        ints above the minimum at pairs of the domain of cx, sorted."""
        table = cls.__new__(cls)
        table._freeze(cx, raised)
        return table

    def _freeze(self, *values: object) -> None:
        super()._freeze(*values)
        _set(self, "_values", None)  # what is worked out from the table, on first use
        _set(self, "_levels", None)

    def __reduce__(self):
        return type(self)._of_canonical, self._key

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """Every entry (j, i, v), in the domain's order."""
        cx, get, low = self.complex, self._pair_values().get, self._minimum
        return tuple((j, i, get(_pair_id(cx, j, i), low)) for j, i in _exponent_domain(cx))

    def _pair_values(self) -> dict[int, int]:
        """The raised values by pair id; built on first use."""
        if self._values is None:
            stride = _pair_id(self.complex, 1, 0)
            _set(self, "_values", {j * stride + i: v for j, i, v in self.raised})
        return self._values

    def value(self, j: int, i: int) -> int:
        if not _is_slot(self.complex, j, i):
            raise MultiplicityDomainMismatch(f"no exponent slot at facet {j}, vertex {i}")
        return self._pair_values().get(_pair_id(self.complex, j, i), self._minimum)


class MultiplicityAssignment(_Table):
    """A positive exponent for every (facet, missing vertex) pair.
    Together with the complex this determines one generically complete
    intersection monomial ideal.
    """

    __slots__ = ()

    @classmethod
    def constant(cls, cx: SimplicialComplex, value: int = 1) -> MultiplicityAssignment:
        """The table with this value at every pair; the value is checked
        once, named at the first pair, and not at all with no pairs."""
        j = next((j for j, f in enumerate(cx.facets, start=1) if len(f) < cx.n), None)
        if j is not None:
            i = next(i for i in range(1, cx.n + 1) if i not in cx.facets[j - 1])
            _check_value(j, i, value, 1, cls._kind)
        raised = () if value == 1 else tuple((j, i, value) for j, i in _exponent_domain(cx))
        return cls._of_canonical(cx, raised)

    @classmethod
    def from_overrides(
        cls, cx: SimplicialComplex, overrides: Mapping[tuple[int, int], int] | None = None
    ) -> MultiplicityAssignment:
        """Constant 1 table with the given (facet index, vertex) -> value
        overrides.  Only the overrides are checked: each key names a pair
        of the domain, and the first bad value in domain order is named,
        as the validating constructor names it."""
        overrides = dict(overrides or {})
        for j, i in overrides:
            if not _is_slot(cx, j, i):
                raise MultiplicityDomainMismatch(f"no exponent slot at facet {j}, vertex {i}")
        raised = sorted((j, i, v) for (j, i), v in overrides.items())
        for j, i, v in raised:
            _check_value(j, i, v, 1, cls._kind)
        return cls._of_canonical(cx, tuple(e for e in raised if e[2] > 1))

    def vertex_values(self, i: int) -> tuple[tuple[int, int], ...]:
        """(facet index, value) pairs for one vertex, facet order."""
        cx = self.complex
        return tuple((j, self.value(j, i)) for j in range(1, cx.m + 1) if _is_slot(cx, j, i))

    @property
    def levels(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex 0..n, the pairs (value, mask of the facets taking
        that value at the vertex, facet j being bit j - 1), values
        ascending; built on first use.  They are the oracle's threshold
        cuts and the shelling condition's weight tiers.  The facets
        missing a vertex and raising no value there take the value 1."""
        if self._levels is not None:
            return self._levels
        holders = _facet_masks(self.complex)[1]
        at_vertex: list[dict[int, int]] = [{} for _ in holders]
        for j, i, v in self.raised:
            at = at_vertex[i]
            at[v] = at.get(v, 0) | 1 << (j - 1)
        full, levels = (1 << self.complex.m) - 1, [()]
        for held, at in zip(holders[1:], at_vertex[1:]):
            one = full - held - sum(at.values())  # the facets missing i that raise nothing
            levels.append(((1, one), *sorted(at.items())) if one else tuple(sorted(at.items())))
        levels = tuple(levels)
        _set(self, "_levels", levels)
        return levels

    def max_value(self) -> int:
        return max((v for _, _, v in self.raised), default=1)

    def overrides(self) -> dict[tuple[int, int], int]:
        return {(j, i): v for j, i, v in self.raised}

    def offset(self) -> ExponentOffset:
        return ExponentOffset._of_canonical(
            self.complex, tuple((j, i, v - 1) for j, i, v in self.raised)
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
        dead = 0
        for x, levels in zip(avec, self.levels[1:]):
            dead |= sum(mask for v, mask in levels if v <= x)  # one vertex's masks are disjoint
        surviving = tuple(f for j, f in enumerate(self.complex.facets) if not dead >> j & 1)
        return SimplicialComplex._of_canonical(self.complex.n, surviving)


class ExponentOffset(_Table):
    """Nonnegative exponent table; the additive counterpart of
    MultiplicityAssignment, used for semigroup arithmetic."""

    __slots__ = ()
    _minimum, _kind = 0, "offset table"

    @classmethod
    def zero(cls, cx: SimplicialComplex) -> ExponentOffset:
        return cls._of_canonical(cx, ())

    @classmethod
    def indicator(
        cls, cx: SimplicialComplex, vertex: int, facet_indices: Iterable[int]
    ) -> ExponentOffset:
        """Offset 1 at (j, vertex) for the given facet indices, 0 elsewhere."""
        marked = set(facet_indices)
        slots = (j for j in range(1, cx.m + 1) if j in marked and _is_slot(cx, j, vertex))
        return cls._of_canonical(cx, tuple((j, vertex, 1) for j in slots))

    def __add__(self, other: ExponentOffset) -> ExponentOffset:
        if not isinstance(other, ExponentOffset):
            return NotImplemented
        if other.complex != self.complex:
            raise MultiplicityDomainMismatch("offsets live on different complexes")
        runs = itertools.groupby(sorted(self.raised + other.raised), key=itemgetter(0, 1))
        raised = tuple((j, i, sum(e[2] for e in run)) for (j, i), run in runs)
        return ExponentOffset._of_canonical(self.complex, raised)

    def scale(self, k: int) -> ExponentOffset:
        if not isinstance(k, int) or k < 0:
            raise MultiplicityDomainMismatch("offset scale factor must be an integer >= 0")
        raised = tuple((j, i, v * k) for j, i, v in self.raised) if k else ()
        return ExponentOffset._of_canonical(self.complex, raised)

    def plus_one(self) -> MultiplicityAssignment:
        return MultiplicityAssignment._of_canonical(
            self.complex, tuple((j, i, v + 1) for j, i, v in self.raised)
        )
