"""Monomial ideal arithmetic on exponent vectors: the irreducible
components attached to an exponent table, their intersection, and the
splitting identity satisfied at the last facet of a shelling.

Only what the checks need is implemented: intersection, sum, radical,
and containment of finitely generated monomial ideals.
"""

from __future__ import annotations

from collections.abc import Iterable

from .complexes import Frozen, MultiplicityAssignment, SimplicialComplex
from .errors import (
    AmbientMismatch,
    FacetIndexOutOfRange,
    HypothesesViolated,
    InternalInvariantViolation,
    MultiplicityDomainMismatch,
    VertexOutOfRange,
)
from .homology import RATIONALS, FieldSpec

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "variable_ideal",
    "irreducible_component",
    "expand_ideal",
    "stanley_reisner_ideal",
    "splitting_witness",
    "render_monomial",
    "render_ideal",
    "render_splitting",
]

Monomial = tuple[int, ...]


# Divisibility works on packed exponent words.  Each exponent gets a
# field of w bits: the bits of the largest exponent in play plus a guard
# bit on top, which every packed word leaves clear.  A field of
# (b | guards) - a then stays within itself and keeps its guard bit
# exactly when a's exponent is at most b's, so a divides b exactly when
# every guard bit survives.  A proper divisor packs to a smaller word,
# since the fields do not overlap.


def _layout(n: int, *groups: Iterable[Monomial]) -> tuple[int, int]:
    """The field width covering every monomial in the groups, and the
    mask of the n guard bits."""
    top = max((max(g, default=0) for group in groups for g in group), default=0)
    w = top.bit_length() + 1
    return w, ((1 << n * w) - 1) // ((1 << w) - 1) << (w - 1)


def _pack(g: Monomial, w: int) -> int:
    word = 0
    for e in reversed(g):
        word = word << w | e
    return word


def _has_divisor(word: int, divisors: Iterable[int], guards: int) -> bool:
    top = word | guards
    for d in divisors:
        if (top - d) & guards == guards:
            return True
    return False


def _lcm(a: int, b: int, w: int, guards: int) -> int:
    ge = ((a | guards) - b) & guards  # guard bits of the fields where a >= b
    mask = ge - (ge >> (w - 1))  # the exponent bits of those fields
    return a & mask | b & ~mask


def _generators(words: Iterable[int], n: int, w: int) -> tuple[Monomial, ...]:
    # unpacked, in descending lex order: pure powers list in ascending
    # variable order
    low = (1 << w) - 1
    gens = (tuple(p >> s & low for s in range(0, n * w, w)) for p in words)
    return tuple(sorted(gens, reverse=True))


def _minimalize(n: int, gens: tuple[Monomial, ...]) -> tuple[Monomial, ...]:
    # In ascending word order each candidate only needs checking against
    # generators already kept: a proper divisor comes earlier.
    w, guards = _layout(n, gens)
    kept: list[int] = []
    for p in sorted({_pack(g, w) for g in gens}):
        if not _has_divisor(p, kept, guards):
            kept.append(p)
    return _generators(kept, n, w)


def _check_monomial(g: Monomial, n: int, noun: str) -> None:
    if len(g) != n:
        raise AmbientMismatch(f"{noun} {g} does not have {n} exponents")
    if not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in g):
        raise MultiplicityDomainMismatch(
            f"{noun} {g} must have integer exponents >= 0"
        )


class MonomialIdeal(Frozen):
    """Finitely generated monomial ideal in n variables; the stored
    generating set is minimal and canonically sorted, so equal ideals
    compare equal.  No generators means the zero ideal; the constant
    monomial alone means the unit ideal."""

    __slots__ = _fields = ("n", "generators")
    n: int
    generators: tuple[Monomial, ...]

    def __init__(self, n: int, generators: Iterable[Monomial]) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise AmbientMismatch(f"variable count {n!r} must be an integer >= 0")
        generators = tuple(generators)
        for g in generators:
            _check_monomial(g, n, "generator")
        self._freeze(n, _minimalize(n, generators))

    @classmethod
    def _of_minimal(cls, n: int, generators: tuple[Monomial, ...]) -> MonomialIdeal:
        """The ideal on generators that are already minimal and sorted."""
        ideal = cls.__new__(cls)
        ideal._freeze(n, generators)
        return ideal

    @classmethod
    def zero(cls, n: int) -> MonomialIdeal:
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> MonomialIdeal:
        return cls(n, ((0,) * n,))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.n,)

    def _check_ambient(self, other: MonomialIdeal) -> None:
        if self.n != other.n:
            raise AmbientMismatch(
                f"ideals in {self.n} and {other.n} variables do not mix"
            )

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        """I ∩ J, generated by the lcms of a generator of I and one of J.

        A generator of I that lies in J is a minimal generator of I ∩ J
        (a proper divisor in I ∩ J would contradict its minimality in I),
        and so is a generator of J that lies in I; both are kept
        unchecked.  Lcms are formed only for the pairs with neither
        generator in the other ideal, and each is screened, in ascending
        word order, against what has been kept."""
        self._check_ambient(other)
        n = self.n
        w, guards = _layout(n, self.generators, other.generators)
        mine = [_pack(g, w) for g in self.generators]
        theirs = [_pack(g, w) for g in other.generators]
        mine_in = {p for p in mine if _has_divisor(p, theirs, guards)}
        theirs_in = {p for p in theirs if _has_divisor(p, mine, guards)}
        kept = list(mine_in | theirs_in)
        lcms = {
            _lcm(a, b, w, guards)
            for a in mine if a not in mine_in
            for b in theirs if b not in theirs_in
        }
        for c in sorted(lcms):
            if not _has_divisor(c, kept, guards):
                kept.append(c)
        return MonomialIdeal._of_minimal(n, _generators(kept, n, w))

    def __add__(self, other: MonomialIdeal) -> MonomialIdeal:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        self._check_ambient(other)
        gens = self.generators + other.generators
        return MonomialIdeal._of_minimal(self.n, _minimalize(self.n, gens))

    def radical(self) -> MonomialIdeal:
        gens = tuple(tuple(min(e, 1) for e in g) for g in self.generators)
        return MonomialIdeal._of_minimal(self.n, _minimalize(self.n, gens))

    def contains_monomial(self, mono: Monomial) -> bool:
        _check_monomial(mono, self.n, "monomial")
        w, guards = _layout(self.n, self.generators, (mono,))
        return _has_divisor(
            _pack(mono, w), (_pack(g, w) for g in self.generators), guards
        )

    def contains_ideal(self, other: MonomialIdeal) -> bool:
        self._check_ambient(other)
        w, guards = _layout(self.n, self.generators, other.generators)
        mine = [_pack(g, w) for g in self.generators]
        return all(_has_divisor(_pack(g, w), mine, guards) for g in other.generators)


def variable_ideal(n: int, variables: Iterable[int]) -> MonomialIdeal:
    """The prime generated by the given variables (1-based)."""
    gens = []
    for i in variables:
        if not 1 <= i <= n:
            raise VertexOutOfRange(f"variable {i} not in 1..{n}")
        gens.append(tuple(1 if k == i else 0 for k in range(1, n + 1)))
    return MonomialIdeal(n, tuple(gens))


def irreducible_component(mult: MultiplicityAssignment, j: int) -> MonomialIdeal:
    """The component at facet j: each missing vertex contributes one
    pure power with that pair's exponent."""
    cx = mult.complex
    if not 1 <= j <= cx.m:
        raise FacetIndexOutOfRange(f"facet index {j} not in 1..{cx.m}")
    # one pure power per vertex facet j misses: distinct, minimal and in display order
    missing = (i for i in range(1, cx.n + 1) if i not in cx.facets[j - 1])
    gens = tuple(
        tuple(mult.value(j, i) if k == i else 0 for k in range(1, cx.n + 1)) for i in missing
    )
    return MonomialIdeal._of_minimal(cx.n, gens)


def expand_ideal(mult: MultiplicityAssignment) -> MonomialIdeal:
    """Intersection of all components, folded through
    :meth:`MonomialIdeal.intersect`.  A component is generated by pure
    powers, so each step keeps the generators already inside it and
    forms, for every other generator, one lcm per pure power, raising a
    single exponent."""
    result = MonomialIdeal.unit(mult.complex.n)
    for j in range(1, mult.complex.m + 1):
        result = result.intersect(irreducible_component(mult, j))
    return result


def stanley_reisner_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """Intersection of the per-facet complementary-variable primes."""
    result = MonomialIdeal.unit(cx.n)
    for support in cx.stanley_reisner_primes():
        result = result.intersect(variable_ideal(cx.n, support))
    return result


def splitting_witness(
    mult: MultiplicityAssignment,
    order: Iterable[int],
    field: FieldSpec = RATIONALS,
) -> tuple[int, int] | None:
    """The pure power (vertex, exponent) that the last shelling facet
    splits off: intersecting all earlier components and adding the last
    equals that power plus the last component.

    The candidate is read off the facet graph (the vertex separating
    the last facet from its unique neighbor, with the neighbor's
    exponent) and then verified by membership tests; None means the
    identity fails for this table and order.  The vertex i lies in the
    last facet, so no power of x_i lies in the last component, and
    x_i^s lies in the left side exactly when it lies in every earlier
    component.  The right side is irreducible, so the earlier
    components' intersection lies inside it exactly when its corner,
    the largest monomial outside it, lies outside some earlier
    component.
    """
    from .graphs import facet_graph
    from .structure import is_shelling, require_tree_case

    cx = mult.complex
    require_tree_case(cx, field)
    if cx.m < 2:
        raise HypothesesViolated("need at least two facets")
    seq = tuple(order)
    if not is_shelling(cx, seq):
        raise HypothesesViolated(f"{seq} is not a shelling")
    last = seq[-1]
    neighbors = facet_graph(cx).neighbors(last)
    if len(neighbors) != 1:
        raise HypothesesViolated("the last facet must have a unique neighbor")
    against = neighbors[0]
    private = set(cx.facets[last - 1]) - set(cx.facets[against - 1])
    if len(private) != 1:
        raise InternalInvariantViolation(
            f"adjacent facets {last} and {against} differ in {len(private)} vertices"
        )
    i = private.pop()
    s = mult.value(against, i)
    power = tuple(s if k == i else 0 for k in range(1, cx.n + 1))
    earlier = [irreducible_component(mult, j) for j in seq[:-1]]
    if not all(q.contains_monomial(power) for q in earlier):
        return None
    # b - 1 at each pure power x^b of the right side, and past every
    # exponent in play elsewhere
    corner = [mult.max_value() + 1] * cx.n
    for k in range(1, cx.n + 1):
        if k not in cx.facets[last - 1]:
            corner[k - 1] = mult.value(last, k) - 1
    corner[i - 1] = s - 1
    if all(q.contains_monomial(tuple(corner)) for q in earlier):
        return None
    return i, s


def render_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "".join(parts) if parts else "1"


def render_ideal(ideal: MonomialIdeal) -> str:
    if ideal.is_zero:
        return "(0)"
    return "(" + ",".join(render_monomial(g) for g in ideal.generators) + ")"


def render_splitting(vertex: int, exponent: int, component: MonomialIdeal) -> str:
    power = f"x{vertex}" if exponent == 1 else f"x{vertex}^{exponent}"
    return f"({power})+{render_ideal(component)}"
