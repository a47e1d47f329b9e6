"""Monomial ideal arithmetic on exponent vectors: the irreducible
components attached to an exponent table, their intersection, and the
splitting identity satisfied at the last facet of a shelling.

Only what the checks need is implemented: intersection, sum, radical,
and containment of finitely generated monomial ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import MultiplicityAssignment, SimplicialComplex
from .errors import (
    AmbientMismatch,
    FacetIndexOutOfRange,
    HypothesesViolated,
    InternalInvariantViolation,
    MultiplicityDomainMismatch,
    VertexOutOfRange,
)
from .graphs import facet_graph
from .homology import RATIONALS, FieldSpec
from .structure import is_shelling, require_tree_case

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


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _display_key(g: Monomial) -> tuple[int, ...]:
    # descending lex: pure powers list in ascending variable order
    return tuple(-e for e in g)


def _minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    unique = sorted(set(gens), key=_display_key)
    kept = [
        g
        for g in unique
        if not any(d != g and _divides(d, g) for d in unique)
    ]
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """Finitely generated monomial ideal in n variables; the stored
    generating set is minimal and canonically sorted, so equal ideals
    compare equal.  No generators means the zero ideal; the constant
    monomial alone means the unit ideal."""

    n: int
    generators: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if len(g) != self.n:
                raise AmbientMismatch(f"generator {g} does not have {self.n} exponents")
            if not all(isinstance(e, int) and e >= 0 for e in g):
                raise MultiplicityDomainMismatch(
                    f"generator {g} must have integer exponents >= 0"
                )
        object.__setattr__(self, "generators", _minimalize(self.generators))

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
        self._check_ambient(other)
        lcms = (
            tuple(max(x, y) for x, y in zip(a, b))
            for a in self.generators
            for b in other.generators
        )
        return MonomialIdeal(self.n, tuple(lcms))

    def __add__(self, other: MonomialIdeal) -> MonomialIdeal:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        self._check_ambient(other)
        return MonomialIdeal(self.n, self.generators + other.generators)

    def radical(self) -> MonomialIdeal:
        return MonomialIdeal(
            self.n, tuple(tuple(min(e, 1) for e in g) for g in self.generators)
        )

    def contains_monomial(self, mono: Monomial) -> bool:
        if len(mono) != self.n:
            raise AmbientMismatch(f"monomial {mono} does not have {self.n} exponents")
        return any(_divides(g, mono) for g in self.generators)

    def contains_ideal(self, other: MonomialIdeal) -> bool:
        self._check_ambient(other)
        return all(self.contains_monomial(g) for g in other.generators)


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
    gens = tuple(
        tuple(v if k == i else 0 for k in range(1, cx.n + 1))
        for j2, i, v in mult.entries
        if j2 == j
    )
    return MonomialIdeal(cx.n, gens)


def expand_ideal(mult: MultiplicityAssignment) -> MonomialIdeal:
    """Intersection of all components, minimalized after each step."""
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
    exponent) and then verified by direct ideal arithmetic; None means
    the identity fails for this table and order.
    """
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
    q_last = irreducible_component(mult, last)
    inter = MonomialIdeal.unit(cx.n)
    for j in seq[:-1]:
        inter = inter.intersect(irreducible_component(mult, j))
    lhs = inter + q_last
    power = MonomialIdeal(
        cx.n, (tuple(s if k == i else 0 for k in range(1, cx.n + 1)),)
    )
    rhs = power + q_last
    return (i, s) if lhs == rhs else None


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
