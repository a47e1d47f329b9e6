"""Built-in example problems used by the command line interface and the
test suite.  Each fixture resolves to a complex, an optional exponent
table, and a default field characteristic."""

from __future__ import annotations

from .complexes import MultiplicityAssignment, SimplicialComplex, _Record
from .errors import UnknownFixture

__all__ = ["Fixture", "fixture_names", "get_fixture", "problem_json"]


class Fixture(_Record, fields="name description complex overrides char", defaults=(0,)):
    """A named problem: a SimplicialComplex, its overrides as (facet,
    vertex, value) triples, only the non-1 values, and its default
    characteristic."""

    __slots__ = ()

    @property
    def has_alpha(self) -> bool:
        return bool(self.overrides)

    def assignment(self) -> MultiplicityAssignment:
        return MultiplicityAssignment.from_overrides(
            self.complex, {(j, i): v for j, i, v in self.overrides}
        )


def _fx(name, description, n, facets, overrides=(), char=0):
    return name, description, n, facets, tuple(overrides), char


_TRIANGLE_TREE = [
    (1, 2, 4),
    (2, 3, 5),
    (2, 4, 5),
    (4, 5, 7),
    (4, 6, 7),
    (5, 7, 8),
]

_STAR = [(1, 6), (2, 6), (3, 6), (4, 6), (5, 6)]

_SQUARE = [(1, 2), (1, 3), (2, 4), (3, 4)]

# Antipodal quotient of the icosahedron: every one of the 15 vertex
# pairs spans an edge lying in exactly two triangles.
_PROJECTIVE_PLANE = [
    (1, 2, 5),
    (1, 2, 6),
    (1, 3, 4),
    (1, 3, 6),
    (1, 4, 5),
    (2, 3, 4),
    (2, 3, 5),
    (2, 4, 6),
    (3, 5, 6),
    (4, 5, 6),
]

# Each fixture as its raw spec; get_fixture builds a Fixture and its
# complex on first use, once.
_SPECS = {
    spec[0]: spec
    for spec in [
        _fx(
            "triangle-tree",
            "six triangles on eight vertices whose facet graph is a tree;"
            " the main tree-case example",
            8,
            _TRIANGLE_TREE,
        ),
        _fx(
            "star",
            "five edges through a common center; the facet graph is complete,"
            " so this is a quasi-tree that is far from a tree",
            6,
            _STAR,
        ),
        _fx(
            "star-alpha",
            "the star with one squared exponent per component, shifted"
            " cyclically; Cohen-Macaulay although no relation tree accepts it",
            6,
            _STAR,
            overrides=[(1, 2, 2), (2, 3, 2), (3, 4, 2), (4, 5, 2), (5, 1, 2)],
        ),
        _fx(
            "square",
            "the four edges of a 4-cycle; the facet graph is a 4-cycle too",
            4,
            _SQUARE,
        ),
        _fx(
            "square-alpha",
            "the square with exponents passing the shelling condition while"
            " the ideal fails to be Cohen-Macaulay",
            4,
            _SQUARE,
            overrides=[(1, 3, 2), (2, 2, 3), (3, 3, 3), (4, 2, 2)],
        ),
        _fx(
            "projective-plane",
            "a 6-vertex triangulation of the real projective plane, built to"
            " pass the homology gates (Euler characteristic 1, first homology"
            " rank 1 exactly in characteristic 2)",
            6,
            _PROJECTIVE_PLANE,
        ),
        _fx(
            "triangle-boundary",
            "the hollow triangle; shellable and Cohen-Macaulay, yet no facet"
            " is a leaf",
            3,
            [(1, 2), (1, 3), (2, 3)],
        ),
    ]
}
_BUILT: dict[str, Fixture] = {}


def fixture_names() -> tuple[str, ...]:
    return tuple(_SPECS)


def get_fixture(name: str) -> Fixture:
    fx = _BUILT.get(name)
    if fx is None:
        try:
            name, description, n, facets, overrides, char = _SPECS[name]
        except KeyError:
            raise UnknownFixture(
                f"unknown fixture {name!r}; available: {', '.join(_SPECS)}"
            ) from None
        cx = SimplicialComplex.from_facets(n, facets)
        fx = _BUILT[name] = Fixture(name, description, cx, overrides, char)
    return fx


def problem_json(name: str) -> dict:
    """The fixture as a problem dict, exactly as the CLI would parse it."""
    fx = get_fixture(name)
    doc: dict = {
        "n": fx.complex.n,
        "facets": [list(f) for f in fx.complex.facets],
    }
    if fx.overrides:
        doc["alpha"] = [
            {"facet": j, "vertex": i, "value": v}
            for j, i, v in sorted(fx.overrides)
        ]
    doc["char"] = fx.char
    return doc
