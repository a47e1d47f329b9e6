"""The built-in problem catalog."""

from __future__ import annotations

import pytest

from cmlab import GF2, RATIONALS, fixture_names, get_fixture, problem_json
from cmlab.errors import UnknownFixture
from cmlab.homology import is_cm_complex


def test_catalog_has_at_least_five_entries():
    names = fixture_names()
    assert len(names) >= 5
    assert len(set(names)) == len(names)
    for required in ("triangle-tree", "star", "star-alpha", "square-alpha"):
        assert required in names


def test_unknown_fixture_error_lists_catalog():
    with pytest.raises(UnknownFixture) as err:
        get_fixture("nope")
    assert "triangle-tree" in str(err.value)


def test_fixture_shapes():
    tree = get_fixture("triangle-tree")
    assert tree.complex.n == 8 and tree.complex.m == 6
    assert not tree.has_alpha
    star = get_fixture("star-alpha")
    assert star.has_alpha
    assert star.assignment().overrides() == {
        (1, 2): 2,
        (2, 3): 2,
        (3, 4): 2,
        (4, 5): 2,
        (5, 1): 2,
    }


def test_projective_plane_is_a_closed_surface():
    rp = get_fixture("projective-plane").complex
    assert rp.n == 6 and rp.m == 10
    assert rp.f_vector() == (6, 15, 10)
    # every edge lies in exactly two triangles
    for edge in rp.faces_of_dim(1):
        containing = [f for f in rp.facets if set(edge) <= set(f)]
        assert len(containing) == 2
    assert is_cm_complex(rp, RATIONALS)
    assert not is_cm_complex(rp, GF2)


def test_problem_json_round_trip():
    doc = problem_json("square-alpha")
    assert doc["n"] == 4
    assert doc["facets"] == [[1, 2], [1, 3], [2, 4], [3, 4]]
    assert doc["char"] == 0
    assert {"facet": 1, "vertex": 3, "value": 2} in doc["alpha"]
    plain = problem_json("square")
    assert "alpha" not in plain


def test_fixture_alpha_records_are_sorted():
    doc = problem_json("star-alpha")
    keys = [(r["facet"], r["vertex"]) for r in doc["alpha"]]
    assert keys == sorted(keys)


def test_examples_builds_no_complex(monkeypatch, capsys):
    # the listing reads the raw specs; a fixture and its complex are
    # built only when a request names it, and then once
    from cmlab import cli, fixtures

    class Refused:
        @staticmethod
        def from_facets(n, facets):
            raise AssertionError("examples must not build a complex")

    monkeypatch.setattr(fixtures, "_BUILT", {})
    monkeypatch.setattr(fixtures, "SimplicialComplex", Refused)
    assert cli.main(["examples"]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert [line.partition(":")[0] for line in listed] == list(fixture_names())
    assert fixtures._BUILT == {}
    monkeypatch.undo()
    monkeypatch.setattr(fixtures, "_BUILT", {})
    assert cli.main(["check", "square", "--method", "oracle"]) == 0
    assert list(fixtures._BUILT) == ["square"]
    assert get_fixture("square") is fixtures._BUILT["square"]
