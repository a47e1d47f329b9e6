"""End-to-end command line behavior: exit codes, formats, determinism."""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cross_polytope,
    octahedra_wedge,
    quasitree_reference,
    random_attach_quasitree,
    random_complex,
    random_pure_complex,
    random_pure_strongly_connected,
    random_quasi_tree,
    random_ridge_tree,
    random_sparse_assignment,
    stacked_path,
)

import cmlab
from cmlab import cli, cli_helpers, fixtures, graphs, homology, satisfying
from cmlab.cli import _ERROR_WIDTH, main
from cmlab.cli_helpers import parse_problem_file
from cmlab.complexes import SimplicialComplex
from cmlab.errors import HypothesesViolated, NotPure, NotQuasiTree, ParseError
from cmlab.graphs import find_leaf_order, require_quasi_tree
from cmlab.homology import GF2, RATIONALS, FieldSpec
from cmlab.structure import find_shelling, require_tree_case


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing -----------------------------------------------------------------


def test_parse_minimal_file():
    cx, mult, char = parse_problem_file('{"n": 2, "facets": [[1, 2]]}')
    assert cx.facets == ((1, 2),)
    assert mult is None
    assert char == 0


def test_parse_full_file():
    text = json.dumps(
        {
            "n": 4,
            "facets": [[1, 2], [2, 3], [3, 4]],
            "alpha": [{"facet": 1, "vertex": 3, "value": 2}],
            "char": 2,
        }
    )
    cx, mult, char = parse_problem_file(text)
    assert cx.m == 3
    assert mult.value(1, 3) == 2
    assert mult.value(1, 4) == 1
    assert char == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("not json", "invalid JSON"),
        ("[1]", "top level"),
        ('{"facets": [[1]]}', "missing field 'n'"),
        ('{"n": 1}', "missing field 'facets'"),
        ('{"n": 0, "facets": [[1]]}', "n: must be >= 1"),
        ('{"n": 1, "facets": []}', "facets: expected a non-empty list"),
        ('{"n": 1, "facets": [[1]], "bogus": 2}', "unknown field 'bogus'"),
        ('{"n": 2, "facets": [[1, 2], []]}', "facets:"),
        ('{"n": 2, "facets": [[1, 3]]}', "facets:"),
        (
            '{"n": 2, "facets": [[1, 2]], "alpha": [{"facet": 1, "vertex": 1, "value": 2}]}',
            "vertex 1 lies inside facet 1",
        ),
        (
            '{"n": 3, "facets": [[1, 2], [2, 3]], "alpha": [{"facet": 1, "vertex": 3}]}',
            "missing field 'value'",
        ),
        (
            '{"n": 3, "facets": [[1, 2], [2, 3]], '
            '"alpha": [{"facet": 1, "vertex": 3, "value": 2}, '
            '{"facet": 1, "vertex": 3, "value": 3}]}',
            "duplicate pair",
        ),
        (
            '{"n": 3, "facets": [[1, 2], [2, 3]], '
            '"alpha": [{"facet": 9, "vertex": 3, "value": 2}]}',
            "facet 9 out of range",
        ),
        ('{"n": 2, "facets": [[1, 2]], "char": 4}', "char"),
    ],
)
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_problem_file(text)
    assert fragment in str(err.value)


def _parse_through_json_loads(text):
    """parse_problem_file as it read every file through json.loads."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    with mock.patch.object(cli_helpers, "_read_json", lambda _: doc):
        return parse_problem_file(text)


def _outcome(parse, text):
    try:
        return "parsed", parse(text)
    except (ParseError, ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def _json_corpus():
    problem = json.dumps(
        {"n": 4, "facets": [[1, 2], [2, 3], [3, 4]],
         "alpha": [{"facet": 1, "vertex": 3, "value": 2}], "char": 2}
    )
    texts = [problem, json.dumps(json.loads(problem), indent=2), '{"n": 2, "facets": [[1, 2]]}']
    # JSON's whitespace is " \t\n\r"; form feed, vertical tab and
    # no-break space are not
    for blank in (" ", "\t", "\n", "\r", " \t\n\r\n", "\f", "\v", "\xa0", "\u2028"):
        texts += [blank + problem, problem + blank, blank + problem + blank]
    texts += [problem.replace(", ", "," + blank) for blank in (" \t", "\n\r", "\f")]
    texts += [
        "\ufeff" + problem, "\ufeff", "", " ", "\n\n", "{", "}", "[", "{}", "[]", "null",
        problem + "x", problem + " {}", problem + "\n\n0", problem + "\x00", "1 2",
        "NaN", "-Infinity", "Infinity", "1e400", "-1e400", "1.5", "-0", "0.0", "01", "1.", ".5",
        '{"n": NaN, "facets": [[1]]}', '{"n": Infinity, "facets": [[1]]}',
        '{"n": 1e400, "facets": [[1]]}', '{"n": 1.5, "facets": [[1]]}',
        '{"n": 2, "facets": [[1, 2]], "char": 2.0}', '{"n": 2, "facets": [[1, 2.0]]}',
        '{"n": 9, "n": 2, "facets": [[1, 2]]}', '{"n": 2, "facets": [[1]], "facets": [[1, 2]]}',
        '{"n": "a\x01b", "facets": [[1]]}', '{"n\x1f": 2}', '{"n": "\t"}',
        '{"n": "\ud800", "facets": [[1]]}', '{"n": "\\ud800", "facets": [[1]]}',
        '{"n": "\\udc00\\ud800", "facets": [[1]]}', '{"n": "\\x41"}', '{"n": "\\u12"}',
        '{"n": 2, "facets": [[1, 2]],}', '{"n": 2, "facets": [[1, 2],]}', "{'n': 2}",
        '{"n": true, "facets": [[1]]}', '{"n": 2 "facets": [[1, 2]]}', '"unterminated',
        "[" * 5000 + "]" * 5000, '{"n": ' + "[" * 5000 + "]" * 5000 + "}",
        "7" * 5000, '{"n": ' + "7" * 5000 + ', "facets": [[1]]}', "9" * 4300,
    ]
    # text drawn from JSON's own characters, and problems cut or spliced
    rng = random.Random(25)
    alphabet = '{}[]:,"\\ \t\n\r\f0123456789-+.eEntrufalsNIiy\ufeff\x01\ud800'
    for _ in range(1500):
        texts.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))))
        cut = rng.randrange(len(problem) + 1)
        texts.append(problem[:cut] + rng.choice(alphabet) + problem[cut + rng.randint(0, 2):])
    return texts


@pytest.mark.parametrize("scanner", ["c", "unimportable"])
def test_problem_files_read_as_json_loads_reads_them(monkeypatch, scanner):
    # valid files are read by json's C scanner without importing json;
    # each text must give what json.loads gave: the same problem, or the
    # same exception type and message
    if scanner == "unimportable":
        monkeypatch.setitem(sys.modules, "_json", None)
    seen = set()
    for text in _json_corpus():
        want = _outcome(_parse_through_json_loads, text)
        assert _outcome(parse_problem_file, text) == want, repr(text[:80])
        seen.add(want[0])
    # the corpus reaches every outcome: a problem, a ParseError, the
    # digit limit's ValueError and the nesting's RecursionError
    assert seen == {"parsed", ParseError, ValueError, RecursionError}


# -- exit codes --------------------------------------------------------------


def test_check_oracle_not_cm_exits_one(capsys):
    code, out, _ = run(capsys, "check", "square-alpha", "--method", "oracle")
    assert code == 1
    assert "witness threshold vector: (0, 2, 2, 0)" in out
    assert "surviving facets: [1,3] [2,4]" in out


def test_check_quasitree_silent_exits_two(capsys):
    code, out, _ = run(capsys, "check", "star-alpha", "--method", "quasitree")
    assert code == 2
    assert "unknown" in out


def test_check_oracle_cm_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "star-alpha", "--method", "oracle")
    assert code == 0
    assert "verdict: Cohen-Macaulay" in out


def test_check_tree_method(capsys):
    code, out, _ = run(capsys, "check", "triangle-tree", "--method", "tree")
    assert code == 0
    code, _, err = run(capsys, "check", "star", "--method", "tree")
    assert code == 3
    assert "not applicable" in err


def test_check_general_always_unknown(capsys):
    code, out, _ = run(capsys, "check", "square-alpha", "--method", "general")
    assert code == 2
    assert "shelling condition: holds" in out


def test_check_auto_routes_to_tree(capsys):
    code, out, _ = run(capsys, "check", "triangle-tree")
    assert code == 0
    assert "auto -> tree" in out


def test_check_auto_falls_back_to_oracle(capsys):
    code, out, _ = run(capsys, "check", "star-alpha")
    assert code == 0
    assert "auto -> quasitree" in out
    assert "falling back" in out


def test_check_respects_char_flag(capsys):
    code, _, _ = run(capsys, "check", "projective-plane", "--method", "oracle")
    assert code == 0
    code, out, _ = run(
        capsys, "check", "projective-plane", "--method", "oracle", "--char", "2"
    )
    assert code == 1
    assert "witness threshold vector: (0, 0, 0, 0, 0, 0)" in out


def test_usage_errors_exit_three(capsys):
    assert run(capsys, "check")[0] == 3
    assert run(capsys, "frobnicate")[0] == 3
    assert run(capsys, "check", "square-alpha", "--method", "bogus")[0] == 3
    assert run(capsys, "check", "no-such-fixture")[0] == 3
    code, _, err = run(capsys, "check", "square-alpha", "--char", "6")
    assert code == 3
    assert "characteristic" in err


def test_recursion_exhaustion_exits_three(monkeypatch, capsys):
    def exhausted(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(homology, "is_cm_ideal_oracle", exhausted)
    code, _, err = run(capsys, "check", "square-alpha", "--method", "oracle")
    assert code == 3
    assert err == "error: input too large: recursion depth exhausted\n"


def test_oracle_and_shelling_searches_need_no_recursion(tmp_path, capsys):
    # one grid coordinate per vertex, one shelling step and one leaf
    # removal per facet, far past a recursion limit lowered just above
    # the current depth
    doc = tmp_path / "path.json"
    doc.write_text(json.dumps({"n": 301, "facets": [[k, k + 1] for k in range(1, 301)]}))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        oracle = run(capsys, "check", str(doc), "--method", "oracle")
        general = run(capsys, "check", str(doc), "--method", "general")
        quasitree = run(capsys, "check", str(doc), "--method", "quasitree")
        simplex = tmp_path / "simplex.json"
        simplex.write_text(json.dumps({"n": 1100, "facets": [list(range(1, 1101))]}))
        large = run(capsys, "check", str(simplex), "--method", "oracle")
    finally:
        sys.setrecursionlimit(limit)
    assert oracle[:2] == (0, "method: oracle (characteristic 0)\nverdict: Cohen-Macaulay\n")
    assert general[0] == 2
    assert "shelling condition: holds" in general[1]
    path_edges = " ".join(f"{k}-{k + 1}" for k in range(1, 300))
    assert quasitree[:2] == (
        0,
        f"method: quasitree\nverdict: Cohen-Macaulay\nwitness tree edges: {path_edges}\n",
    )
    assert large[0] == 0 and "verdict: Cohen-Macaulay" in large[1]


def test_large_simplex_is_decided_by_auto(tmp_path, capsys):
    # a simplex is a cone over the irrelevant complex: no face sweep
    doc = tmp_path / "simplex.json"
    doc.write_text(json.dumps({"n": 1100, "facets": [list(range(1, 1101))]}))
    code, out, err = run(capsys, "check", str(doc), "--method", "auto")
    assert code == 0
    assert "verdict: Cohen-Macaulay" in out
    assert err == ""


@pytest.mark.parametrize("n", [10**6, 10**12])
def test_huge_vertex_count_exits_three_with_a_short_message(tmp_path, capsys, n):
    # only vertex 1 is covered; the report names ten vertices and a count
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"n": n, "facets": [[1]]}))
    code, out, err = run(capsys, "check", str(doc))
    assert code == 3
    assert out == ""
    assert len(err) < 200
    assert f"and {n - 11} more appear in no facet" in err


@pytest.mark.parametrize(
    "argv",
    [("check", "triangle-tree", "--char", "7" * 5000), ("check", "p" * 3000)],
    ids=["5000-digit-char", "3000-character-path"],
)
def test_long_error_lines_are_cut_to_a_fixed_width(capsys, argv):
    # both messages quote the input in full before the cut
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    [line] = err.splitlines()
    assert len(line) == _ERROR_WIDTH
    assert line.endswith("…")
    assert line.startswith("usage error: " if "--char" in argv else "error: ")


def test_large_prime_characteristic_is_accepted_quickly(tmp_path, capsys):
    doc = tmp_path / "path.json"
    doc.write_text(json.dumps({"n": 3, "facets": [[1, 2], [2, 3]]}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", str(doc), "--char", str(2**61 - 1))
    assert time.perf_counter() - start < 1
    assert code == 0
    assert "verdict: Cohen-Macaulay" in out


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_parse_error_from_file_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "facets": [[1, 2],')
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 3
    assert "invalid JSON" in err


def test_problem_file_that_is_not_utf8_exits_three(tmp_path, capsys):
    # exit 1 would read as "not Cohen-Macaulay"
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out) == (3, "")
    assert err == "error: not UTF-8 text: invalid start byte at byte 0\n"


def test_file_and_fixture_resolution(tmp_path, capsys):
    doc = tmp_path / "prob.json"
    doc.write_text('{"n": 2, "facets": [[1, 2]]}')
    code, out, _ = run(capsys, "analyze", str(doc))
    assert code == 0
    assert "n=2, m=1" in out


# -- output formats ----------------------------------------------------------


def test_analyze_main_fixture(capsys):
    code, out, _ = run(capsys, "analyze", "triangle-tree")
    assert code == 0
    assert "f-vector: (8, 13, 6)" in out
    assert "h-vector: (1, 5, 0, 0)" in out
    assert "facet graph edges: 1-3 2-3 3-4 4-5 4-6" in out
    assert "vertex graph 4: r-2 r-6" in out
    assert "cm_without_codim1_cycles: yes" in out


def test_analyze_reports_criteria_when_alpha_present(capsys):
    code, out, _ = run(capsys, "analyze", "square-alpha")
    assert code == 0
    assert "tree criterion: not applicable" in out
    assert "quasi-tree criterion: not applicable" in out
    assert "shelling condition: holds" in out


def test_analyze_decides_the_shelling_condition_on_a_wedge_of_spheres_quickly(tmp_path, capsys):
    # two 5-cross-polytope boundaries glued at a vertex are not
    # Cohen-Macaulay, hence not shellable, so no shelling search runs
    cross = list(itertools.product((1, 2), (3, 4), (5, 6), (7, 8), (9, 10)))
    facets = cross + [tuple(1 if v == 1 else v + 9 for v in f) for f in cross]
    doc = tmp_path / "wedge.json"
    doc.write_text(json.dumps({"n": 19, "facets": facets, "alpha": []}))
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(doc))
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    assert "  shellable: no\n" in out
    assert out.endswith("shelling condition: not applicable (complex is not shellable)\n")


def test_analyze_star_alpha(capsys):
    code, out, _ = run(capsys, "analyze", "star-alpha")
    assert code == 0
    assert "quasi-tree criterion: not satisfied" in out


def test_examples_list(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 5
    assert any(l.startswith("triangle-tree:") for l in lines)


def test_examples_show_emits_problem_json(capsys):
    code, out, _ = run(capsys, "examples", "show", "star-alpha")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    assert len(doc["alpha"]) == 5


def test_examples_show_requires_name(capsys):
    assert run(capsys, "examples", "show")[0] == 3


def test_ideal_star_alpha_components(capsys):
    code, out, _ = run(capsys, "ideal", "star-alpha")
    assert code == 0
    assert "Q1 = (x2^2,x3,x4,x5)" in out


def test_ideal_expand(capsys):
    code, out, _ = run(capsys, "ideal", "triangle-boundary", "--expand")
    assert code == 0
    assert "I = (x1x2x3)" in out


def test_cross_validate_deterministic(capsys):
    args = (
        "cross-validate",
        "triangle-tree",
        "--samples",
        "10",
        "--max-exp",
        "2",
        "--seed",
        "9",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "tree:" in out1


def test_cross_validate_draws_values_as_randint_does():
    # the same stream and values as randint(1, top) at each pair of a
    # full domain, table after table, so every tally stays the same; the
    # values of 1 are drawn and not kept
    from cmlab.complexes import _exponent_domain

    domain = _exponent_domain(cmlab.get_fixture("triangle-tree").complex)
    for top in range(1, 10):
        for seed in range(24):
            rng, expected = random.Random(seed), random.Random(seed)
            for _ in range(3):
                drawn = [(j, i, expected.randint(1, top)) for j, i in domain]
                assert cli._random_entries(rng, top, domain) == tuple(e for e in drawn if e[2] > 1)
            assert rng.random() == expected.random()


def test_cross_validate_zero_samples(capsys):
    code, out, _ = run(
        capsys, "cross-validate", "star", "--samples", "0"
    )
    assert code == 0
    assert "oracle: 0 Cohen-Macaulay, 0 not" in out


def test_cross_validate_reports_applicability(capsys):
    code, out, _ = run(
        capsys, "cross-validate", "star", "--samples", "5", "--seed", "3"
    )
    assert code == 0
    assert "tree: not applicable" in out
    assert "quasitree:" in out


FIELDS = (RATIONALS, GF2, FieldSpec(3))


def _cone(cx: SimplicialComplex) -> SimplicialComplex:
    return SimplicialComplex(cx.n + 1, [(*f, cx.n + 1) for f in cx.facets])


def _dispatch_corpus() -> list[SimplicialComplex]:
    """Complexes with and without a free vertex (one in exactly one
    facet): spheres, the octahedra wedge, the projective plane and cones
    over them have none, nor have the void and the irrelevant complex;
    stars, quasi-trees, stacked paths, ridge trees and random pure and
    non-pure complexes mostly have one."""
    rng = random.Random(31)
    closed = [cross_polytope(d) for d in (2, 3, 4)] + [
        SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
        octahedra_wedge(),
        fixtures.get_fixture("projective-plane").complex,
    ]
    corpus = closed + [_cone(cx) for cx in closed]
    corpus += [SimplicialComplex(n, facets) for n in (0, 2) for facets in ([], [()])]
    corpus += [fixtures.get_fixture(name).complex for name in fixtures.fixture_names()]
    corpus += [SimplicialComplex(m + 1, [(k, m + 1) for k in range(1, m + 1)]) for m in range(7)]
    corpus += [stacked_path(m, d) for m in (1, 2, 5) for d in (1, 2, 3, 4)]
    for _ in range(40):
        profile = [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
        corpus.append(random_attach_quasitree(rng, profile))
        corpus.append(random_quasi_tree(rng))
        corpus.append(random_ridge_tree(rng, rng.randint(2, 4), rng.randint(2, 7))[0])
        corpus.append(random_pure_strongly_connected(rng))
    corpus += [random_pure_complex(rng) for _ in range(150)]
    corpus += [random_complex(rng, 6, 4, cone=rng.randint(0, 1)) for _ in range(150)]
    return corpus


def _has_free_vertex(cx: SimplicialComplex) -> bool:
    return any(sum(v in f for f in cx.facets) == 1 for v in range(1, cx.n + 1))


def _hypotheses_hold(method: str, cx: SimplicialComplex, field: FieldSpec) -> bool:
    try:
        if method == "tree":
            require_tree_case(cx, field)
        elif method == "quasitree":
            require_quasi_tree(cx)
        else:
            return find_shelling(cx) is not None
    except (HypothesesViolated, NotQuasiTree, NotPure):
        return False
    return True


def test_complexes_the_tree_and_quasi_tree_methods_accept_have_a_free_vertex():
    # the lemma that lets auto rule both methods out before it loads the
    # graph layer: a leaf order's last facet has a vertex no other facet
    # holds, and so does a leaf of a Cohen-Macaulay complex's facet tree
    accepted = []
    for cx in _dispatch_corpus():
        if cx.m < 2:
            continue
        if find_leaf_order(cx) is not None:
            accepted.append(("quasitree", cx))
        accepted += [("tree", cx) for field in FIELDS if _hypotheses_hold("tree", cx, field)]
    assert [cx for _, cx in accepted if not _has_free_vertex(cx)] == []
    methods = [method for method, _ in accepted]
    assert methods.count("tree") >= 200 and methods.count("quasitree") >= 150


def test_auto_dispatch_agrees_with_the_hypotheses_in_every_characteristic():
    # _applies rules out tree and quasitree on complexes with no free
    # vertex without running their hypothesis checks; it must still give
    # their answer
    answers = {(method, held): 0 for method in ("tree", "quasitree", "general") for held in (0, 1)}
    unfree = 0
    for cx in _dispatch_corpus():
        unfree += cx.m > 1 and not _has_free_vertex(cx)
        for field in FIELDS:
            for method in ("tree", "quasitree", "general"):
                held = _hypotheses_hold(method, cx, field)
                assert cli._applies(method, cx, field) == held, (method, cx, field)
                answers[method, held] += 1
    assert unfree >= 40
    assert min(answers.values()) >= 400


GOLDEN = {
    tuple(case["argv"]): case
    for case in json.loads(Path(__file__).with_name("cli_golden.json").read_text())
}


@pytest.mark.parametrize(
    "argv",
    [
        argv
        for fixture in ("star", "star-alpha")
        for argv in (
            ("analyze", fixture, "--char", "0"),
            ("analyze", fixture, "--char", "2"),
            ("check", fixture, "--method", "auto"),
            ("check", fixture, "--method", "quasitree"),
            ("cross-validate", fixture, "--samples", "20", "--seed", "3"),
        )
    ],
    ids=" ".join,
)
def test_no_table_decision_multiplies_relation_trees_out(monkeypatch, capsys, argv):
    # the quasi-tree criterion and auto's applicability gate decide one
    # ridge clique at a time, so no command needs the relation trees
    def refuse(cx):
        raise RuntimeError("relation_trees multiplies the clique trees out")

    for module in (graphs, satisfying, cli):
        monkeypatch.setattr(module, "relation_trees", refuse, raising=False)
    # fixtures built anew, so their clique trees and masks are worked out
    # under the patch
    monkeypatch.setattr(fixtures, "_BUILT", {})
    case = GOLDEN[argv]
    assert run(capsys, *argv) == (case["code"], case["stdout"], case["stderr"])


def _refuse_clique_trees(monkeypatch):
    def refuse(cx):
        raise RuntimeError("clique_trees lists every tree of every ridge clique")

    for module in (graphs, satisfying, cli):
        monkeypatch.setattr(module, "clique_trees", refuse, raising=False)


@pytest.mark.parametrize(
    "argv",
    [
        argv
        for fixture in ("star", "triangle-tree")
        for argv in (
            ("analyze", fixture, "--char", "0"),
            ("analyze", fixture, "--char", "2"),
            ("check", fixture, "--method", "auto"),
            ("check", fixture, "--method", "quasitree"),
            ("cross-validate", fixture, "--samples", "20", "--seed", "3"),
        )
    ],
    ids=" ".join,
)
def test_no_table_decision_enumerates_clique_trees(monkeypatch, capsys, argv):
    # the quasi-tree criterion searches the splits of each ridge clique,
    # and auto's applicability gate checks the hypotheses alone, so no
    # command lists the k^(k-2) trees of a clique of k facets
    _refuse_clique_trees(monkeypatch)
    monkeypatch.setattr(fixtures, "_BUILT", {})
    case = GOLDEN[argv]
    assert run(capsys, *argv) == (case["code"], case["stdout"], case["stderr"])


def test_no_attach_quasitree_decision_enumerates_clique_trees(monkeypatch, capsys, tmp_path):
    # triangles glued in ridge cliques of 4, 3 and 2 facets with a table
    # the criterion accepts: its witness is the clique-tree scan's, and
    # no command's output changes when clique_trees refuses to run
    rng = random.Random(19)
    cx = random_attach_quasitree(rng, (4, 3, 2))
    mult = next(
        am for am in (random_sparse_assignment(rng, cx, 3) for _ in range(100))
        if quasitree_reference(am)[0]
    )
    doc = tmp_path / "attach.json"
    alpha = [{"facet": j, "vertex": i, "value": v} for j, i, v in mult.raised]
    doc.write_text(json.dumps({"n": cx.n, "facets": [list(f) for f in cx.facets], "alpha": alpha}))
    requests = [
        ("analyze", str(doc)),
        ("check", str(doc), "--method", "auto"),
        ("check", str(doc), "--method", "quasitree"),
        ("cross-validate", str(doc), "--samples", "20", "--seed", "3"),
    ]
    expected = [run(capsys, *argv) for argv in requests]
    witness = " ".join(f"{a}-{b}" for a, b in quasitree_reference(mult)[1])
    verdict = f"method: quasitree\nverdict: Cohen-Macaulay\nwitness tree edges: {witness}\n"
    assert expected[2] == (0, verdict, "")
    _refuse_clique_trees(monkeypatch)
    assert [run(capsys, *argv) for argv in requests] == expected


# -- argument parsing --------------------------------------------------------


def argparse_outcome(argv):
    """What argparse alone makes of argv: (its attributes, None) when it
    parses them, else (None, (exit code, stdout, stderr)) as main reports
    the error or the help."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return vars(cli.build_parser().parse_args(argv)), None
        except cli._UsageError as exc:
            line = f"usage error: {exc}"
            if len(line) > _ERROR_WIDTH:
                line = line[: _ERROR_WIDTH - 1] + "…"
            return None, (3, "", line + "\n")
        except SystemExit as exc:
            return None, (exc.code or 0, out.getvalue(), err.getvalue())


REQUESTS = [
    ("examples",),
    ("examples", "list"),
    ("examples", "show", "star"),
    ("check", "problems/path.json", "--method", "oracle", "--char", "2"),
    ("check", "--method=quasitree", "star", "--char=3"),
    ("ideal", "problems/path.json", "--expand"),
    ("cross-validate", "star", "--samples", "40", "--seed", "7"),
    ("cross-validate", "--samples", "0", "star", "--max-exp", " 4", "--char", "0"),
    ("analyze", "star", "--char", "5"),
]


@pytest.mark.parametrize("argv", sorted(GOLDEN) + REQUESTS, ids=" ".join)
def test_plain_argv_is_parsed_without_argparse(argv):
    fast = cli._fast_parse(list(argv))
    assert fast is not None
    assert vars(fast) == argparse_outcome(list(argv))[0]


FLAGS = sorted(
    {flag for _, _, arguments in cli._COMMANDS.values() for flag, _ in arguments if flag[0] == "-"}
)
WORDS = [
    "star", "list", "show", "oracle", "auto", "tree", "0", "2", "07", " 7", "1_0", "+4",
    "-1", "1.5", "x", "", "7" * 5000, "-h", "--help", "--", "-", "-x", "--unknown",
]


@st.composite
def table_argvs(draw):
    """A subcommand with its positionals in order and a random subset of
    its options, some repeated, in any order, with valid and invalid
    values, written as --opt value or --opt=value."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    groups, positionals = [], []
    for flag, spec in cli._COMMANDS[name][2]:
        if "choices" in spec:
            values = spec["choices"] + ["bogus"]
        elif "type" in spec:
            values = ["3", "0", " 7", "-2", "x", "7" * 5000]
        else:
            values = ["star", "show", "list", "problems/path.json", "", "-1", "--help"]
        if not flag.startswith("-"):
            if spec.get("nargs") != "?" or draw(st.booleans()):
                positionals.append(draw(st.sampled_from(values)))
            continue
        for _ in range(draw(st.sampled_from([1, 0, 1, 2]))):
            if spec.get("action") == "store_true":
                groups.append([flag])
            else:
                value = draw(st.sampled_from(values))
                groups.append(draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    groups = draw(st.permutations(groups))
    for token in positionals:
        groups.insert(draw(st.integers(0, len(groups))), [token])
    return [name] + [token for group in groups for token in group]


JUNK_TOKENS = st.one_of(
    st.sampled_from(FLAGS),
    st.builds(lambda flag, cut: flag[:cut], st.sampled_from(FLAGS), st.integers(3, 8)),
    st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(WORDS)),
    st.sampled_from(WORDS),
)
JUNK_ARGVS = st.builds(
    lambda head, rest: head + rest,
    st.sampled_from([[name] for name in cli._COMMANDS] + [["chec"], ["frobnicate"], []]),
    st.lists(JUNK_TOKENS, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(table_argvs(), JUNK_ARGVS))
def test_fast_parse_agrees_with_argparse(argv):
    parsed, failure = argparse_outcome(argv)
    fast = cli._fast_parse(argv)
    if fast is not None:
        assert vars(fast) == parsed
        return
    # a declined argv goes to argparse through main, with its exit code,
    # help and usage-error line; the handlers are stubbed out
    seen = []

    def handler(args):
        seen.append(vars(args))
        return 0

    table = {name: (handler, *rest) for name, (_, *rest) in cli._COMMANDS.items()}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli._COMMANDS, table), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if failure is None:
        assert (code, out.getvalue(), err.getvalue(), seen) == (0, "", "", [dict(parsed, func=handler)])
    else:
        assert (code, out.getvalue(), err.getvalue()) == failure


# -- the CLI as a process ----------------------------------------------------


def cli_env(buffered=True):
    """The environment of a CLI process: block-buffered output as in a
    user's run, unless buffered is False, and UTF-8 streams."""
    src = str(Path(cmlab.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def cli_process(*argv, buffered=True, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "cmlab.cli", *argv], env=cli_env(buffered), timeout=60, **kwargs
    )


@pytest.fixture
def long_path(tmp_path):
    """A 200-edge path, whose ideal output is far past a 64 KiB pipe buffer."""
    doc = tmp_path / "path.json"
    doc.write_text(json.dumps({"n": 201, "facets": [[k, k + 1] for k in range(1, 201)]}))
    return str(doc)


def one_case_per_command_and_code():
    picked = {}
    for case in GOLDEN.values():
        picked.setdefault(case["argv"][0], case)
        picked.setdefault(case["code"], case)
    return list({id(case): case for case in picked.values()}.values())


@pytest.mark.parametrize(
    "case", one_case_per_command_and_code(), ids=lambda case: " ".join(case["argv"])
)
def test_process_output_matches_the_golden_case(case):
    proc = cli_process(*case["argv"], capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        case["code"],
        case["stdout"].encode(),
        case["stderr"].encode(),
    )


def test_process_usage_error_matches_main(capsys):
    argv = ("check", "square-alpha", "--method", "bogus")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("usage error: ")
    proc = cli_process(*argv, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, b"", err.encode())


def test_process_on_a_file_that_is_not_utf8_prints_one_error_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n": 2, "facets": [[1, 2]]}\xff')
    proc = cli_process("check", str(bad), capture_output=True)
    assert b"Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, b"", b"error: not UTF-8 text: invalid start byte at byte 28\n"
    )


def test_process_output_past_the_pipe_buffer_is_complete(tmp_path, capsys, long_path):
    code, out, err = run(capsys, "ideal", long_path)
    assert (code, err) == (0, "")
    assert len(out) > 2 * 65536
    piped = cli_process("ideal", long_path, capture_output=True)
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, out.encode(), b"")
    target = tmp_path / "out.txt"
    with open(target, "wb") as handle:
        written = cli_process("ideal", long_path, stdout=handle, stderr=subprocess.PIPE)
    assert (written.returncode, target.read_bytes(), written.stderr) == (0, out.encode(), b"")


@pytest.mark.parametrize(
    "long_output,buffered,read",
    [(False, True, 0), (False, False, 0), (True, True, 10)],
    ids=["buffered", "unbuffered", "past-the-buffer"],
)
def test_process_on_a_closed_pipe_exits_four(long_path, long_output, buffered, read):
    # a reader that closes stdout early is no input error: whether the
    # write fails in main or in the flush at exit, the run exits 4 and
    # writes nothing to stderr.  A short answer fails only if the reader
    # is gone before it is written; a long one blocks until the reader
    # has read some of it and closed the pipe.
    argv = ["ideal", long_path] if long_output else ["examples"]
    read_end, write_end = os.pipe()
    reader = os.fdopen(read_end, "rb")
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "cmlab.cli", *argv],
            env=cli_env(buffered), stdout=write_end, stderr=subprocess.PIPE,
        )
        os.close(write_end)
        assert len(reader.read(read)) == read
        reader.close()
        _, err = proc.communicate(timeout=60)
    finally:
        if not reader.closed:
            reader.close()
    assert (proc.returncode, err) == (4, b"")


def test_process_with_stdout_closed_at_start_exits_zero():
    # Python sets sys.stdout to None when fd 1 is closed, and print drops
    # the output silently
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m cmlab.cli examples >&-', sys.executable],
        env=cli_env(), capture_output=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
