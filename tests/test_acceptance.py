"""Acceptance gate: ten pinned criteria, one printed verdict line each.

Every criterion prints "[acceptance] NN name: PASS" (or FAIL) through the
capture-disabled channel so the lines land in plain pytest output, then
asserts.  All comparisons are exact; the only tolerances are the two wall
clock budgets, pinned at 300 s and 600 s.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from conftest import (
    is_zero,
    matmul,
    random_assignment,
    random_pure_strongly_connected,
    random_quasi_tree,
    random_tree_satisfying,
)

from cmlab import GF2, RATIONALS, get_fixture
from cmlab.complexes import ExponentOffset, MultiplicityAssignment, SimplicialComplex
from cmlab.graphs import facet_graph, is_tree
from cmlab.homology import (
    FieldSpec,
    boundary_matrix,
    is_cm_complex,
    is_cm_ideal_oracle,
    reduced_homology_ranks,
)
from cmlab.ideals import (
    MonomialIdeal,
    irreducible_component,
    render_ideal,
    render_splitting,
    splitting_witness,
)
from cmlab.satisfying import (
    check_cm_quasitree_sufficient,
    check_cm_tree_case,
    decompose_into_generators,
    is_general_satisfying,
    is_quasitree_satisfying,
    semigroup_generators,
)
from cmlab.structure import find_leaf_order, find_shelling, is_shelling
from cmlab import fixture_names


@pytest.fixture
def report(capsys):
    def _report(number: int, name: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"[acceptance] {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance criterion {number} ({name}) failed"

    return _report


def test_criterion_01_tree_criterion_equals_oracle(report):
    start = time.monotonic()
    cx = get_fixture("triangle-tree").complex
    rng = random.Random(101)
    disagreements = 0
    for _ in range(200):
        am = random_assignment(rng, cx, 3)
        for field in (RATIONALS, GF2):
            if check_cm_tree_case(am, field) != is_cm_ideal_oracle(am, field).is_cm:
                disagreements += 1
    elapsed = time.monotonic() - start
    report(1, "tree criterion equals oracle", disagreements == 0 and elapsed < 300)


def test_criterion_02_star_counterexample(report):
    am = get_fixture("star-alpha").assignment()
    silent = check_cm_quasitree_sufficient(am) is None
    cm = is_cm_ideal_oracle(am, RATIONALS).is_cm
    report(2, "star counterexample", silent and cm)


def test_criterion_03_square_counterexample(report):
    am = get_fixture("square-alpha").assignment()
    holds = is_general_satisfying(am)
    verdict = is_cm_ideal_oracle(am, RATIONALS)
    witness_ok = (
        not verdict.is_cm
        and verdict.witness == (0, 2, 2, 0)
        and not is_cm_complex(am.threshold_subcomplex(verdict.witness), RATIONALS)
    )
    report(3, "square counterexample", holds and witness_ok)


def test_criterion_04_projective_plane_field_sensitivity(report):
    start = time.monotonic()
    rp = get_fixture("projective-plane").complex
    ones = MultiplicityAssignment.constant(rp)
    ok = is_cm_ideal_oracle(ones, RATIONALS).is_cm
    ok = ok and not is_cm_ideal_oracle(ones, GF2).is_cm
    pairs = [(j, i) for j, i, _ in ones.entries]
    assert len(pairs) == 30
    for j, i in pairs:
        bumped = MultiplicityAssignment.from_overrides(rp, {(j, i): 2})
        ok = ok and not is_cm_ideal_oracle(bumped, RATIONALS).is_cm
    elapsed = time.monotonic() - start
    report(4, "projective plane field sensitivity", ok and elapsed < 600)


def test_criterion_05_quasitree_criterion_soundness(report):
    rng = random.Random(105)
    complexes = [
        get_fixture("star").complex,
        get_fixture("triangle-tree").complex,
        random_quasi_tree(rng, max_m=6),
        random_quasi_tree(rng, max_m=6),
        random_quasi_tree(rng, max_m=6),
    ]
    violations = 0
    for cx in complexes:
        assert find_leaf_order(cx) is not None
        for _ in range(100):
            am = random_assignment(rng, cx, 3)
            if is_quasitree_satisfying(am).satisfied:
                if not is_cm_ideal_oracle(am, RATIONALS).is_cm:
                    violations += 1
    report(5, "quasi-tree criterion soundness", violations == 0)


def test_criterion_06_minimal_multiplicity_equivalence(report):
    rng = random.Random(106)
    seen = 0
    agree = True
    while seen < 100:
        cx = random_pure_strongly_connected(rng)
        if not cx.is_strongly_connected():
            continue
        seen += 1
        mm = cx.has_minimal_multiplicity()
        conditions = (
            mm,  # strongly connected (by construction) with minimal multiplicity
            is_cm_complex(cx, RATIONALS) and mm,
            (find_shelling(cx) is not None) and mm,
            find_leaf_order(cx) is not None,  # strongly connected quasi-tree
        )
        agree = agree and len(set(conditions)) == 1
    report(6, "minimal multiplicity equivalence", agree)


def test_criterion_07_semigroup_of_satisfying_tables(report):
    cx = get_fixture("triangle-tree").complex
    ok = True
    generators = semigroup_generators(cx)
    for g in generators:
        ok = ok and check_cm_tree_case(g.plus_one(), RATIONALS)
    rng = random.Random(107)
    for _ in range(20):
        total = ExponentOffset.zero(cx)
        for g in rng.sample(generators, 3):
            total = total + g.scale(rng.randint(0, 2))
        ok = ok and is_cm_ideal_oracle(total.plus_one(), RATIONALS).is_cm
    for _ in range(50):
        am = random_tree_satisfying(rng, cx, 3)
        parts = decompose_into_generators(am)
        if parts is None:
            ok = False
            continue
        total = ExponentOffset.zero(cx)
        for p in parts:
            ok = ok and any(p == g for g in generators)
            total = total + p
        ok = ok and total.plus_one() == am
    report(7, "semigroup of satisfying tables", ok)


def test_criterion_08_splitting_identity(report):
    cx = get_fixture("triangle-tree").complex
    shellings = [
        perm
        for perm in itertools.permutations(range(1, 7))
        if is_shelling(cx, perm)
    ]
    assert shellings
    rng = random.Random(108)
    tables = [random_tree_satisfying(rng, cx, 3) for _ in range(20)]
    ok = True
    for order in shellings:
        for am in tables:
            pair = splitting_witness(am, order)
            if pair is None:
                ok = False
                continue
            i, s = pair
            lhs = None
            for j in order[:-1]:
                q = irreducible_component(am, j)
                lhs = q if lhs is None else lhs.intersect(q)
            last = irreducible_component(am, order[-1])
            power = MonomialIdeal(
                cx.n, (tuple(s if k == i - 1 else 0 for k in range(cx.n)),)
            )
            ok = ok and (lhs + last) == (power + last)
            rendered = render_splitting(i, s, last)
            head = f"(x{i})" if s == 1 else f"(x{i}^{s})"
            ok = ok and rendered == head + "+" + render_ideal(last)
    ones = MultiplicityAssignment.constant(cx)
    frozen = splitting_witness(ones, (1, 3, 2, 4, 5, 6))
    golden = render_splitting(
        frozen[0], frozen[1], irreducible_component(ones, 6)
    )
    ok = ok and golden == "(x8)+(x1,x2,x3,x4,x6)"
    report(8, "splitting identity", ok)


def test_criterion_09_homology_kernel(report):
    ok = True
    for name in fixture_names():
        cx = get_fixture(name).complex
        for q in range(0, cx.dim + 1):
            ok = ok and is_zero(matmul(
                boundary_matrix(cx, q - 1, RATIONALS), boundary_matrix(cx, q, RATIONALS)
            ))
        f = cx.f_vector()
        chi = sum((-1) ** q * f[q] for q in range(len(f))) - 1
        for char in (0, 2, 3):
            ranks = reduced_homology_ranks(cx, FieldSpec(char))
            ok = ok and chi == sum((-1) ** (q - 1) * r for q, r in enumerate(ranks))
    hollow = get_fixture("triangle-boundary").complex
    ok = ok and reduced_homology_ranks(hollow, RATIONALS)[-1] == 1
    report(9, "homology kernel", ok)


def _full_box_oracle(am: MultiplicityAssignment, field: FieldSpec):
    cx = am.complex
    top = am.max_value()
    for a in itertools.product(range(top + 1), repeat=cx.n):
        if not is_cm_complex(am.threshold_subcomplex(a), field):
            return False, a
    return True, None


def test_criterion_10_grid_reduction_soundness(report):
    rng = random.Random(110)
    ok = True
    for _ in range(50):
        cx = random_pure_strongly_connected(rng, max_n=5, max_m=5)
        am = random_assignment(rng, cx, 3)
        fast = is_cm_ideal_oracle(am, RATIONALS)
        slow_cm, slow_witness = _full_box_oracle(am, RATIONALS)
        ok = ok and fast.is_cm == slow_cm and fast.witness == slow_witness
    report(10, "grid reduction soundness", ok)
