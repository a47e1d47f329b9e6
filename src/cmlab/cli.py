"""JSON-driven command line interface.

Problem files are UTF-8 JSON objects with fields n (vertex count),
facets (list of vertex lists), alpha (optional list of records
{facet, vertex, value}, unspecified pairs default to 1), and char
(optional field characteristic, default 0).  Every command also accepts
a built-in fixture name in place of a file path.

Exit codes: 0 Cohen-Macaulay (or plain success), 1 not Cohen-Macaulay,
2 unknown, 3 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .cli_helpers import parse_problem_file, resolve_source  # noqa: F401
from .complexes import MultiplicityAssignment
from .errors import (
    CmLabError,
    HypothesesViolated,
    MethodNotApplicable,
    NotPure,
    NotQuasiTree,
    NotShellable,
    ParseError,
)
from .fixtures import fixture_names, get_fixture, problem_json
from .graphs import ROOT, facet_graph, relation_trees, vertex_graph
from .homology import FieldSpec, is_cm_ideal_oracle
from .ideals import expand_ideal, irreducible_component, render_ideal
from .satisfying import (
    is_general_satisfying,
    is_quasitree_satisfying,
    is_tree_satisfying,
)
from .structure import classify, find_shelling, require_tree_case

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _render_edges(edges) -> str:
    return " ".join(
        f"{'r' if a == ROOT else a}-{'r' if b == ROOT else b}" for a, b in edges
    )


def _render_facet(facet) -> str:
    return "[" + ",".join(str(v) for v in facet) + "]"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _violation_lines(verdict) -> list[str]:
    return [
        f"  vertex {i}: values {pv} < {cv} along edge {parent}->{child}"
        for i, (parent, child), (pv, cv) in verdict.violations
    ]


def cmd_analyze(args) -> int:
    cx, mult, char, label = resolve_source(args.source)
    field = FieldSpec(char if args.char is None else args.char)
    print(f"source: {label}")
    print(f"complex: n={cx.n}, m={cx.m}, dimension {cx.dim}")
    print("facets: " + " ".join(_render_facet(f) for f in cx.facets))
    print(f"f-vector: {cx.f_vector()}")
    print(f"h-vector: {cx.h_vector()}")
    print(f"multiplicity: {cx.multiplicity()}")
    report = classify(cx, field)
    print(f"classification (characteristic {field.characteristic}):")
    for name, flag in report.flags():
        print(f"  {name}: {_yesno(flag)}")
    if cx.is_pure:
        print("facet graph edges: " + (_render_edges(facet_graph(cx).edges) or "none"))
        for i in range(1, cx.n + 1):
            g = vertex_graph(cx, i)
            rendered = _render_edges(g.edges) if g.edges else "root only"
            print(f"vertex graph {i}: {rendered}")
    if mult is None:
        return 0
    print("alpha: " + " ".join(
        f"({j},{i})={v}" for j, i, v in sorted(mult.entries) if v != 1
    ))
    try:
        verdict = is_tree_satisfying(mult, field)
        state = "satisfied" if verdict.satisfied else "violated"
        print(f"tree criterion: {state}")
        for line in _violation_lines(verdict):
            print(line)
    except HypothesesViolated as exc:
        print(f"tree criterion: not applicable ({exc})")
    try:
        verdict = is_quasitree_satisfying(mult)
        if verdict.satisfied:
            print(
                "quasi-tree criterion: satisfied"
                f" (witness tree edges: {_render_edges(verdict.witness_tree.edges)})"
            )
        else:
            print("quasi-tree criterion: not satisfied")
    except NotQuasiTree as exc:
        print(f"quasi-tree criterion: not applicable ({exc})")
    try:
        held = is_general_satisfying(mult)
        print(f"shelling condition: {'holds' if held else 'fails'}")
    except NotShellable as exc:
        print(f"shelling condition: not applicable ({exc})")
    return 0


def _check_tree(mult, field) -> int:
    try:
        verdict = is_tree_satisfying(mult, field)
    except HypothesesViolated as exc:
        raise MethodNotApplicable(f"method tree not applicable: {exc}") from None
    if verdict.satisfied:
        print("verdict: Cohen-Macaulay")
        return 0
    print("verdict: not Cohen-Macaulay")
    for line in _violation_lines(verdict):
        print(line)
    return 1


def _check_quasitree(mult) -> int:
    try:
        verdict = is_quasitree_satisfying(mult)
    except NotQuasiTree as exc:
        raise MethodNotApplicable(f"method quasitree not applicable: {exc}") from None
    if verdict.satisfied:
        print("verdict: Cohen-Macaulay")
        print(f"witness tree edges: {_render_edges(verdict.witness_tree.edges)}")
        return 0
    print("verdict: unknown (the quasi-tree criterion is sufficient only)")
    return 2


def _check_general(mult) -> int:
    try:
        held = is_general_satisfying(mult)
    except NotShellable as exc:
        raise MethodNotApplicable(f"method general not applicable: {exc}") from None
    print(f"shelling condition: {'holds' if held else 'fails'}")
    print("verdict: unknown (the condition decides nothing in either direction)")
    return 2


def _check_oracle(mult, field) -> int:
    verdict = is_cm_ideal_oracle(mult, field)
    if verdict.is_cm:
        print("verdict: Cohen-Macaulay")
        return 0
    print("verdict: not Cohen-Macaulay")
    print(f"witness threshold vector: {verdict.witness}")
    sub = mult.threshold_subcomplex(verdict.witness)
    rendered = " ".join(_render_facet(f) for f in sub.facets) or "none"
    print(f"surviving facets: {rendered}")
    return 1


def _applies(method: str, cx, field) -> bool:
    """Whether the hypotheses of the tree, quasitree or general method
    hold on the complex, so that its answer means something."""
    try:
        if method == "tree":
            require_tree_case(cx, field)
        elif method == "quasitree":
            relation_trees(cx)
        else:
            return find_shelling(cx) is not None
    except (HypothesesViolated, NotQuasiTree, NotPure):
        return False
    return True


def cmd_check(args) -> int:
    cx, mult, char, _ = resolve_source(args.source)
    field = FieldSpec(char if args.char is None else args.char)
    if mult is None:
        mult = MultiplicityAssignment.constant(cx)
    method = args.method
    if method == "auto":
        if _applies("tree", cx, field):
            print(f"method: auto -> tree (characteristic {field.characteristic})")
            return _check_tree(mult, field)
        if _applies("quasitree", cx, field):
            print("method: auto -> quasitree")
            code = _check_quasitree(mult)
            if code != 2:
                return code
            print(f"falling back to the oracle (characteristic {field.characteristic})")
            return _check_oracle(mult, field)
        print(f"method: auto -> oracle (characteristic {field.characteristic})")
        return _check_oracle(mult, field)
    if method == "tree":
        print(f"method: tree (characteristic {field.characteristic})")
        return _check_tree(mult, field)
    if method == "quasitree":
        print("method: quasitree")
        return _check_quasitree(mult)
    if method == "general":
        print("method: general")
        return _check_general(mult)
    print(f"method: oracle (characteristic {field.characteristic})")
    return _check_oracle(mult, field)


def cmd_cross_validate(args) -> int:
    cx, _, char, label = resolve_source(args.source)
    field = FieldSpec(char if args.char is None else args.char)
    if args.samples < 0:
        raise ParseError("samples must be >= 0")
    if args.max_exp < 1:
        raise ParseError("max-exp must be >= 1")
    print(f"cross-validate: {label}")
    print(
        f"samples={args.samples} max-exp={args.max_exp} seed={args.seed}"
        f" characteristic={field.characteristic}"
    )
    tree_ok, quasi_ok, general_ok = (
        _applies(method, cx, field) for method in ("tree", "quasitree", "general")
    )

    domain = [(j, i) for j, i, _ in MultiplicityAssignment.constant(cx).entries]
    rng = random.Random(args.seed)
    cm_count = 0
    tree_agree = tree_disagree = 0
    qt_sat = qt_violation = qt_silent_cm = 0
    gen_hold = gen_hold_cm = gen_fail = gen_fail_cm = 0
    for _ in range(args.samples):
        mult = MultiplicityAssignment(
            cx, tuple((j, i, rng.randint(1, args.max_exp)) for j, i in domain)
        )
        oracle_cm = is_cm_ideal_oracle(mult, field).is_cm
        cm_count += oracle_cm
        if tree_ok:
            if is_tree_satisfying(mult, field).satisfied == oracle_cm:
                tree_agree += 1
            else:
                tree_disagree += 1
        if quasi_ok:
            if is_quasitree_satisfying(mult).satisfied:
                qt_sat += 1
                if not oracle_cm:
                    qt_violation += 1
            elif oracle_cm:
                qt_silent_cm += 1
        if general_ok:
            if is_general_satisfying(mult):
                gen_hold += 1
                gen_hold_cm += oracle_cm
            else:
                gen_fail += 1
                gen_fail_cm += oracle_cm
    print(f"oracle: {cm_count} Cohen-Macaulay, {args.samples - cm_count} not")
    if tree_ok:
        print(f"tree: {tree_agree} agree, {tree_disagree} disagree")
    else:
        print("tree: not applicable")
    if quasi_ok:
        print(
            f"quasitree: {qt_sat} satisfied, {qt_violation} soundness violations,"
            f" {qt_silent_cm} silent but Cohen-Macaulay"
        )
    else:
        print("quasitree: not applicable")
    if general_ok:
        print(
            f"general: {gen_hold} hold ({gen_hold_cm} Cohen-Macaulay),"
            f" {gen_fail} fail ({gen_fail_cm} Cohen-Macaulay)"
        )
    else:
        print("general: not applicable")
    return 1 if tree_disagree or qt_violation else 0


def cmd_examples(args) -> int:
    if args.action == "show":
        if args.name is None:
            raise ParseError("examples show requires a fixture name")
        print(json.dumps(problem_json(args.name), indent=2))
        return 0
    for name in fixture_names():
        print(f"{name}: {get_fixture(name).description}")
    return 0


def cmd_ideal(args) -> int:
    cx, mult, _, _ = resolve_source(args.source)
    if mult is None:
        mult = MultiplicityAssignment.constant(cx)
    for j in range(1, cx.m + 1):
        print(f"Q{j} = {render_ideal(irreducible_component(mult, j))}")
    if args.expand:
        print(f"I = {render_ideal(expand_ideal(mult))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cm-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural report for a problem file")
    p.add_argument("source", help="problem file path or fixture name")
    p.add_argument("--char", type=int, default=None, help="field characteristic")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="decide Cohen-Macaulayness")
    p.add_argument("source")
    p.add_argument(
        "--method",
        choices=["tree", "quasitree", "general", "oracle", "auto"],
        default="auto",
    )
    p.add_argument("--char", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "cross-validate", help="sample random exponent tables against the oracle"
    )
    p.add_argument("source")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--max-exp", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--char", type=int, default=None)
    p.set_defaults(func=cmd_cross_validate)

    p = sub.add_parser("examples", help="list built-in fixtures or show one")
    p.add_argument("action", nargs="?", choices=["list", "show"], default="list")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("ideal", help="print the components of the ideal")
    p.add_argument("source")
    p.add_argument("--expand", action="store_true")
    p.set_defaults(func=cmd_ideal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # --help
        code = exc.code
        return int(code) if code else 0
    try:
        return args.func(args)
    except (CmLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
