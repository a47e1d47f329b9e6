"""JSON-driven command line interface.

Problem files are UTF-8 JSON objects with fields n (vertex count),
facets (list of vertex lists), alpha (optional list of records
{facet, vertex, value}, unspecified pairs default to 1), and char
(optional field characteristic, default 0).  Every command also accepts
a built-in fixture name in place of a file path.

Exit codes: 0 Cohen-Macaulay (or plain success), 1 not Cohen-Macaulay,
2 unknown, 3 usage or input errors, 4 output could not be written (its
reader closed stdout early).

A request loads only what its subcommand runs: plain arguments are read
straight from the command table, and argparse parses only --help and the
argument lists that reading declines.  Each handler imports the modules
it calls when it runs.  Besides cli, cli_helpers, complexes and errors,
and fixtures when the source is a fixture name:

- examples loads only fixtures;
- check --method oracle loads homology;
- check --method auto loads homology, and graphs to test the hypotheses
  only when the complex has a free vertex (one that lies in exactly one
  facet), and satisfying only when the tree or quasi-tree criterion runs;
- check --method tree or quasitree loads homology, graphs and
  satisfying;
- check --method general, analyze and cross-validate load homology,
  graphs, structure and satisfying;
- ideal loads ideals.

array loads only for the walks that order the tree criterion's violations.

A problem file is read by json's C scanner (the _json module), so no
request imports json itself, except examples show, which prints with
json.dumps, and a file the scan does not accept whole, which json.loads
reads again to give its own value or error.  No request imports typing.
Package attributes load on first access.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .cli_helpers import resolve_source
from .complexes import MultiplicityAssignment, _exponent_domain, _facet_masks
from .errors import (
    CmLabError,
    HypothesesViolated,
    NotPure,
    NotQuasiTree,
    NotShellable,
    ParseError,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


def _render_edges(edges) -> str:
    from .graphs import ROOT

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
    from .graphs import facet_graph, vertex_graph
    from .homology import FieldSpec
    from .satisfying import is_general_satisfying, is_quasitree_satisfying, is_tree_satisfying
    from .structure import classify

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
        f"({j},{i})={v}" for j, i, v in mult.raised
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
    from .satisfying import is_tree_satisfying

    try:
        verdict = is_tree_satisfying(mult, field)
    except HypothesesViolated as exc:
        raise CmLabError(f"method tree not applicable: {exc}") from None
    if verdict.satisfied:
        print("verdict: Cohen-Macaulay")
        return 0
    print("verdict: not Cohen-Macaulay")
    for line in _violation_lines(verdict):
        print(line)
    return 1


def _check_quasitree(mult) -> int:
    from .satisfying import is_quasitree_satisfying

    try:
        verdict = is_quasitree_satisfying(mult)
    except NotQuasiTree as exc:
        raise CmLabError(f"method quasitree not applicable: {exc}") from None
    if verdict.satisfied:
        print("verdict: Cohen-Macaulay")
        print(f"witness tree edges: {_render_edges(verdict.witness_tree.edges)}")
        return 0
    print("verdict: unknown (the quasi-tree criterion is sufficient only)")
    return 2


def _check_general(mult) -> int:
    from .satisfying import is_general_satisfying

    try:
        held = is_general_satisfying(mult)
    except NotShellable as exc:
        raise CmLabError(f"method general not applicable: {exc}") from None
    print(f"shelling condition: {'holds' if held else 'fails'}")
    print("verdict: unknown (the condition decides nothing in either direction)")
    return 2


def _check_oracle(mult, field) -> int:
    from .homology import is_cm_ideal_oracle

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
    hold on the complex, so that its answer means something.  Only
    general loads structure, for its shelling search.

    A free vertex lies in exactly one facet.  Neither the tree nor the
    quasi-tree method applies to a complex with two or more facets and no
    free vertex, which is ruled out before graphs loads:
    - the last facet of a leaf order has a vertex outside its branch,
      and no other facet holds it;
    - a leaf F of the facet tree of a Cohen-Macaulay complex meets its
      one neighbour G in a ridge, and the vertex of F outside G is free:
      were it in another facet, its link, Cohen-Macaulay and so strongly
      connected, would take a second ridge at F."""
    if method != "general" and cx.m > 1:
        _, holders = _facet_masks(cx)
        if not any(h and not h & (h - 1) for h in holders):
            return False
    from .graphs import require_quasi_tree, require_tree_case

    try:
        if method == "tree":
            require_tree_case(cx, field)
        elif method == "quasitree":
            require_quasi_tree(cx)
        else:
            from .structure import find_shelling

            return find_shelling(cx) is not None
    except (HypothesesViolated, NotQuasiTree, NotPure):
        return False
    return True


def cmd_check(args) -> int:
    from .homology import FieldSpec

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


def _random_entries(rng, top: int, domain) -> tuple[tuple[int, int, int], ...]:
    """The entries (j, i, value) above 1 of a table drawn at every domain
    pair as rng.randint(1, top) draws: getrandbits(top.bit_length())
    until the draw is below top, plus one."""
    getrandbits = rng.getrandbits
    bits = top.bit_length()
    entries = []
    for j, i in domain:
        r = getrandbits(bits)
        while r >= top:
            r = getrandbits(bits)
        if r:
            entries.append((j, i, r + 1))
    return tuple(entries)


def cmd_cross_validate(args) -> int:
    import random

    from .homology import FieldSpec, is_cm_ideal_oracle
    from .satisfying import check_cm_quasitree_sufficient, check_cm_tree_case, is_general_satisfying

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

    domain = _exponent_domain(cx)
    rng = random.Random(args.seed)
    cm_count = 0
    tree_agree = tree_disagree = 0
    qt_sat = qt_violation = qt_silent_cm = 0
    gen_hold = gen_hold_cm = gen_fail = gen_fail_cm = 0
    for _ in range(args.samples):
        # drawn in canonical domain order, so the table needs no validation
        mult = MultiplicityAssignment._of_canonical(
            cx, _random_entries(rng, args.max_exp, domain)
        )
        oracle_cm = is_cm_ideal_oracle(mult, field).is_cm
        cm_count += oracle_cm
        if tree_ok:
            if check_cm_tree_case(mult, field) == oracle_cm:
                tree_agree += 1
            else:
                tree_disagree += 1
        if quasi_ok:
            if check_cm_quasitree_sufficient(mult):
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
    from .fixtures import _SPECS, problem_json

    if args.action == "show":
        if args.name is None:
            raise ParseError("examples show requires a fixture name")
        import json

        print(json.dumps(problem_json(args.name), indent=2))
        return 0
    for name, description, *_ in _SPECS.values():
        print(f"{name}: {description}")
    return 0


def cmd_ideal(args) -> int:
    from .ideals import expand_ideal, irreducible_component, render_ideal

    cx, mult, _, _ = resolve_source(args.source)
    if mult is None:
        mult = MultiplicityAssignment.constant(cx)
    for j in range(1, cx.m + 1):
        print(f"Q{j} = {render_ideal(irreducible_component(mult, j))}")
    if args.expand:
        print(f"I = {render_ideal(expand_ideal(mult))}")
    return 0


# Every subcommand, read by build_parser() and _fast_parse() alike: name
# -> (handler, help, arguments), each argument a positional name or an
# option flag with the keyword options of add_argument.
_COMMANDS = {
    "analyze": (cmd_analyze, "structural report for a problem file", (
        ("source", {"help": "problem file path or fixture name"}),
        ("--char", {"type": int, "default": None, "help": "field characteristic"}),
    )),
    "check": (cmd_check, "decide Cohen-Macaulayness", (
        ("source", {}),
        ("--method", {
            "choices": ["tree", "quasitree", "general", "oracle", "auto"],
            "default": "auto",
        }),
        ("--char", {"type": int, "default": None}),
    )),
    "cross-validate": (
        cmd_cross_validate, "sample random exponent tables against the oracle", (
            ("source", {}),
            ("--samples", {"type": int, "required": True}),
            ("--max-exp", {"type": int, "default": 3}),
            ("--seed", {"type": int, "default": 0}),
            ("--char", {"type": int, "default": None}),
        ),
    ),
    "examples": (cmd_examples, "list built-in fixtures or show one", (
        ("action", {"nargs": "?", "choices": ["list", "show"], "default": "list"}),
        ("name", {"nargs": "?", "default": None}),
    )),
    "ideal": (cmd_ideal, "print the components of the ideal", (
        ("source", {}),
        ("--expand", {"action": "store_true"}),
    )),
}


def build_parser():
    """The argparse parser of _COMMANDS, which raises _UsageError on a
    usage error."""
    import argparse
    from typing import NoReturn  # argparse has loaded re, so this costs little here

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:
            raise _UsageError(message)

    parser = _Parser(prog="cm-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _fast_parse(argv) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) returns, read from
    _COMMANDS without argparse, or None unless argv is plain.

    Plain argv is an exact subcommand name, then its positionals and
    exact option names, as --opt value or --opt=value: no option twice,
    every required one present, no token empty or starting with "-" but
    the option names, and every value accepted by its type and choices.
    Everything else (--help, abbreviations, "--", every usage error) is
    left to argparse, so its help and messages stay its own.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[argv[0]]
    options = {flag: spec for flag, spec in arguments if flag.startswith("-")}
    given: dict[str, str] = {}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, eq, value = token.partition("=")
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            if eq:
                return None
        elif not eq:
            value = next(tokens, "")
        given[flag] = value
    rest = iter(positionals)
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, spec in arguments:
        if flag.startswith("-"):
            dest = flag[2:].replace("-", "_")
            if spec.get("action") == "store_true":
                setattr(args, dest, flag in given)
                continue
            raw = given.get(flag)
            if raw is None and spec.get("required"):
                return None
        else:
            dest = flag
            raw = next(rest, None)
            if raw is None and spec.get("nargs") != "?":
                return None
        if raw is None:
            setattr(args, dest, spec.get("default"))
            continue
        if not raw or raw.startswith("-"):
            return None
        try:
            value = spec["type"](raw) if "type" in spec else raw
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        setattr(args, dest, value)
    return args if next(rest, None) is None else None


# Error lines quote user input (an argument, a path), so they are cut here.
_ERROR_WIDTH = 200

# The exit code of a run whose output could not be written.
_OUTPUT_LOST = 4


def _fail(message: str) -> int:
    """Print a one-line error to stderr, at most _ERROR_WIDTH characters
    ending in an ellipsis when cut, and return the usage exit code 3."""
    if len(message) > _ERROR_WIDTH:
        message = message[: _ERROR_WIDTH - 1] + "…"
    print(message, file=sys.stderr)
    return 3


def main(argv: list[str] | None = None) -> int:
    """Run one request and return its exit code; never end the process.

    argparse is imported and built only for argv that _fast_parse
    declines.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except _UsageError as exc:
            return _fail(f"usage error: {exc}")
        except SystemExit as exc:  # --help
            code = exc.code
            return int(code) if code else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader of stdout has gone: nothing more can reach it
        return _OUTPUT_LOST
    except (CmLabError, OSError) as exc:
        return _fail(f"error: {exc}")
    except (RecursionError, MemoryError) as exc:
        what = "recursion depth" if isinstance(exc, RecursionError) else "memory"
        return _fail(f"error: input too large: {what} exhausted")


def console_main() -> None:
    """Run main() on the process arguments and end the process with its
    exit code, never returning; the entry point of ``cm-lab`` and
    ``python -m cmlab.cli``.

    Once stdout and stderr are flushed the process leaves through
    os._exit, skipping interpreter finalization, which only frees what
    the OS reclaims at exit anyway.  That is safe because the package
    registers no atexit handler, starts no thread and opens files only
    for reading, so nothing is left to run or write.  A flush that fails
    on a closed pipe makes the exit code 4, like a failed write inside
    main, and leaving through os._exit drops what is left unwritten,
    with no "Exception ignored" report at exit.  If a flush fails
    otherwise (a full disk) the process leaves through sys.exit, so the
    exit status and stderr are those of a normal exit.  An exception
    escaping main propagates as it would without this function.

    The process runs without the cyclic garbage collector.  A request
    keeps what it works out on the complexes it holds until it exits,
    and what it drops earlier holds no reference cycle, so a collection
    frees nothing and only rescans live objects: on large inputs that
    was a quarter of the run.  Reference counting still frees every
    object that is not in a cycle, and main() itself keeps the
    collector, so library callers and in-process tests are unaffected.
    """
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # None when the fd was closed at start-up
            continue
        try:
            stream.flush()
        except BrokenPipeError:
            code = _OUTPUT_LOST
        except OSError:
            sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
