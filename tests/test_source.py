"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmlab


def test_no_assert_statements():
    # python -O strips assert, so the package must validate with raises.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cmlab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_function_calls_itself():
    # long inputs must not run into the recursion limit, so every search
    # keeps its own stack
    found = [
        f"{path.name}:{call.lineno}: {fn.name}"
        for path in sorted(Path(cmlab.__file__).parent.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and (
            isinstance(call.func, ast.Name)
            and call.func.id == fn.name
            or isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in ("self", "cls")
            and call.func.attr == fn.name
        )
    ]
    assert found == []


INEXACT_MODULES = {"fractions", "decimal", "cmath"}


def _inexact(node: ast.AST) -> str | None:
    """What makes this node floating point or rational arithmetic, if
    anything."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return f"constant {node.value!r}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("float", "complex"):
            return f"call of {node.func.id}"
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return None
    hits = [name for name in names if name.partition(".")[0] in INEXACT_MODULES]
    return f"import of {hits[0]}" if hits else None


def test_exact_core_has_no_inexact_arithmetic():
    # every verdict rests on exact integer ranks, so the package holds no
    # float, no true division and no rational or decimal number type
    found = [
        f"{path.name}:{node.lineno}: {why}"
        for path in sorted(Path(cmlab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (why := _inexact(node))
    ]
    assert found == []


def test_cli_import_leaves_fractions_and_decimal_unloaded():
    # each CLI request is a fresh process, so these imports would be paid
    # per request: dataclasses and inspect cost more than cmlab itself
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cmlab.cli\n"
        "unwanted = {'fractions', 'decimal', 'dataclasses', 'inspect'}\n"
        "print(sorted(unwanted & (set(sys.modules) - before)))\n"
    )
    src = str(Path(cmlab.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_record_is_a_typing_namedtuple():
    # typing.NamedTuple compiles every string annotation of the class
    # when the module loads, which each CLI process would pay for
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cmlab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.alias) and node.name == "NamedTuple"
        or isinstance(node, ast.Attribute) and node.attr == "NamedTuple"
    ]
    assert found == []


# imports nothing that a request might load, json included, before it
# takes `before`
FOOTPRINT = """\
import contextlib, io, sys
before = set(sys.modules)
from cmlab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(repr([code, sorted(set(sys.modules) - before)]))
"""


# the modules that only some methods run
CRITERIA = {"cmlab.graphs", "cmlab.structure", "cmlab.satisfying"}

# what no request loads but help, usage errors and examples show: json
# and argparse import re, and typing imports re and enum
PLAIN = {"argparse", "json", "typing", "re", "enum"}

# a problem file is read by json's C scanner, without importing json;
# each case: arguments, exit code, modules it must not load, and
# modules it must load
FOOTPRINT_CASES = [
    (["check", "{path}"], 0, {*PLAIN, "cmlab.ideals", "cmlab.fixtures"}, set()),
    (["check", "{path}", "--method", "oracle"], 0,
     {*PLAIN, "cmlab.ideals", "cmlab.fixtures", *CRITERIA}, set()),
    # neither a 4-cycle nor an octahedron has a free vertex, so neither
    # the tree nor the quasi-tree criterion applies and auto goes
    # straight to the oracle without loading the graph layer
    (["check", "{cycle}"], 0, {*PLAIN, "cmlab.ideals", "cmlab.fixtures", *CRITERIA}, set()),
    (["check", "{octahedron}"], 0, {*PLAIN, "cmlab.ideals", "cmlab.fixtures", *CRITERIA}, set()),
    # the tree criterion reads a tree-satisfying table off the facet-tree
    # walk, without the shelling search or the array-backed stores; a
    # violated table walks its violating vertex into an array
    (["check", "{stacked}", "--method", "tree"], 0,
     {*PLAIN, "cmlab.ideals", "cmlab.fixtures", "cmlab.structure", "array"},
     {"cmlab.satisfying"}),
    (["check", "{stacked}"], 0,
     {*PLAIN, "cmlab.ideals", "cmlab.fixtures", "cmlab.structure", "array"},
     {"cmlab.satisfying"}),
    (["check", "{violated}", "--method", "tree"], 1,
     {*PLAIN, "cmlab.ideals", "cmlab.fixtures", "cmlab.structure"}, {"cmlab.satisfying"}),
    (["check", "{violated}"], 1,
     {*PLAIN, "cmlab.ideals", "cmlab.fixtures", "cmlab.structure"}, {"cmlab.satisfying"}),
    # the quasi-tree criterion reads a star's one ridge clique of five
    # facets off the facet-tree index, with no array-backed store
    (["check", "{star}", "--method", "quasitree"], 0,
     {*PLAIN, "cmlab.ideals", "cmlab.fixtures", "cmlab.structure", "array"},
     {"cmlab.satisfying"}),
    (["check", "{star}"], 0,
     {*PLAIN, "cmlab.ideals", "cmlab.fixtures", "cmlab.structure", "array"},
     {"cmlab.satisfying"}),
    # the shelling condition runs here, so structure loads
    (["cross-validate", "triangle-tree", "--samples", "5"], 0, {*PLAIN, "cmlab.ideals"},
     {"cmlab.structure"}),
    (["ideal", "{path}", "--expand"], 0,
     {*PLAIN, "cmlab.fixtures", "cmlab.homology", *CRITERIA}, {"cmlab.ideals"}),
    (["analyze", "{path}"], 0, {*PLAIN, "cmlab.ideals", "cmlab.fixtures"}, set()),
    (["examples"], 0, {*PLAIN, "cmlab.ideals", "cmlab.homology", *CRITERIA}, set()),
    (["--help"], 0, set(), set()),
    (["check"], 3, set(), set()),
]


def _footprint(tmp_path, argv, *flags):
    """The exit code of a request run in a fresh interpreter with flags,
    and the modules it loaded."""
    doc = tmp_path / "path.json"
    doc.write_text('{"n": 4, "facets": [[1, 2], [2, 3], [3, 4]]}')
    cycle = tmp_path / "cycle.json"
    cycle.write_text('{"n": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]}')
    octahedron = tmp_path / "octahedron.json"
    octahedron.write_text(
        '{"n": 6, "facets": [[1, 3, 5], [1, 3, 6], [1, 4, 5], [1, 4, 6],'
        ' [2, 3, 5], [2, 3, 6], [2, 4, 5], [2, 4, 6]]}'
    )
    # a stacked path of four triangles whose values do not grow away from
    # the root of any vertex graph, and the same table with the value at
    # (facet 4, vertex 1) grown past that at (facet 3, vertex 1)
    stacked = '{"n": 6, "facets": [[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]], "alpha": [%s]}'
    alpha = [(2, 1, 3), (3, 1, 2), (4, 1, 2), (3, 6, 2), (2, 6, 2), (2, 5, 2)]
    record = '{"facet": %d, "vertex": %d, "value": %d}'
    (tmp_path / "stacked.json").write_text(stacked % ", ".join(record % a for a in alpha))
    alpha[2] = (4, 1, 4)
    (tmp_path / "violated.json").write_text(stacked % ", ".join(record % a for a in alpha))
    (tmp_path / "star.json").write_text('{"n": 6, "facets": [[1, 6], [2, 6], [3, 6], [4, 6], [5, 6]]}')
    paths = {name: tmp_path / f"{name}.json" for name in ("stacked", "violated", "star")}
    argv = [arg.format(path=doc, cycle=cycle, octahedron=octahedron, **paths) for arg in argv]
    src = str(Path(cmlab.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", FOOTPRINT, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    code, loaded = ast.literal_eval(out.stdout)
    return code, set(loaded)


@pytest.mark.parametrize(
    "argv,code,unloaded,wanted", FOOTPRINT_CASES, ids=[" ".join(case[0]) for case in FOOTPRINT_CASES]
)
def test_a_request_loads_only_what_its_subcommand_runs(tmp_path, argv, code, unloaded, wanted):
    # each CLI request is a fresh process, which pays for every import;
    # argparse is loaded only for help and usage errors
    got, loaded = _footprint(tmp_path, argv)
    assert got == code
    assert unloaded & loaded == set()
    assert wanted <= loaded
    if not unloaded:
        assert "argparse" in loaded


PLAIN_CASES = [case for case in FOOTPRINT_CASES if case[2]]


@pytest.mark.parametrize(
    "argv,code,unloaded,wanted", PLAIN_CASES, ids=[" ".join(case[0]) for case in PLAIN_CASES]
)
def test_a_request_loads_only_what_its_subcommand_runs_without_site(
    tmp_path, argv, code, unloaded, wanted
):
    # python -S runs no .pth file of site-packages, one of which could
    # import typing, re, enum or array before the request and so hide them
    got, loaded = _footprint(tmp_path, argv, "-S")
    assert got == code
    assert unloaded & loaded == set()
    assert wanted <= loaded


def test_cli_keeps_the_names_the_benchmark_tracer_wraps():
    # perfbench/tracer.py wraps cli.main and cli.resolve_source; every
    # other function the CLI runs is looked up in its own module per call
    from cmlab import cli, cli_helpers

    assert cli.resolve_source is cli_helpers.resolve_source
    assert callable(cli.main)
    for name in ("is_cm_ideal_oracle", "is_tree_satisfying", "classify", "facet_graph"):
        assert not hasattr(cli, name), name


def test_public_names_load_on_first_access():
    # every name in __all__ is the object its defining module holds, and
    # dir() and star-import list them before they are loaded
    namespace: dict = {}
    exec("from cmlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cmlab.__all__)
    assert set(cmlab.__all__) <= set(dir(cmlab))
    for name in cmlab.__all__:
        value = getattr(cmlab, name)
        home = getattr(value, "__module__", None)
        if not (home or "").startswith("cmlab."):  # a constant, as ROOT
            home = f"cmlab.{cmlab._MODULE_OF[name]}"
        assert getattr(importlib.import_module(home), name) is value, name
    with pytest.raises(AttributeError):
        cmlab.no_such_name


def test_only_the_entry_point_skips_interpreter_teardown():
    # cli.console_main leaves through os._exit, so no other code may end
    # the process before its output is flushed
    found = []
    for path in sorted(Path(cmlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so the innermost wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        found += [
            f"{path.name}: {owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_exit"
            or isinstance(node, ast.alias) and node.name == "_exit"
        ]
    assert found == ["cli.py: console_main"]


EXIT_TIME_MODULES = {"atexit", "threading", "_thread", "multiprocessing", "concurrent"}


def _left_for_teardown(node: ast.AST) -> str | None:
    """What this node leaves for interpreter teardown to run or write, if
    anything: an exit handler, a thread, or a file opened for writing."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
        mode = node.args[1] if len(node.args) > 1 else None
        mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), mode)
        if mode is None or isinstance(mode, ast.Constant) and mode.value in ("r", "rb"):
            return None
        return "open without a read mode"
    if isinstance(node, ast.Attribute) and node.attr in ("write_text", "write_bytes"):
        return f"call of {node.attr}"
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return None
    hits = [name for name in names if name.partition(".")[0] in EXIT_TIME_MODULES]
    return f"import of {hits[0]}" if hits else None


def test_nothing_is_left_to_run_or_write_at_exit():
    # the conditions under which console_main may skip teardown
    found = [
        f"{path.name}:{node.lineno}: {why}"
        for path in sorted(Path(cmlab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (why := _left_for_teardown(node))
    ]
    assert found == []
