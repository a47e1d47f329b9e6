"""Byte-exact command line output for every fixture, pinned in
cli_golden.json: exit code, stdout and stderr per command.

Refactors must leave these unchanged.  To re-record after an intended
output change, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import gc
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cmlab import fixture_names
from cmlab.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def commands() -> list[list[str]]:
    runs = [["examples"]]
    runs += [["examples", "show", name] for name in fixture_names()]
    for name in fixture_names():
        runs += [
            ["analyze", name, "--char", "0"],
            ["analyze", name, "--char", "2"],
            *(
                ["check", name, "--method", method]
                for method in ("auto", "tree", "quasitree", "general", "oracle")
            ),
            ["check", name, "--method", "oracle", "--char", "2"],
            ["check", name, "--method", "oracle", "--char", "3"],
            ["ideal", name, "--expand"],
            ["cross-validate", name, "--samples", "20", "--seed", "3"],
        ]
    return runs


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_covers_every_command():
    assert [case["argv"] for case in CASES] == commands()


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_unchanged(case):
    assert run(case["argv"]) == case


# argparse builds its parser with reference cycles, so a request that
# argparse rejects leaves garbage: about 225 objects of the parser's own
USAGE_ERRORS = [["check"], ["check", "star", "--method", "none"], ["cross-validate", "star"]]


def test_requests_leave_no_cyclic_garbage():
    # console_main runs its request with the cyclic collector off.  That
    # frees as much as the collector would as long as a request drops no
    # object that is part of a reference cycle; gc.collect() still finds
    # such objects when the collector is off.  The standard library's own
    # cycles are the exceptions, each of a fixed size per request: the
    # parser of a usage error, and the nested closures with which
    # json.dumps(indent=2) prints a fixture
    gc.collect()
    gc.disable()
    try:
        for case in CASES:
            assert run(case["argv"])["code"] == case["code"]
            found = gc.collect()
            if case["argv"][:2] == ["examples", "show"]:
                assert found < 100, case["argv"]
            else:
                assert found == 0, case["argv"]
        for argv in USAGE_ERRORS:
            assert run(argv)["code"] == 3
            assert 0 < gc.collect() < 1000
    finally:
        gc.enable()


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps([run(argv) for argv in commands()], indent=1) + "\n")
