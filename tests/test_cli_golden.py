"""Byte-exact command line output for every fixture, pinned in
cli_golden.json: exit code, stdout and stderr per command.

Refactors must leave these unchanged.  To re-record after an intended
output change, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

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


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps([run(argv) for argv in commands()], indent=1) + "\n")
