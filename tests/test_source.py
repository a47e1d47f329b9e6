"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

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
