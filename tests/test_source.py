"""Checks on the package source itself."""

import ast
from pathlib import Path

import branchpolar

SOURCES = sorted(Path(branchpolar.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # invariants are typed BranchPolarErrors, which python -O does not strip
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert not found, f"assert statements in the package: {found}"
