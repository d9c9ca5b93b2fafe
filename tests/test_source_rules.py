"""Rules over the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "datareach"


def test_library_validates_without_assert_statements():
    # entry points validate their inputs with exceptions: python -O strips
    # assert statements, and an AssertionError names no bad input
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{f.name}:{node.lineno}"
             for f in files for node in ast.walk(ast.parse(f.read_text(), str(f)))
             if isinstance(node, ast.Assert)]
    assert found == []
