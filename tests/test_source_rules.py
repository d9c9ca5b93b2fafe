"""Rules over the library source itself."""

import ast
from pathlib import Path

import datareach
from datareach.inputdesign import _ascent_source

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


class _BasisWriters(ast.NodeVisitor):
    """The scopes (Class.method or function) that store or delete an
    attribute named _lp_basis."""

    def __init__(self):
        self.scope, self.found = [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Attribute(self, node):
        if node.attr == "_lp_basis" and not isinstance(node.ctx, ast.Load):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_lp_basis_has_one_writer():
    # a set's cached LP basis is reset where the set is made and replaced by
    # support LPs only; every other LP starts from it and leaves it alone.
    # The one hand-off: a propagated fragment inherits its parent's basis
    found = []
    for f in sorted(SRC.glob("*.py")):
        writers = _BasisWriters()
        writers.visit(ast.parse(f.read_text(), str(f)))
        found += [f"{f.name}:{scope}" for scope in writers.found]
    assert found == ["sets.py:Zonotope.__init__", "sets.py:_support", "sets.py:inherit_lp_basis"]


def _builtin_sum_calls(source, name):
    return [f"{name}:{node.lineno}" for node in ast.walk(ast.parse(source, name))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


def test_input_design_adds_floats_without_builtin_sum():
    # CPython >= 3.12 compensates the builtin sum of floats (Neumaier), so an
    # ascent that adds with it designs different inputs on different
    # interpreters; inputdesign adds left to right with +, in its source and
    # in the ascent kernels it generates
    path = SRC / "inputdesign.py"
    found = _builtin_sum_calls(path.read_text(), path.name)
    for m in range(5):
        for box in (True, False):
            found += _builtin_sum_calls(_ascent_source(m, box), f"ascent m={m} box={box}")
    assert found == []


def test_sets_adds_floats_without_builtin_sum():
    # the same rule for the set operations: an exact volume or an outline
    # that added with the builtin sum would differ between interpreters
    path = SRC / "sets.py"
    assert _builtin_sum_calls(path.read_text(), path.name) == []


def test_every_exported_name_resolves():
    # a deleted function must not leave a stale entry in __all__, where
    # `from datareach import *` would raise on it
    assert len(set(datareach.__all__)) == len(datareach.__all__)
    assert [n for n in datareach.__all__ if not hasattr(datareach, n)] == []
