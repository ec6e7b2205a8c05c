"""Voltages reach a pair's eta and leakage through one function.

`calibration.pair_response` is the one batch path from voltage rows to a
pair's 2x2 block of U and the eta and leakages read from it; the lookup
map and `rwasim hom` both call it.  These tests parse the package with
`ast`, without importing it, and fail if any other function calls
`evolution.pair_blocks`, or calls `subcircuits.reflectivity_and_leakage`
apart from the single-unitary `subcircuits.effective_reflectivity`.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rwasim"


class Callers(ast.NodeVisitor):
    """(module, innermost enclosing function) of each call to `name`."""

    def __init__(self, module, name):
        self.scope = [module]
        self.name = name
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        callee = node.func
        if (callee.attr if isinstance(callee, ast.Attribute)
                else getattr(callee, "id", None)) == self.name:
            self.found.append((self.scope[0], self.scope[-1]))
        self.generic_visit(node)


def callers(name: str) -> list[tuple[str, str]]:
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        visitor = Callers(path.stem, name)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    return sorted(found)


def test_pair_blocks_callers():
    assert callers("pair_blocks") == [("calibration", "pair_response")]


def test_reflectivity_and_leakage_callers():
    assert callers("reflectivity_and_leakage") == [
        ("calibration", "pair_response"),
        ("subcircuits", "effective_reflectivity")]
