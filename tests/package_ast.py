"""The package's syntax trees, for the structural guards.

The guards parse `src/rwasim` with `ast`, without importing it, and read it
through `nodes`, one walk shared by all of them.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rwasim"


def nodes(module: str = "*"):
    """(module, innermost enclosing function, node) of every node of the
    package's modules matching `module` (a glob over module names), in
    source order; code outside any function has the module's name as its
    scope."""
    paths = sorted(PACKAGE.glob(f"{module}.py"))
    assert paths

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    for path in paths:
        for scope, node in visit(ast.parse(path.read_text()), path.stem):
            yield path.stem, scope, node


def calls(module: str = "*"):
    """The (module, scope, node) of `nodes` whose node is a call."""
    return ((m, scope, node) for m, scope, node in nodes(module)
            if isinstance(node, ast.Call))


def callee_name(node: ast.Call) -> str | None:
    """The called name: `f` of both `f(...)` and `a.b.f(...)`."""
    callee = node.func
    return callee.attr if isinstance(callee, ast.Attribute) else getattr(
        callee, "id", None)
