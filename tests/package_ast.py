"""The package's syntax trees, for the structural guards.

The guards parse `src/rwasim` with `ast`, without importing it, and read it
through `nodes`, one walk shared by all of them.  `scipy_use` is the one
rule of the scipy guards.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rwasim"


def walk(tree: ast.AST, scope: str):
    """(innermost enclosing function, node) of every node of `tree`, in
    source order; code outside any function has `scope` as its scope."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = tree.name
    yield scope, tree
    for child in ast.iter_child_nodes(tree):
        yield from walk(child, scope)


def nodes(module: str = "*"):
    """(module, innermost enclosing function, node) of every node of the
    package's modules matching `module` (a glob over module names), in
    source order; code outside any function has the module's name as its
    scope."""
    paths = sorted(PACKAGE.glob(f"{module}.py"))
    assert paths
    for path in paths:
        for scope, node in walk(ast.parse(path.read_text()), path.stem):
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


def scipy_use(node: ast.AST) -> list[str]:
    """The scipy modules `node` imports and the name `setulb` if it uses it:
    an `import` or absolute `from ... import` statement (`from scipy import
    linalg` imports `scipy` and `scipy.linalg`), or an
    `importlib.import_module` or `__import__` call whose first argument is a
    string."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    elif isinstance(node, ast.Call) and callee_name(node) in {"import_module",
                                                               "__import__"}:
        first = node.args[0] if node.args else None
        names = [first.value] if (isinstance(first, ast.Constant)
                                  and isinstance(first.value, str)) else []
    else:
        names = []
    found = [n for n in names if n == "scipy" or n.startswith("scipy.")]
    if "setulb" in {getattr(node, key, None) for key in ("id", "attr", "name", "asname")}:
        found.append("setulb")
    return found
