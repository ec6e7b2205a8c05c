"""rwasim uses only scipy's public API, and no module imports scipy on load.

The compiler once stepped scipy's private `setulb` routine, which tied the
package to one scipy release.  This parses every module of the package with
`ast`, without importing it, and fails on an import from a private
`scipy.optimize._*` module or any use of the name `setulb`.  It also fails
on a scipy import that runs when a module is imported, that is one outside
every function body, since scipy is a test-only dependency.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rwasim"


def private_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.optimize._")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            found += [module] * module.startswith("scipy.optimize._")
        names = {getattr(node, key, None) for key in ("id", "attr", "name", "asname")}
        found += ["setulb"] * ("setulb" in names)
    return found


def test_package_uses_no_private_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert {path.name: found for path in modules
            if (found := private_uses(path.read_text()))} == {}


def test_guard_catches_each_form():
    for source in ("from scipy.optimize._lbfgsb import minimize",
                   "import scipy.optimize._lbfgsb_py",
                   "import scipy.optimize as so\nso._lbfgsb.setulb()"):
        assert private_uses(source), source


def module_level_scipy_imports(source: str) -> list[str]:
    """scipy modules imported by statements that run on import."""
    found, pending = [], list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [node.module] * (node.module.split(".")[0] == "scipy")
        pending += ast.iter_child_nodes(node)
    return found


def test_package_imports_no_scipy_on_load():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert {path.name: found for path in modules
            if (found := module_level_scipy_imports(path.read_text()))} == {}


def test_load_guard_catches_each_form():
    for source in ("import scipy", "from scipy.optimize import minimize",
                   "import numpy, scipy.linalg as sl",
                   "try:\n    import scipy\nexcept ImportError:\n    pass",
                   "class A:\n    from scipy import linalg"):
        assert module_level_scipy_imports(source), source
    assert module_level_scipy_imports(
        "def f():\n    from scipy.optimize import minimize") == []
