"""rwasim uses only scipy's public API.

The compiler once stepped scipy's private `setulb` routine, which tied the
package to one scipy release.  This parses every module of the package with
`ast`, without importing it, and fails on an import from a private
`scipy.optimize._*` module or any use of the name `setulb`.
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
