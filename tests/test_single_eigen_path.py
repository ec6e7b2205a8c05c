"""The package calls a library eigensolver in exactly two places.

Eigenvalues for every transfer unitary come from one stacked
`numpy.linalg.eigvalsh` in `evolution.unitary_blocks`; eigenvectors, for the
callers that need Q and for the rows the residue formula does not serve,
come from one stacked `numpy.linalg.eigh` in `evolution.eigh_tridiagonal`.
These tests parse the package with `ast`, without importing it, and fail on
a `scipy.linalg` import in any module or on an eigensolver called anywhere
else.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rwasim"
# library eigensolvers; the package's own `eigh_tridiagonal` is not one
SOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "eigvalsh_tridiagonal",
           "eig_banded", "eigvals_banded", "eigs", "eigsh"}


def modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    return [(path.stem, ast.parse(path.read_text())) for path in paths]


def test_no_module_imports_scipy_linalg():
    found = []
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}"
                                               for a in node.names]
            else:
                continue
            found += [(module, n) for n in names
                      if n == "scipy.linalg" or n.startswith("scipy.linalg.")]
    assert found == []


class SolverCalls(ast.NodeVisitor):
    """(module, innermost enclosing function, callee) of each solver call."""

    def __init__(self, module):
        self.scope = [module]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        callee = node.func
        name = callee.attr if isinstance(callee, ast.Attribute) else getattr(
            callee, "id", None)
        if name in SOLVERS:
            self.found.append((self.scope[0], self.scope[-1], ast.unparse(callee)))
        self.generic_visit(node)


def test_one_eigensolver_call_site():
    found = []
    for module, tree in modules():
        visitor = SolverCalls(module)
        visitor.visit(tree)
        found += visitor.found
    assert found == [("evolution", "eigh_tridiagonal", "np.linalg.eigh"),
                     ("evolution", "unitary_blocks", "np.linalg.eigvalsh")]
