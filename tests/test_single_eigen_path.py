"""The package calls a library eigensolver in exactly two places.

Eigenvalues for a lookup map's pair blocks come from one stacked
`numpy.linalg.eigvalsh` in `evolution.pair_blocks`; eigenvectors, for
`evolution.unitary`, the other callers that need Q and the rows the residue
formula does not serve, come from one stacked `numpy.linalg.eigh` in
`evolution.eigh_tridiagonal`.  These tests parse the package with `ast`,
without importing it, and fail on a `scipy.linalg` import in any module, on
an eigensolver called anywhere else, or on another caller of
`eigh_tridiagonal`.
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
    """(module, innermost enclosing function, callee) of each call to one of
    `names`, by default the library solvers."""

    def __init__(self, module, names=SOLVERS):
        self.scope = [module]
        self.names = names
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        callee = node.func
        name = callee.attr if isinstance(callee, ast.Attribute) else getattr(
            callee, "id", None)
        if name in self.names:
            self.found.append((self.scope[0], self.scope[-1], ast.unparse(callee)))
        self.generic_visit(node)


def test_one_eigensolver_call_site():
    found = []
    for module, tree in modules():
        visitor = SolverCalls(module)
        visitor.visit(tree)
        found += visitor.found
    assert found == [("evolution", "eigh_tridiagonal", "np.linalg.eigh"),
                     ("evolution", "pair_blocks", "np.linalg.eigvalsh")]


def test_eigenvector_callers():
    found = []
    for module, tree in modules():
        visitor = SolverCalls(module, {"eigh_tridiagonal"})
        visitor.visit(tree)
        found += [(m, scope) for m, scope, _ in visitor.found]
    assert sorted(found) == [("compiler", "f"), ("evolution", "pair_blocks"),
                             ("evolution", "propagation_profile"),
                             ("evolution", "unitary")]
