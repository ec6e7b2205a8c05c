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

from package_ast import callee_name, calls, nodes

# library eigensolvers; the package's own `eigh_tridiagonal` is not one
SOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "eigvalsh_tridiagonal",
           "eig_banded", "eigvals_banded", "eigs", "eigsh"}


def test_no_module_imports_scipy_linalg():
    found = []
    for module, _, node in nodes():
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


def calls_to(names):
    """(module, innermost enclosing function, callee) of each call to one of
    `names`."""
    return [(module, scope, ast.unparse(node.func)) for module, scope, node in calls()
            if callee_name(node) in names]


def test_one_eigensolver_call_site():
    assert calls_to(SOLVERS) == [("evolution", "eigh_tridiagonal", "np.linalg.eigh"),
                                 ("evolution", "pair_blocks", "np.linalg.eigvalsh")]


def test_eigenvector_callers():
    found = [(module, scope) for module, scope, _ in calls_to({"eigh_tridiagonal"})]
    assert sorted(found) == [("compiler", "f"), ("evolution", "pair_blocks"),
                             ("evolution", "propagation_profile"),
                             ("evolution", "unitary")]
