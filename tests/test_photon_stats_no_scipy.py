"""The HOM dip fit runs on numpy alone.

`photon_stats` fits with its own batched Levenberg-Marquardt solver, where it
once called scipy's `least_squares`.  This reads the module's syntax tree
through `package_ast`, without importing it, and fails on any scipy use there
that `package_ast.scipy_use` finds; `test_no_private_scipy.py` holds the
package as a whole to the same rule.
"""
from package_ast import nodes, scipy_use


def test_photon_stats_imports_no_scipy():
    assert [(scope, scipy_use(node)) for _, scope, node in nodes("photon_stats")
            if scipy_use(node)] == []
