"""The compiler scores every point through its batched kernel.

The restarts, the scoring of their winner and `objective` all run
`objective_with_gradient`, which forms only the four columns of U that the
metrics read.  This test parses `rwasim.compiler` with `ast`, without
importing it, and fails on a call to the full-U path: `build_hamiltonian`,
`unitary` or the checked `distribution_fidelity`.
"""
import ast

from package_ast import callee_name, calls

FULL_U_PATH = {"build_hamiltonian", "unitary", "distribution_fidelity"}


def test_compiler_calls_no_full_u_path():
    found = [(node.lineno, ast.unparse(node.func)) for _, _, node in calls("compiler")
             if callee_name(node) in FULL_U_PATH]
    assert found == []
