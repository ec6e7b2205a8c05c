"""The compiler scores every point through its batched kernel.

`evaluate`, `objective` and the L-BFGS-B restarts all run
`objective_with_gradient`, which forms only the four columns of U that the
metrics read.  This test parses `rwasim.compiler` with `ast`, without
importing it, and fails on a call to the full-U path: `build_hamiltonian`,
`unitary` or the checked `distribution_fidelity`.
"""
import ast
from pathlib import Path

COMPILER = Path(__file__).resolve().parent.parent / "src" / "rwasim" / "compiler.py"
FULL_U_PATH = {"build_hamiltonian", "unitary", "distribution_fidelity"}


def test_compiler_calls_no_full_u_path():
    found = []
    for node in ast.walk(ast.parse(COMPILER.read_text())):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(
                callee, "id", None)
            if name in FULL_U_PATH:
                found.append((node.lineno, ast.unparse(callee)))
    assert found == []
