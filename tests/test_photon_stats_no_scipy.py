"""The HOM dip fit runs on numpy alone.

`photon_stats` fits with its own batched Levenberg-Marquardt solver.  This
parses the module with `ast`, without importing it, and fails on an import
of any `scipy` module there.
"""
import ast
from pathlib import Path

MODULE = Path(__file__).resolve().parent.parent / "src" / "rwasim" / "photon_stats.py"


def test_photon_stats_imports_no_scipy():
    found = []
    for node in ast.walk(ast.parse(MODULE.read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module or "")
    assert [name for name in found
            if name == "scipy" or name.startswith("scipy.")] == []
