"""Every layer the benchmark tracer times must still exist in rwasim.

The tracer (perfbench/tracer.py) rebinds rwasim attributes by name and
silently skips a binding whose attribute is gone, which would drop that
layer's per-layer metrics from a traced run.  This reads its BINDINGS table
without importing the benchmark and checks that each layer still resolves
to at least one attribute.
"""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def bindings():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BINDINGS table in {TRACER}")


def test_every_traced_layer_resolves():
    resolved = {}
    for layer, module, attr in bindings():
        found = hasattr(importlib.import_module(module), attr)
        resolved[layer] = resolved.get(layer, False) or found
    assert resolved
    assert [layer for layer, ok in resolved.items() if not ok] == []
