"""The package freezes arrays in one place.

Every array field of a value type goes through `device.frozen_array`, which
copies a writable input before freezing it.  The one other freeze is the
hand-over in `calibration.build_lookup_map`, which freezes the tables it has
just filled so that the map can keep them without a copy.  These tests parse
the package with `ast`, without importing it.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rwasim"


def nodes():
    """(module, innermost enclosing function, node) of every node."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            found.append((path.stem, scope, node))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_arrays_are_frozen_only_by_frozen_array_and_the_map_hand_over():
    freezes = [(module, scope) for module, scope, node in nodes()
               if isinstance(node, ast.Call)
               and ast.unparse(node.func).endswith(".setflags")]
    assert sorted(freezes) == [("calibration", "build_lookup_map"),
                               ("device", "frozen_array")]


def test_no_writeable_flag_is_set_directly():
    # `a.flags.writeable = False` would freeze an array past the guard above
    found = [(module, scope) for module, scope, node in nodes()
             if isinstance(node, ast.Attribute) and node.attr == "writeable"
             and isinstance(node.ctx, ast.Store)]
    assert found == []
