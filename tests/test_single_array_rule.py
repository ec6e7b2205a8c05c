"""The package freezes arrays in one place.

Every array field of a value type goes through `device.frozen_array`, which
copies a writable input before freezing it.  The one other freeze is the
hand-over in `calibration.build_lookup_map`, which freezes the tables it has
just filled so that the map can keep them without a copy.  These tests parse
the package with `ast`, without importing it.
"""
import ast

from package_ast import calls, nodes


def test_arrays_are_frozen_only_by_frozen_array_and_the_map_hand_over():
    freezes = [(module, scope) for module, scope, node in calls()
               if ast.unparse(node.func).endswith(".setflags")]
    assert sorted(freezes) == [("calibration", "build_lookup_map"),
                               ("device", "frozen_array")]


def test_no_writeable_flag_is_set_directly():
    # `a.flags.writeable = False` would freeze an array past the guard above
    found = [(module, scope) for module, scope, node in nodes()
             if isinstance(node, ast.Attribute) and node.attr == "writeable"
             and isinstance(node.ctx, ast.Store)]
    assert found == []
