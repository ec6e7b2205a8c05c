"""Voltages reach a pair's eta and leakage through one function.

`calibration.pair_response` is the one batch path from voltage rows to a
pair's 2x2 block of U and the eta and leakages read from it; the lookup
map and `rwasim hom` both call it.  These tests parse the package with
`ast`, without importing it, and fail if any other function calls
`evolution.pair_blocks`, or calls `subcircuits.reflectivity_and_leakage`
apart from the single-unitary `subcircuits.effective_reflectivity`.
"""
from package_ast import callee_name, calls


def callers(name: str) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of each call to `name`."""
    return sorted((module, scope) for module, scope, node in calls()
                  if callee_name(node) == name)


def test_pair_blocks_callers():
    assert callers("pair_blocks") == [("calibration", "pair_response")]


def test_reflectivity_and_leakage_callers():
    assert callers("reflectivity_and_leakage") == [
        ("calibration", "pair_response"),
        ("subcircuits", "effective_reflectivity")]
