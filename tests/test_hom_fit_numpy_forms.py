"""The per-scan path of a HOM simulate+fit calls no numpy function that runs
Python code before its C loop.

Each of the numpy functions in `WRAPPERS` wraps an ndarray method, or an
indexing form, that computes the same values, and costs 1-4 us more a call,
while a simulate+fit is a fixed cost of many numpy calls on small arrays.
These tests parse the package with `ast`, without importing it, and fail if
a function on that path calls one of them as `np.<name>`.
"""
import ast

from package_ast import calls, nodes

# (module, function) of the path; `evaluate` is nested in `least_squares`
PER_SCAN = {("device", "frozen_array"), ("device", "hamiltonian_diagonals"),
            ("photon_stats", "__post_init__"), ("photon_stats", "simulate_hom_scan"),
            ("photon_stats", "_initial_guess"), ("photon_stats", "_grid_seeds"),
            ("photon_stats", "least_squares"), ("photon_stats", "evaluate"),
            ("photon_stats", "fit_hom_dips"), ("photon_stats", "dip_extrema")}
WRAPPERS = {"all", "any", "argmin", "argpartition", "clip", "diff", "dstack",
            "flatnonzero", "max", "min", "stack", "take_along_axis"}


def test_per_scan_path_calls_no_numpy_wrapper():
    found = [(module, scope, node.func.attr, node.lineno)
             for module, scope, node in calls()
             if (module, scope) in PER_SCAN and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
             and node.func.attr in WRAPPERS]
    assert found == []


def test_per_scan_functions_exist():
    # a renamed function would leave the guard above nothing to check
    assert PER_SCAN <= {(module, scope) for module, scope, _ in nodes()}
