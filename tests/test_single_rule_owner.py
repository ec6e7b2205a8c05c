"""Each of five input rules has one owner in `device`, which every entry
point calls: a 1-based guide, pair or electrode number (`zero_based`), a
voltage within the device's limit (`DeviceSpec.check_voltages`), a finite,
strictly increasing 1-D vector (`increasing_vector`), a count (`count`) and a
finite real in a range (`finite_real`).

The tests parse the package with `ast`, without importing it, and fail if a
function other than the owner raises the rule's refusal.
"""
import ast

import pytest

from package_ast import nodes, walk

# the mark of each rule's refusal in a raise statement, and its owner
OWNERS = {"out of range": ("device", "zero_based"),
          "VoltageBoundError": ("device", "check_voltages"),
          "strictly increasing": ("device", "increasing_vector"),
          "an integer >=": ("device", "count"),
          "a finite real": ("device", "finite_real")}


def refusals(node: ast.AST) -> set[str]:
    """The rules of `OWNERS` whose mark a raise statement carries, as the
    raised name or in a string of its message."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return set()
    words = [getattr(n, "id", None) or getattr(n, "attr", None) or n.value
             for n in ast.walk(node.exc)
             if isinstance(n, (ast.Name, ast.Attribute))
             or isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return {rule for rule in OWNERS if any(rule in word for word in words)}


@pytest.mark.parametrize("rule", OWNERS)
def test_rule_refused_by_its_owner_alone(rule):
    raisers = {(module, scope) for module, scope, node in nodes()
               if rule in refusals(node)}
    assert raisers == {OWNERS[rule]}


def test_guard_catches_each_form():
    source = '''
def a(): raise IndexError(f"guide {g} out of range 1..{n}")
def b(): raise device_mod.VoltageBoundError(f"{name} exceeds voltage limit")
def c(): raise VoltageBoundError
def d(): raise ValueError("delays must be strictly increasing") from None
def e(): raise ValueError(f"{name} must be strictly increasing")
def f(): raise IndexError("index out of bounds")
def g(): raise
def h(): raise ValueError(f"restarts must be an integer >= 1, got {restarts}")
def i(): raise ValueError(f"{name} must be a finite real in [0, 1], got {eta}")
'''
    found = [(scope, refusals(node)) for scope, node in walk(ast.parse(source), "m")
             if refusals(node)]
    assert found == [("a", {"out of range"}), ("b", {"VoltageBoundError"}),
                     ("c", {"VoltageBoundError"}), ("d", {"strictly increasing"}),
                     ("e", {"strictly increasing"}), ("h", {"an integer >="}),
                     ("i", {"a finite real"})]
