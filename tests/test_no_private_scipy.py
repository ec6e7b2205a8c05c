"""rwasim imports no scipy, in any scope.

scipy is a test-only dependency, and the compiler once stepped scipy's
private `setulb` routine, which tied the package to one scipy release.  This
reads the package's syntax trees through `package_ast`, without importing
it, and fails on any `import scipy...` or `from scipy... import` statement,
at module level or inside a function or class; on an
`importlib.import_module` or `__import__` call whose first argument is a
string naming a scipy module; and on any use of the name `setulb`.  The
rule is `package_ast.scipy_use`; the tests below report its findings whole,
on load and for scipy's private modules.
"""
import ast

from package_ast import nodes, scipy_use, walk


def uses(tree=None):
    """(module, scope, name) of each scipy module or `setulb` that `scipy_use`
    finds in the package, or in `tree` (module `<source>`) if given."""
    found = (nodes() if tree is None else
             (("<source>", scope, node) for scope, node in walk(tree, "<source>")))
    return [(module, scope, name) for module, scope, node in found
            for name in scipy_use(node)]


def on_load(found):
    """The `uses` that run when their module is imported: outside every
    function body."""
    return [use for use in found if use[1] == use[0]]


def private(found):
    """The `uses` of a private scipy module or of `setulb`."""
    return [use for use in found if use[2] == "setulb"
            or any(part.startswith("_") for part in use[2].split("."))]


def test_package_imports_no_scipy():
    assert uses() == []


def test_package_imports_no_scipy_on_load():
    assert on_load(uses()) == []


def test_package_uses_no_private_scipy():
    assert private(uses()) == []


def test_guard_catches_each_form():
    for source in ("import scipy", "from scipy import linalg",
                   "from scipy.optimize import minimize",
                   "from scipy.linalg import eigh_tridiagonal",
                   "import numpy, scipy.linalg as sl",
                   "try:\n    import scipy\nexcept ImportError:\n    pass",
                   "class A:\n    from scipy import linalg",
                   "def f():\n    from scipy.optimize import minimize",
                   "def f():\n    import scipy.linalg",
                   "importlib.import_module('scipy.optimize')",
                   "from importlib import import_module\nimport_module('scipy')",
                   "__import__('scipy.linalg')"):
        assert uses(ast.parse(source)), source
    for source in ("from scipy.optimize._lbfgsb import minimize",
                   "from scipy.optimize import _lbfgsb",
                   "import scipy.optimize._lbfgsb_py",
                   "import scipy.optimize as so\nso._lbfgsb.setulb()",
                   "from x import setulb", "import x.y as setulb",
                   "def setulb():\n    pass"):
        assert private(uses(ast.parse(source))), source
    for source in ("import numpy", "from . import scipy_free",
                   "import scipyish", "importlib.import_module(name)",
                   "importlib.import_module('numpy.linalg')"):
        assert uses(ast.parse(source)) == [], source
    assert private(uses(ast.parse("from scipy.optimize import minimize"))) == []


def test_load_guard_catches_each_form():
    for source in ("import scipy", "from scipy.optimize import minimize",
                   "import numpy, scipy.linalg as sl",
                   "try:\n    import scipy\nexcept ImportError:\n    pass",
                   "class A:\n    from scipy import linalg"):
        assert on_load(uses(ast.parse(source))), source
    for source in ("def f():\n    from scipy.optimize import minimize",
                   "async def f():\n    import scipy"):
        assert uses(ast.parse(source)) and on_load(uses(ast.parse(source))) == [], source
