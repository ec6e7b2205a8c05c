"""What a fresh interpreter loads when it imports rwasim.

Only `rwasim compile` optimises, so only it may load `rwasim.compiler` and,
through it, scipy; the package itself re-exports nothing, so importing it
loads no submodule.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import rwasim

SRC = str(Path(rwasim.__file__).resolve().parent.parent)


def modules_after(statement):
    """Names in sys.modules after `statement` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def test_cli_loads_neither_scipy_nor_compiler():
    loaded = modules_after("import rwasim.cli")
    assert "rwasim.cli" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    assert "rwasim.compiler" not in loaded


def test_package_loads_no_submodule():
    loaded = modules_after("import rwasim")
    assert "rwasim" in loaded
    assert [m for m in loaded if m.startswith("rwasim.")] == []
