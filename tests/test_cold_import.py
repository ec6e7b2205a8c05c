"""What a fresh interpreter loads when it imports or runs rwasim.

No module of rwasim imports scipy, so no command loads it, `compile`
included.  Only `rwasim compile` optimises, so only it may load
`rwasim.compiler`; the package itself re-exports nothing, so importing it
loads no submodule.  The compiler's name `minimize`, which only the
benchmark tracer binds, is `minimize_box`, so looking it up loads no scipy
either.  Only reading or writing a device file loads `yaml`.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rwasim
import rwasim.compiler
from rwasim.cli import DEVICE_ENV_VAR

SRC = str(Path(rwasim.__file__).resolve().parent.parent)


def modules_after(statement):
    """Names in sys.modules after `statement` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def scipy_modules(loaded):
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_cli_loads_neither_scipy_nor_compiler():
    loaded = modules_after("import rwasim.cli")
    assert "rwasim.cli" in loaded
    assert scipy_modules(loaded) == []
    assert "rwasim.compiler" not in loaded


def test_cli_loads_no_yaml():
    loaded = modules_after("import rwasim.cli")
    assert "rwasim.device" in loaded
    assert "yaml" not in loaded


def test_simulate_without_device_loads_no_yaml(tmp_path):
    argv = ["simulate", "--out", str(tmp_path / "out")]
    loaded = modules_after(
        f"import os\nos.environ.pop({DEVICE_ENV_VAR!r}, None)\nimport rwasim.cli\n"
        f"assert rwasim.cli.main({argv!r}) == 0")
    assert (tmp_path / "out" / "manifest.json").is_file()
    assert "yaml" not in loaded


def test_compiler_loads_no_scipy():
    loaded = modules_after("import rwasim.compiler\nrwasim.compiler.minimize")
    assert "rwasim.compiler" in loaded
    assert scipy_modules(loaded) == []


def test_compile_command_loads_no_scipy(tmp_path):
    argv = ["compile", "--config", "2", "--gates", "XX", "--restarts", "2",
            "--out", str(tmp_path / "out")]
    loaded = modules_after(
        f"import rwasim.cli\nassert rwasim.cli.main({argv!r}) == 0")
    assert "rwasim.compiler" in loaded
    assert (tmp_path / "out" / "manifest.json").is_file()
    assert scipy_modules(loaded) == []


def test_compiler_minimize_is_minimize_box_and_no_other_name_resolves():
    assert rwasim.compiler.minimize is rwasim.compiler.minimize_box
    assert not hasattr(rwasim.compiler, "unitary")
    assert not hasattr(rwasim.compiler, "build_hamiltonian")
    with pytest.raises(AttributeError, match="'rwasim.compiler' has no attribute 'nope'"):
        getattr(rwasim.compiler, "nope")


def test_package_loads_no_submodule():
    loaded = modules_after("import rwasim")
    assert "rwasim" in loaded
    assert [m for m in loaded if m.startswith("rwasim.")] == []
