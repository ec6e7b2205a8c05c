import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP = ROOT / "scripts" / "run_hom_visibility_sweep.py"


def run_sweep(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                if os.environ.get("PYTHONPATH") else [])))
    out = tmp_path / "sweep.csv"
    proc = subprocess.run([sys.executable, str(SWEEP), "--out", str(out), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc, out


def test_visibility_sweep_default_grid_ends_at_one(tmp_path):
    # np.arange(0.5, 1.0125, 0.025) ends at 1.0000000000000004, which
    # ideal_visibility rejects
    proc, out = run_sweep(tmp_path)
    assert proc.returncode == 0, proc.stderr
    etas = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert len(etas) == 21
    assert etas[0] == 0.5 and etas[-1] == 1.0
    assert all(0.0 <= eta <= 1.0 for eta in etas)


def test_visibility_sweep_rejects_grid_outside_unit_interval(tmp_path):
    proc, out = run_sweep(tmp_path, "--etas", "0.5:1.1:0.1")
    assert proc.returncode == 2
    assert "--etas" in proc.stderr
    assert not out.exists()


def test_visibility_sweep_rejects_step_that_does_not_divide_range(tmp_path):
    # 0.3 does not divide 0.5, and 0.6 > 2 * 0.1 would round to one point
    for etas in ("0.5:1.0:0.3", "0.5:0.6:0.6"):
        proc, out = run_sweep(tmp_path, "--etas", etas)
        assert proc.returncode == 2, etas
        assert "--etas" in proc.stderr
        assert not out.exists()


def test_visibility_sweep_single_point_grid(tmp_path):
    proc, out = run_sweep(tmp_path, "--etas", "0.7:0.7:0.1")
    assert proc.returncode == 0, proc.stderr
    etas = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert etas == [0.7]
