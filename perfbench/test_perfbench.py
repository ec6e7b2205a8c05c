"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
END_TO_END = {"setup_s", "peak_rss_mb", "ops_per_ref_s"}
PER_LAYER = {
    *(f"{layer}.{q}" for layer in (
        "device.build_hamiltonian", "evolution.unitary", "evolution.eigh_tridiagonal",
        "subcircuits.distribution_fidelity", "subcircuits.effective_reflectivity",
        "subcircuits.leakage") for q in ("calls", "self_us")),
    *(f"compiler.objective.{q}" for q in
      ("calls", "self_us", "calls_per_restart", "grad_frac")),
    "compiler.minimize.calls", "compiler.minimize.self_s",
    *(f"compiler.restart.{q}" for q in
      ("s_p50", "nit_mean", "nfev_mean", "abnormal", "hit_ratio")),
    "calibration.build_lookup_map.s", "calibration.cell_us",
    "calibration.solve_voltage.s", "calibration.gate_voltages_by_linear_fit.ms",
    "calibration.map_to_csv.s", "calibration.map_to_csv.bytes",
    "photon_stats.simulate_hom_scan.us_p50", "photon_stats.fit_hom_dip.ms_p50",
    "photon_stats.fit_hom_dip.ms_p99", "photon_stats.fit_hom_dip.failures",
    "photon_stats.least_squares.nfev_mean",
    "import.rwasim_cli_ms", "import.scipy_linalg_ms", "import.scipy_optimize_ms",
    "trace.overhead_frac",
}
# Added by run.py rather than by the tracer.
RUNNER_METRICS = {"import.rwasim_cli_ms", "import.scipy_linalg_ms",
                  "import.scipy_optimize_ms", "trace.overhead_frac"}
# The tiny compile size has too few restarts to hit on every seed; on this
# one both configs reach objective <= 1e-6.
TINY_COMPILE_SEED = 4


def benchmark_doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    # root [0, 10] has children a [1, 4] and b [3, 6] that overlap, and c
    # [9, 12] that outlives it; a has one child [2, 3].
    starts = [0.0, 1.0, 3.0, 9.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    own = tracer.self_times(starts, ends, parents)
    np.testing.assert_allclose(own, [10 - 5 - 1, 2.0, 3.0, 3.0, 1.0])


def test_self_time_of_sequential_children():
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [8.0, 2.0, 4.0, 7.5]
    parents = [-1, 0, 0, 0]
    own = tracer.self_times(starts, ends, parents)
    np.testing.assert_allclose(own, [8 - 1 - 2 - 2.5, 1.0, 2.0, 2.5])
    assert tracer.self_times([], [], []).size == 0


def test_percentile_needs_ten_samples_beyond():
    big, small = np.arange(1000.0), np.arange(100.0)
    assert tracer.percentile_with_support(big, 99.0) == np.percentile(big, 99.0)
    assert tracer.percentile_with_support(small, 99.0) == pytest.approx(
        np.percentile(small, 90.0))
    assert tracer.percentile_with_support([], 99.0) == 0.0


def test_benchmark_names():
    doc = benchmark_doc()
    e2e = [m["name"] for m in doc["end_to_end"]]
    per_layer = [m["name"] for m in doc["per_layer"]]
    for name in e2e + per_layer + [w["name"] for w in doc["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + per_layer)) == len(e2e + per_layer)
    assert set(e2e) == END_TO_END
    assert set(per_layer) == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_checks_and_traces(name, tmp_path):
    seed = TINY_COMPILE_SEED if name == "compile_xx" else 3
    workload = workloads.WORKLOADS[name](seed, "tiny", str(tmp_path))
    workload.setup()
    tr = tracer.Tracer()
    tr.start()
    try:
        result = workload.run_pass(0)
    finally:
        tr.stop()
    assert result.ops > 0
    assert workload.check(result) == 0
    metrics = tr.metrics()
    assert set(metrics) == PER_LAYER - RUNNER_METRICS
    assert all(v >= 0 for v in metrics.values())
    table = tr.layer_table()
    assert sum(share for _, _, share in table.values()) == pytest.approx(1.0)


def test_checks_catch_wrong_outputs(tmp_path):
    workload = workloads.CalibrateMap(3, "tiny", str(tmp_path))
    workload.setup()
    result = workload.run_pass(0)
    lut = result.outputs[0]
    lines = Path(workload.csv_path).read_text().splitlines()
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) + 1e-12)
    lines[5] = ",".join(fields)
    Path(workload.csv_path).write_text("\n".join(lines) + "\n")
    assert workload.check(result) == 1
    Path(workload.csv_path).write_text("\n".join(lines[:-3]) + "\n")
    assert workload.check(result) == 1 + 3  # the changed row and 3 missing rows
    workloads.calibration.map_to_csv(lut, workload.csv_path)
    lut.eta[:] = 0.5  # a wrong table fails the expm oracle on the sampled cells
    assert workload.check(result) > 0

    hom = workloads.HomSweep(3, "tiny", str(tmp_path))
    hom.setup()
    result = hom.run_pass(0)
    result.outputs[0] = (0.0, result.outputs[0][1])  # visibility 0 expected
    result.outputs[1] = RuntimeError("raised")
    assert hom.check(result) == 2


def test_uninstall_restores_functions():
    import rwasim.compiler

    original = rwasim.compiler.minimize
    tr = tracer.Tracer()
    tr.start()
    assert rwasim.compiler.minimize is not original
    tr.stop()
    assert rwasim.compiler.minimize is original


def test_missing_binding_is_absent(monkeypatch):
    import rwasim.photon_stats

    monkeypatch.delattr(rwasim.photon_stats, "least_squares")
    tr = tracer.Tracer()
    tr.start()
    tr.stop()
    metrics = tr.metrics()
    assert "photon_stats.least_squares.nfev_mean" not in metrics
    assert "photon_stats.fit_hom_dip.ms_p50" in metrics


def test_untraced_worker_never_loads_tracer(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(run.WORKER), "--workload", "hom_sweep", "--seed", "1",
         "--seconds", "0.01", "--workdir", str(tmp_path), "--size", "tiny"],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "READY"
    result = json.loads(lines[-1])
    assert result["tracer_loaded"] is False
    assert result["failed"] == 0 and result["ops"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_documented_metrics(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hom_sweep", "--seed", "2",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in
             benchmark_doc()["end_to_end" if trace == 0 else "per_layer"]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]
        assert isinstance(m["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_ops = 0" in proc.stdout


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hom_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
