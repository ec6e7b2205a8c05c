"""rwasim benchmark.

    python3 perfbench/run.py --workload {compile_xx,calibrate_map,hom_sweep}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src``.  Every workload runs in a fresh single-threaded child process.

--trace 0 prints the end-to-end metrics: set-up time (median over several
fresh interpreters), peak memory of the measuring child, and operations per
second.  Both times are scaled to the reference machine speed that
speedref.py samples during the run.  --trace 1 runs the workload once untraced and once with the span
tracer, and prints the per-layer metrics plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from worker import BLAS_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

WORKLOADS = ("compile_xx", "calibrate_map", "hom_sweep")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
IMPORT_METRICS = {"rwasim.cli": "import.rwasim_cli_ms",
                  "scipy.linalg": "import.scipy_linalg_ms",
                  "scipy.optimize": "import.scipy_optimize_ms"}
# Name each workload's operation rate goes by in the human-readable report.
RATE_NAMES = {"compile_xx": "restarts_per_s", "calibrate_map": "map_cells_per_s",
              "hom_sweep": "fits_per_s"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_ENV, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        left = self.end - perf_counter()
        if left <= 0:
            raise BenchError("benchmark deadline exceeded")
        return left


def run_worker(args, workdir: str, deadline: Deadline, *, setup_only=False,
               trace=False) -> tuple[float, dict]:
    """Start one worker; return (seconds from spawn to READY, its result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(deadline.left(), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "READY":
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with code {code}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def import_times(args, workdir: str, deadline: Deadline) -> dict:
    """Cumulative import times of a fresh worker's set-up, from -X importtime.

    A module the set-up never imports reads 0.
    """
    cmd = [sys.executable, "-X", "importtime", str(WORKER), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", workdir, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=deadline.left())
    if proc.returncode != 0:
        raise BenchError("set-up under -X importtime failed:\n" + proc.stderr)
    out = dict.fromkeys(IMPORT_METRICS.values(), 0.0)
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) in IMPORT_METRICS:
            out[IMPORT_METRICS[m.group(2)]] = int(m.group(1)) / 1e3
    return out


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "cpu_model": None,
           "git_sha": None, "git_dirty": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    env=git_env, capture_output=True, text=True,
                                    timeout=10)
            env["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workdir, deadline, report) -> tuple[dict, dict]:
    runs = [run_worker(args, workdir, deadline, setup_only=True)
            for _ in range(SETUP_SAMPLES - 1)]
    runs.append(run_worker(args, workdir, deadline))
    res = runs[-1][1]
    samples = [s for s, _ in runs]
    # Set-up ran seconds before the measurement, in the same machine state.
    setup_s = statistics.median(samples) / res["slowdown"]
    rate = res["ops"] / res["wall_s"]
    ref_rate = rate * res["slowdown"]
    report(f"set-up wall times: {' '.join(f'{s:.4f}' for s in samples)} s")
    report(f"{RATE_NAMES[args.workload]} = {rate:.6g} 1/s "
           f"({res['ops']} ops in {res['wall_s']:.3f} s, {res['passes']} passes)")
    report(f"machine slowdown against the reference kernel = {res['slowdown']:.4f} "
           f"({res['speed_samples']} samples)")
    if args.workload == "compile_xx":
        hits = res["hits"]
        report(f"hit_rate = {hits / res['ops']:.6g} ({hits} of {res['ops']} restarts "
               "reach objective <= 1e-6)")
        report("s_per_hit = " + (f"{res['wall_s'] / hits:.6g} s" if hits else "inf"))
    values = {"setup_s": setup_s, "peak_rss_mb": res["rss_mb"],
              "ops_per_ref_s": ref_rate}
    metrics = {name: metric(values[name], unit)
               for name, unit in metric_units("end_to_end").items()}
    return metrics, res


def traced(args, workdir, deadline, report) -> tuple[dict, dict]:
    _, plain = run_worker(args, workdir, deadline)
    imports = import_times(args, workdir, deadline)
    _, res = run_worker(args, workdir, deadline, trace=True)
    if plain["tracer_loaded"] or not res["tracer_loaded"]:
        raise BenchError("tracer loaded in the wrong run")
    per_op_plain = plain["wall_s"] / plain["ops"]
    per_op_traced = res["wall_s"] / res["ops"]
    values = {**res["per_layer"], **imports,
              "trace.overhead_frac": (per_op_traced - per_op_plain) / per_op_plain}
    report(f"untraced: {plain['ops']} ops in {plain['wall_s']:.4f} s; "
           f"traced: {res['ops']} ops in {res['wall_s']:.4f} s")
    report("layer: calls, mean inclusive us per call, share of traced wall in own code")
    for name, (calls, incl_us, share) in sorted(res["layers"].items(),
                                                key=lambda kv: -kv[1][2]):
        report(f"  {name}: {calls} calls, {incl_us:.6g} us, {share:.1%}")
    units = metric_units("per_layer")
    metrics = {name: metric(values[name], unit)
               for name, unit in units.items() if name in values}
    res = dict(res, failed=res["failed"] + plain["failed"],
               ops=res["ops"] + plain["ops"])
    return metrics, res


def metric_units(kind: str) -> dict:
    """Metric name -> unit for the end_to_end or per_layer list."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rwasim benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "rwasim" / "__init__.py").is_file():
        print(f"perfbench: no rwasim sources under {SRC}", file=sys.stderr)
        return 2

    def report(line):
        print(f"# {line}", flush=True)

    deadline = Deadline(DEADLINE_S)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        report(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
               f"trace={args.trace}")
        measure = traced if args.trace else end_to_end
        metrics, res = measure(args, workdir, deadline, report)
    except (BenchError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report("env " + json.dumps({**environment(), **res["versions"],
                                "blas_env": res["blas_env"]}))
    report(f"failed_ops = {res['failed']} count, attempted_ops = {res['ops']} count")
    for name, m in metrics.items():
        report(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["ops"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
