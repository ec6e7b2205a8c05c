"""Benchmark child process: set up one workload, signal ready, run and check it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --workdir DIR
                                [--setup-only] [--trace] [--size full|tiny]

The parent starts this with ``src`` on PYTHONPATH and BLAS threads fixed to
one.  It prints ``READY`` once set-up is done, then one JSON line with the
run's totals.  Only a ``--trace`` run imports the tracer.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def run(args) -> dict:
    import rwasim.cli  # noqa: F401 - the entry point users start
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return {}

    # The traced run measures layers, so it runs without the speed sampler,
    # whose kernel would land inside whichever span it interrupted.
    if args.trace:
        import tracer as tracer_mod

        probe = tracer_mod.Tracer()
    else:
        import speedref

        probe = speedref.SpeedSampler()
    wall = 0.0
    ops = failed = passes = 0
    probe.start()
    try:
        while passes == 0 or wall < args.seconds:
            stolen = probe.stolen
            t0 = perf_counter()
            result = workload.run_pass(passes)
            wall += perf_counter() - t0 - (probe.stolen - stolen)
            ops += result.ops
            passes += 1
            failed += workload.check(result)
    finally:
        probe.stop()

    import numpy
    import scipy

    out = {
        "wall_s": wall,
        "ops": ops,
        "failed": failed,
        "passes": passes,
        "hits": getattr(workload, "hits", None),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tracer_loaded": "tracer" in sys.modules,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }
    if args.trace:
        out["per_layer"] = probe.metrics()
        out["layers"] = probe.layer_table()
    else:
        out["slowdown"] = speedref.slowdown(probe.samples)
        out["speed_samples"] = len(probe.samples)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        out = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
