"""Span tracer for the traced benchmark run.

The tracer rebinds rwasim's public functions in the module namespaces where
their callers look them up (for example ``rwasim.compiler.unitary`` or
``rwasim.photon_stats.least_squares``), so the program itself is unchanged.
Each call records a span (layer, start, end, parent) in flat arrays held in
memory; per-layer metrics are computed from them once the run ends.

Only the traced child imports this module.
"""
from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter

import numpy as np

from workloads import HIT_OBJECTIVE

# (layer, module, attribute): every binding through which a caller reaches
# the layer.  A binding whose attribute no longer exists is skipped, and the
# layer's metrics are then reported as absent.
BINDINGS = (
    ("device.build_hamiltonian", "rwasim.device", "build_hamiltonian"),
    ("device.build_hamiltonian", "rwasim.compiler", "build_hamiltonian"),
    ("evolution.unitary", "rwasim.evolution", "unitary"),
    ("evolution.unitary", "rwasim.compiler", "unitary"),
    ("evolution.unitary", "rwasim.calibration", "unitary"),
    ("evolution.eigh_tridiagonal", "rwasim.evolution", "eigh_tridiagonal"),
    ("subcircuits.distribution_fidelity", "rwasim.compiler", "distribution_fidelity"),
    ("subcircuits.effective_reflectivity", "rwasim.subcircuits", "effective_reflectivity"),
    ("subcircuits.effective_reflectivity", "rwasim.calibration", "effective_reflectivity"),
    ("subcircuits.leakage", "rwasim.subcircuits", "leakage"),
    ("subcircuits.leakage", "rwasim.calibration", "leakage"),
    ("compiler.optimize_parallel_gates", "rwasim.compiler", "optimize_parallel_gates"),
    ("compiler.objective", "rwasim.compiler", "objective"),
    ("compiler.minimize", "rwasim.compiler", "minimize"),
    ("calibration.build_lookup_map", "rwasim.calibration", "build_lookup_map"),
    ("calibration.solve_voltage", "rwasim.calibration", "solve_voltage"),
    ("calibration.gate_voltages_by_linear_fit", "rwasim.calibration",
     "gate_voltages_by_linear_fit"),
    ("calibration.map_to_csv", "rwasim.calibration", "map_to_csv"),
    ("photon_stats.simulate_hom_scan", "rwasim.photon_stats", "simulate_hom_scan"),
    ("photon_stats.fit_hom_dip", "rwasim.photon_stats", "fit_hom_dip"),
    ("photon_stats.least_squares", "rwasim.photon_stats", "least_squares"),
)

# Layers reported as calls plus mean self time per call.
SELF_TIME_LAYERS = (
    "device.build_hamiltonian",
    "evolution.unitary",
    "evolution.eigh_tridiagonal",
    "subcircuits.distribution_fidelity",
    "subcircuits.effective_reflectivity",
    "subcircuits.leakage",
    "compiler.objective",
)

def self_times(starts, ends, parents) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Children are clipped to their parent's interval and overlapping children
    count once, so the result never double-subtracts.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros(starts.size)
    children = np.flatnonzero(parents >= 0)
    order = children[np.lexsort((starts[children], parents[children]))]
    current, lo, hi = -1, 0.0, 0.0
    p_start, p_end = starts.tolist(), ends.tolist()
    for i, p in zip(order.tolist(), parents[order].tolist()):
        s = max(p_start[i], p_start[p])
        e = min(p_end[i], p_end[p])
        if e <= s:
            continue
        if p != current:
            if current >= 0:
                covered[current] += hi - lo
            current, lo, hi = p, s, e
        elif s > hi:
            covered[current] += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if current >= 0:
        covered[current] += hi - lo
    return (ends - starts) - covered


def percentile_with_support(values, q: float, min_beyond: int = 10) -> float:
    """Value at percentile q, lowered until min_beyond samples lie above it;
    0.0 for an empty sample."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    q = min(q, max(0.0, 100.0 * (1.0 - min_beyond / values.size)))
    return float(np.percentile(values, q))


class Tracer:
    """Records spans around rwasim calls from `start` until `stop`."""

    stolen = 0.0  # tracing cost is part of the traced run's measured time

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.layer_ids = array("h")
        self.raised = array("h")
        self.layer_names: list[str] = []
        self.restarts: list[tuple[int, int, int, int, float]] = []
        self.lsq_nfev: list[int] = []
        self.cells = 0
        self.csv_bytes: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def start(self) -> None:
        on_return = {
            "compiler.minimize": self._on_minimize,
            "photon_stats.least_squares": self._on_least_squares,
            "calibration.build_lookup_map": self._on_lookup_map,
            "calibration.map_to_csv": self._on_map_to_csv,
        }
        for layer, module_name, attr in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            if layer not in self.layer_names:
                self.layer_names.append(layer)
            wrapper = self._wrap(self.layer_names.index(layer), original,
                                 on_return.get(layer))
            self._patched.append((module, attr, original))
            setattr(module, attr, wrapper)

    def stop(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer_id: int, fn, on_return):
        starts, ends, parents = self.starts, self.ends, self.parents
        layer_ids, raised, stack = self.layer_ids, self.raised, self._stack

        def traced(*args, **kwargs):
            idx = len(layer_ids)
            layer_ids.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            raised.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(idx, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_minimize(self, idx, res, args):
        self.restarts.append((idx, int(res.nit), int(res.nfev), int(res.status),
                              float(res.fun)))

    def _on_least_squares(self, idx, res, args):
        self.lsq_nfev.append(int(res.nfev))

    def _on_lookup_map(self, idx, lut, args):
        self.cells += int(lut.eta.size)

    def _on_map_to_csv(self, idx, result, args):
        self.csv_bytes.append(os.path.getsize(args[1]))

    def _spans(self):
        starts = np.frombuffer(self.starts, dtype="d")
        ends = np.frombuffer(self.ends, dtype="d")
        parents = np.frombuffer(self.parents, dtype="l")
        return starts, ends, parents, self_times(starts, ends, parents)

    def metrics(self) -> dict:
        """Per-layer metrics; a layer whose bindings are all gone is absent."""
        starts, ends, _, own = self._spans()
        dur = ends - starts
        ids = np.frombuffer(self.layer_ids, dtype="h")
        raised = np.frombuffer(self.raised, dtype="h")

        def spans(layer):
            if layer not in self.layer_names:
                return None
            return ids == self.layer_names.index(layer)

        def mean(x):
            x = np.asarray(x, dtype=float)
            return float(np.mean(x)) if x.size else 0.0

        def median(x):
            return float(np.median(x)) if x.size else 0.0

        out = {}
        for layer in SELF_TIME_LAYERS:
            sel = spans(layer)
            if sel is not None:
                out[f"{layer}.calls"] = int(sel.sum())
                out[f"{layer}.self_us"] = mean(own[sel]) * 1e6

        minimize = spans("compiler.minimize")
        if minimize is not None:
            # columns: span index, nit, nfev, status, fun
            rs = np.array(self.restarts, dtype=float).reshape(-1, 5)
            out["compiler.minimize.calls"] = int(minimize.sum())
            out["compiler.minimize.self_s"] = mean(own[minimize])
            out["compiler.restart.s_p50"] = median(dur[rs[:, 0].astype(int)])
            out["compiler.restart.nit_mean"] = mean(rs[:, 1])
            out["compiler.restart.nfev_mean"] = mean(rs[:, 2])
            out["compiler.restart.abnormal"] = int((rs[:, 3] != 0).sum())
            out["compiler.restart.hit_ratio"] = mean(rs[:, 4] <= HIT_OBJECTIVE)
            objective = spans("compiler.objective")
            if objective is not None:
                calls = int(objective.sum())
                out["compiler.objective.calls_per_restart"] = (
                    calls / len(rs) if len(rs) else 0.0)
                out["compiler.objective.grad_frac"] = (
                    float(calls - rs[:, 2].sum()) / calls if calls else 0.0)

        sel = spans("calibration.build_lookup_map")
        if sel is not None:
            out["calibration.build_lookup_map.s"] = mean(dur[sel])
            out["calibration.cell_us"] = (
                float(dur[sel].sum()) / self.cells * 1e6 if self.cells else 0.0)
        for layer, key, scale in (
            ("calibration.solve_voltage", "s", 1.0),
            ("calibration.gate_voltages_by_linear_fit", "ms", 1e3),
            ("calibration.map_to_csv", "s", 1.0),
        ):
            sel = spans(layer)
            if sel is not None:
                out[f"{layer}.{key}"] = mean(dur[sel]) * scale
        if spans("calibration.map_to_csv") is not None:
            out["calibration.map_to_csv.bytes"] = mean(self.csv_bytes)

        sel = spans("photon_stats.simulate_hom_scan")
        if sel is not None:
            out["photon_stats.simulate_hom_scan.us_p50"] = median(dur[sel]) * 1e6
        sel = spans("photon_stats.fit_hom_dip")
        if sel is not None:
            ok = sel & (raised == 0)
            out["photon_stats.fit_hom_dip.ms_p50"] = median(dur[ok]) * 1e3
            out["photon_stats.fit_hom_dip.ms_p99"] = (
                percentile_with_support(dur[ok], 99.0) * 1e3)
            out["photon_stats.fit_hom_dip.failures"] = int((sel & (raised != 0)).sum())
        if spans("photon_stats.least_squares") is not None:
            out["photon_stats.least_squares.nfev_mean"] = mean(self.lsq_nfev)
        return out

    def layer_table(self) -> dict:
        """Per layer: calls, mean inclusive us per call, share of root-span time
        spent in the layer's own code."""
        starts, ends, parents, own = self._spans()
        ids = np.frombuffer(self.layer_ids, dtype="h")
        dur = ends - starts
        total = float(dur[parents < 0].sum())
        table = {}
        for i, name in enumerate(self.layer_names):
            sel = ids == i
            n = int(sel.sum())
            if n:
                table[name] = (n, float(dur[sel].mean()) * 1e6,
                               float(own[sel].sum()) / total)
        return table
