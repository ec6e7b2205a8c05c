"""Model-free lookup maps over two control voltages.

A lookup map records the simulated reflectivity and leakage of one
subcircuit while two electrodes sweep a voltage grid, then serves as the
inversion target for operating-point searches and linear gate-voltage fits.

`pair_response` is the one path from voltage rows to a pair's eta and
leakages: `evolution.pair_blocks` forms only the pair's 2x2 block of each
U, from one stacked `numpy.linalg.eigvalsh` and the minors of w - H, and
`subcircuits.reflectivity_and_leakage` reads it.  A map calls it per block
of `evolution.STACK_ROWS` cells, which bounds the working set (the stacked
H of the default 11-guide device takes about 1 MB) without changing any
cell's value; `rwasim hom` calls it for one row.  A cell's eta agrees with
the one `subcircuits.effective_reflectivity` reads from `evolution.unitary`
at the same voltages within 1e-12, not bit for bit: the two form U
differently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import grid_lead, write_csv
from .device import DeviceSpec, VoltageConfig, frozen_array
from .subcircuits import GATE_ETAS, SubcircuitPair, reflectivity_and_leakage
from . import device as device_mod
from . import evolution


class FlatCurveError(ValueError):
    """Reflectivity slice has no usable slope for a linear fit."""


def uniform_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo to exactly hi in steps of `step`; ValueError unless hi > lo and
    `step` divides hi - lo, rather than a silently changed spacing."""
    intervals = (hi - lo) / step if step > 0 else 0.0
    if (not 0.0 < intervals < math.inf
            or abs(intervals - round(intervals)) > 1e-9 * intervals):
        raise ValueError(f"grid needs HI > LO and a step that divides HI - LO, "
                         f"got LO={lo:g}, HI={hi:g}, step={step:g}")
    return np.linspace(lo, hi, int(round(intervals)) + 1)


def default_grid() -> np.ndarray:
    """-10 V to +10 V inclusive in 0.5 V steps, by `uniform_grid`."""
    return uniform_grid(-10.0, 10.0, 0.5)


@dataclass(frozen=True)
class LookupMap:
    """Reflectivity and leakage of a subcircuit over a 2-D voltage grid.

    Tables are indexed [i_a, i_b] following grid_a x grid_b; leakage is in
    percent for each of the pair's two inputs.
    """

    electrode_a: int
    electrode_b: int
    grid_a: np.ndarray
    grid_b: np.ndarray
    eta: np.ndarray
    leakage_in1: np.ndarray
    leakage_in2: np.ndarray
    input_guides: tuple[int, int]
    fixed_voltages: np.ndarray

    def __post_init__(self):
        for name in ("grid_a", "grid_b"):
            object.__setattr__(self, name, _checked_grid(getattr(self, name), name))
        shape = (self.grid_a.size, self.grid_b.size)
        # leakage gets 1e-9 of rounding slack
        for name, hi, slack in (("eta", 1, 0.0), ("leakage_in1", 100, 1e-9),
                                ("leakage_in2", 100, 1e-9)):
            t = frozen_array(getattr(self, name), name, shape, ValueError)
            if not np.all((t >= -slack) & (t <= hi + slack)):
                raise ValueError(f"{name} entries must lie in [0, {hi}]")
            object.__setattr__(self, name, t)
        object.__setattr__(self, "fixed_voltages", frozen_array(
            self.fixed_voltages, "fixed_voltages", error=ValueError))

    @property
    def mean_leakage(self) -> np.ndarray:
        return _mean_leakage(self.leakage_in1, self.leakage_in2)


def _mean_leakage(leak_in1, leak_in2):
    """Leakage averaged over the pair's two inputs, elementwise."""
    return 0.5 * (leak_in1 + leak_in2)


def _checked_grid(value, name: str, error: type[Exception] = ValueError):
    """`value` frozen as a non-empty, strictly increasing 1-D grid, else
    ValueError; `error` for non-finite entries."""
    g = frozen_array(value, name, error=error)
    if g.ndim != 1 or g.size < 1:
        raise ValueError(f"{name} must be a non-empty finite 1-D vector")
    if not np.all(np.diff(g) > 0):
        raise ValueError(f"{name} must be strictly increasing")
    return g


def pair_response(spec: DeviceSpec, pair: SubcircuitPair, volts):
    """(eta, leak_in1, leak_in2 in percent) of `pair` at each row of a (B, E)
    voltage stack, each row's from that row alone.  All B rows go into one
    eigenvalue solve, so the caller keeps B within `evolution.STACK_ROWS`."""
    i, _ = pair.indices(spec.n_guides)
    diag, offdiag = device_mod.hamiltonian_diagonals(spec, volts)
    sub = evolution.pair_blocks(diag, offdiag, spec.coupling_length, i)
    return reflectivity_and_leakage(sub.real**2 + sub.imag**2)


def build_lookup_map(
    spec: DeviceSpec,
    pair: SubcircuitPair,
    electrode_a: int,
    electrode_b: int,
    grid_a,
    grid_b,
    fixed_voltages: VoltageConfig | None = None,
) -> LookupMap:
    """Simulate the device over the grid and record eta plus both leakages.

    electrode_a / electrode_b are 1-based and must be distinct; all other
    electrodes stay at `fixed_voltages` (zero if omitted).  Cells are
    evaluated in grid order, `evolution.STACK_ROWS` at a time, and each
    cell's values depend only on its own voltages, so two builds with
    identical inputs are bit-identical.
    """
    if electrode_a == electrode_b:
        raise ValueError(f"electrodes must be distinct, both are {electrode_a}")
    col_a, col_b = spec.electrode_indices((electrode_a, electrode_b))
    ga = _checked_grid(grid_a, "grid_a", device_mod.DeviceSpecError)
    gb = _checked_grid(grid_b, "grid_b", device_mod.DeviceSpecError)
    for name, g in (("grid_a", ga), ("grid_b", gb)):
        if np.any(np.abs(g) > spec.voltage_limit):
            raise device_mod.VoltageBoundError(
                f"{name} exceeds voltage limit +/-{spec.voltage_limit} V"
            )
    base = (fixed_voltages.volts if fixed_voltages is not None
            else np.zeros(spec.n_electrodes))
    n_cells = ga.size * gb.size
    tables = np.empty((3, n_cells))
    eta, leak1, leak2 = tables
    # every row is `base` with the swept electrodes at the cell's grid point
    block = evolution.STACK_ROWS
    volts = np.tile(base, (min(n_cells, block), 1))
    for start in range(0, n_cells, block):
        cells = np.arange(start, min(start + block, n_cells))
        v = volts[:cells.size]
        v[:, col_a] = ga[cells // gb.size]
        v[:, col_b] = gb[cells % gb.size]
        eta[cells], leak1[cells], leak2[cells] = pair_response(spec, pair, v)
    # the map takes the filled tables over read-only rather than copying them
    tables.setflags(write=False)
    eta, leak1, leak2 = tables.reshape(3, ga.size, gb.size)
    return LookupMap(
        electrode_a=electrode_a, electrode_b=electrode_b, grid_a=ga, grid_b=gb,
        eta=eta, leakage_in1=leak1, leakage_in2=leak2, input_guides=pair.guides,
        fixed_voltages=base,
    )


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a lookup-map inversion.

    When no cell satisfies the leakage cap, `found` is False and the fields
    carry the best infeasible candidate instead.
    """

    found: bool
    v_a: float
    v_b: float
    eta: float
    mean_leakage: float


def solve_voltage(
    lut: LookupMap, target_eta: float, max_leakage: float = 100.0
) -> SolveResult:
    """Pick the feasible cell closest to the target reflectivity.

    Ties break by lower mean leakage, then smaller voltage norm, then
    lexicographic grid order.  Infeasible cells (mean leakage above the cap)
    rank after every feasible one, so with none feasible the same ranking
    picks the best infeasible cell.  Each grid_a row is ranked with one
    lexsort and the row winners are compared in row order, which keeps the
    working set at one row however large the map is.
    """
    best, best_key = None, None
    for ia in range(lut.grid_a.size):
        dist = np.abs(lut.eta[ia] - target_eta)
        leak = _mean_leakage(lut.leakage_in1[ia], lut.leakage_in2[ia])
        norm = np.hypot(lut.grid_a[ia], lut.grid_b)
        infeasible = ~(leak <= max_leakage)  # a NaN cap admits nothing
        ib = int(np.lexsort((norm, leak, dist, infeasible))[0])
        key = (infeasible[ib], dist[ib], leak[ib], norm[ib])
        if best_key is None or key < best_key:
            best, best_key = (ia, ib), key
    ia, ib = best
    return SolveResult(
        found=not best_key[0],
        v_a=float(lut.grid_a[ia]),
        v_b=float(lut.grid_b[ib]),
        eta=float(lut.eta[ia, ib]),
        mean_leakage=float(best_key[2]),
    )


@dataclass(frozen=True)
class GateVoltage:
    target_eta: float
    voltage: float
    clamped: bool


def _monotone_run_containing(values: np.ndarray, index: int) -> tuple[int, int]:
    """Longest strictly monotone run (as [start, stop) slice) containing index."""
    n = values.size
    diffs = np.sign(np.diff(values))
    best = (index, index + 1)
    for direction in (1.0, -1.0):
        start = index
        while start > 0 and diffs[start - 1] == direction:
            start -= 1
        stop = index
        while stop < n - 1 and diffs[stop] == direction:
            stop += 1
        if (stop + 1 - start) > (best[1] - best[0]):
            best = (start, stop + 1)
    return best


def gate_voltages_by_linear_fit(lut: LookupMap, fixed_v_b: float) -> list[GateVoltage]:
    """Invert a 1-D reflectivity slice with a least-squares line, at each
    eta of `subcircuits.GATE_ETAS` in its order.

    The slice runs along electrode_a at the grid_b point nearest fixed_v_b.
    Only the longest strictly monotone segment bracketing eta = 0.5 is
    fitted (the curves oscillate; the operating branch is the one fitted).
    Out-of-range solutions clamp to the grid's voltage extremes with a flag.
    """
    ib = int(np.argmin(np.abs(lut.grid_b - fixed_v_b)))
    etas = lut.eta[:, ib]
    if etas.size < 3:
        raise FlatCurveError(f"slice needs >= 3 points, got {etas.size}")
    anchor = int(np.argmin(np.abs(etas - 0.5)))
    start, stop = _monotone_run_containing(etas, anchor)
    v = lut.grid_a[start:stop]
    y = etas[start:stop]
    if v.size < 2:
        raise FlatCurveError("no monotone segment around eta = 0.5")
    m, c = np.polyfit(v, y, 1)
    if abs(m) < 1e-6:
        raise FlatCurveError(f"reflectivity slope {m:.3g} below 1e-6 per volt")
    limit = float(max(abs(lut.grid_a[0]), abs(lut.grid_a[-1])))
    out = []
    for target in GATE_ETAS.values():
        raw = (target - c) / m
        clamped = abs(raw) > limit
        volt = float(np.clip(raw, -limit, limit))
        out.append(GateVoltage(target_eta=float(target), voltage=volt,
                               clamped=bool(clamped)))
    return out


# -- CSV / metadata I/O ------------------------------------------------------

def map_to_csv(lut: LookupMap, path) -> None:
    """Header `v_a, v_b, eta, leak_in1, leak_in2`, row-major over grid_a then grid_b.

    Written one grid_a row per block, so the text of the whole map is never
    held at once; the grid columns come from `grid_lead`, which formats each
    grid value once.
    """
    write_csv(path, ["v_a", "v_b", "eta", "leak_in1", "leak_in2"], (
        (lead, np.column_stack((lut.eta[ia], lut.leakage_in1[ia],
                                lut.leakage_in2[ia])).ravel().tolist())
        for ia, lead in enumerate(grid_lead(lut.grid_a, lut.grid_b))))


def map_metadata(lut: LookupMap) -> dict:
    return {
        "electrode_a": lut.electrode_a,
        "electrode_b": lut.electrode_b,
        "input_guides": list(lut.input_guides),
        "grid_a_points": int(lut.grid_a.size),
        "grid_b_points": int(lut.grid_b.size),
        "fixed_voltages": lut.fixed_voltages.tolist(),
    }
