"""Multi-start box-constrained compilation of parallel-gate voltages.

A gate target is a power split, one row per input of the subcircuit
(`gate_target`, from `subcircuits.coupler_split`): the compiler sees only the
post-selected output powers, so a target carries no phase.  The objective
penalizes the squared infidelity of each subcircuit's post-selected split
against its target plus the squared crosstalk and leakage fractions:

    (1-F1)^2 + (1-F2)^2 + ct1^2 + ct2^2 + leak1^2 + leak2^2

That sum of the six squared residuals r >= 0 is the judge of every result.
Each r is quadratic in the distance to an exact solution, so the sum is
quartic there and its minimum flat; the search runs instead on
f_eps = sum (r^2 + eps r), eps = `SEARCH_EPS`, which has the same zeros and
a quadratic bottom.

Each restart runs a bound-constrained L-BFGS search (`minimize_box`) on f_eps
from a uniform random start.  Every end point is then scored on sum r^2, and
those that converged within `POLISH_WINDOW` times the best score run one more
`minimize_box` on sum r^2: where no exact solution exists, eps moves the
minima, and this polish takes them back.  The polish starts from the scoring
call's value and gradient at its end points rather than evaluating them again.
Each stage has its own stop rule on the relative reduction of its objective:
the search only has to reach a restart's basin and stops at `SEARCH_FTOL`,
the polish at `POLISH_FTOL`; both stop at a projected gradient of `GTOL`.  A
restart that hits an exact solution stops on f_eps's quadratic bottom, so its
sum r^2 ends near 1e-16 rather than at rounding.  The search also stops a
restart whose f_eps has stalled above a floor: once an accepted step leaves
f_eps >= `SEARCH_STALL_FLOOR` after f_eps fell by at most `SEARCH_STALL_RATIO`
times itself over the restart's last `SEARCH_STALL_ITERATIONS` accepted
iterations.  A restart bound for an exact solution keeps cutting f_eps by
large factors on its way to 0, while a miss settles above 0 and its relative
fall shrinks.  The floor is there because on the default device, which has
no exact solution, config3's best restarts creep at small f_eps: without it
the rule stopped them short.  The rule reads only the restart's own history,
so a restart ends the same in any batch.

The kernel gets the objective together with its exact gradient from one
eigendecomposition of H = Q diag(w) Q^T, in real arithmetic.  The metrics
read only the two pairs' 4x4 block of U = exp(-iHL), which is v v^T for
v = Q[cols] e^{-iwL/2} because U is symmetric.  v = vr + i vi is carried as
V = [vr; vi], Q[cols] times the cosines and the sines of -wL/2, and the
Gram matrix V V^T gives Re U = vr vr^T - vi vi^T and Im U = vr vi^T +
vi vr^T over the block.  The derivative of U is Q (G o Q^T dH Q) Q^T with
the divided differences G_ab = (e^{-iw_a L} - e^{-iw_b L}) / (w_a - w_b)
(Daleckii-Krein; Najfeld & Havel 1995), and the chain rule runs backwards
from the objective to the electrode voltages through the real adjoint
R = L Q (S o Im C) Q^T, with S_ab = sin(dw) / dw for dw = L (w_a - w_b) / 2
and C = v^T (d f / d P o conj(U)) v over the block.  Im C = V^T K V for the
real K = [[-Y, X], [X, Y]], X and Y being d f / d P times Re U and Im U.
S is symmetric, as sin is odd, so its upper triangle is formed and
mirrored.  dH is tridiagonal, so only R's three diagonals are read.

The restarts run in lockstep, in blocks of at most `evolution.STACK_ROWS`: each
round steps every running restart and evaluates their trial points in one
call of the batched kernel, one stacked eigensolve; the solver's steps act on
each restart alone.  A round's cost is mostly fixed, a few hundred small numpy
steps at a few dozen rows, so `minimize_box` keeps each restart's state in
three packed arrays: an accepted step is one masked copy of x, g and the
projected gradient, a new curvature pair two writes through precomputed flat
indices, and a stopping restart one take per array.  The polish and the
scoring run in blocks of the same size.  The winner is picked by (sum r^2,
restart index), so the result is deterministic for a given seed.

The winner is scored by the kernel its restarts ran, at a batch of one, so
the reported objective is the winning restart's own sum r^2 and the reported
metrics are the ones behind it; `objective` is the same kernel at one point.
"""
from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import evolution
from .csvio import write_csv
from .device import (N_GUIDES_DEFAULT, DeviceSpec, DeviceSpecError,
                     VoltageBoundError, VoltageConfig, eigenvalue_bound,
                     frozen_array)
from .subcircuits import (
    GATE_ETAS,
    SubcircuitPair,
    _bhattacharyya,
    check_rows_normalized,
    coupler_split,
)
# uncalled here; the tracer's only binding for subcircuits.distribution_fidelity,
# a layer no workload calls, so ROADMAP item 1 deletes both
from .subcircuits import distribution_fidelity  # noqa: F401

MAX_ITERATIONS = 500
GTOL = 1e-10
MAX_EVALUATIONS = 15000
# the search's objective is sum (r^2 + SEARCH_EPS r) over the six residuals,
# and it stops once an iteration lowers that by at most SEARCH_FTOL relative,
# or once it has stalled above SEARCH_STALL_FLOOR (the module docstring); the
# end points within POLISH_WINDOW times the best sum r^2 that converged are
# polished on sum r^2 at POLISH_FTOL
SEARCH_EPS = 0.1
SEARCH_FTOL = 1e-6
SEARCH_STALL_ITERATIONS = 5
SEARCH_STALL_RATIO = 0.1
SEARCH_STALL_FLOOR = 0.01
POLISH_FTOL = 1e-13
POLISH_WINDOW = 10.0
# U's entries carry absolute rounding errors of up to about 3e-14 at the
# default device's phases (w L up to about 100 rad, against a 40-digit expm),
# so an output power below (1e-13)^2 is zero up to rounding
ZERO_POWER = 1e-26

logger = logging.getLogger("rwasim.compiler")


@dataclass(frozen=True)
class ElectrodeConfig:
    """Active electrode set and the two subcircuits it controls."""

    name: str
    active_electrodes: tuple[int, ...]
    pairs: tuple[SubcircuitPair, SubcircuitPair]

    def __post_init__(self):
        if len(set(self.active_electrodes)) != len(self.active_electrodes):
            raise ValueError("active electrode list has duplicates")
        if set(self.pairs[0].guides) & set(self.pairs[1].guides):
            raise ValueError("subcircuit pairs must be disjoint")

    def indices(self, spec: DeviceSpec) -> list[int]:
        """The active electrodes' 0-based indices, once they and both pairs
        are checked to fit `spec`."""
        active = spec.electrode_indices(self.active_electrodes)
        for pair in self.pairs:
            pair.indices(spec.n_guides)
        return active


def preset_config(name: str) -> ElectrodeConfig:
    """The three benchmark electrode configurations."""
    presets = {
        "config1": ElectrodeConfig(
            name="config1",
            active_electrodes=tuple(range(1, 9)),
            pairs=(SubcircuitPair(1), SubcircuitPair(3)),
        ),
        "config2": ElectrodeConfig(
            name="config2",
            active_electrodes=tuple(range(1, 5)) + tuple(range(15, 19)),
            pairs=(SubcircuitPair(1), SubcircuitPair(8)),
        ),
        "config3": ElectrodeConfig(
            name="config3",
            active_electrodes=tuple(range(1, 23)),
            pairs=(SubcircuitPair(1), SubcircuitPair(8)),
        ),
    }
    if name not in presets:
        raise KeyError(f"unknown config {name!r}; choose from {sorted(presets)}")
    return presets[name]


def gate_target(name: str) -> np.ndarray:
    """The gate's ideal output power split, one row per input."""
    if name not in GATE_ETAS:
        raise KeyError(f"unknown gate {name!r}; choose from {sorted(GATE_ETAS)}")
    return coupler_split(GATE_ETAS[name])


@dataclass(frozen=True)
class CompileResult:
    best_voltages: VoltageConfig
    objective: float
    fidelities: tuple[float, float]
    crosstalks: tuple[float, float]
    leakages: tuple[float, float]
    restart_trace: np.ndarray  # per-restart objective (sum r^2) at its end point
    restart_status: np.ndarray  # per-restart status: 0 converged, 1 limit, 2 other
    restart_nfev: np.ndarray  # per-restart objective evaluations
    restart_nit: np.ndarray  # per-restart iterations
    restart_reason: tuple[str, ...]  # per-restart stop reason, from STOP_REASONS

    def __post_init__(self):
        for name, dtype in (("restart_trace", float), ("restart_status", int),
                            ("restart_nfev", int), ("restart_nit", int)):
            object.__setattr__(self, name, frozen_array(getattr(self, name), name,
                                                        error=ValueError, dtype=dtype))

    def to_dict(self) -> dict:
        return {
            "best_voltages": self.best_voltages.volts.tolist(),
            "objective": self.objective,
            "fidelities": list(self.fidelities),
            "crosstalks": list(self.crosstalks),
            "leakages": list(self.leakages),
            "restart_trace": self.restart_trace.tolist(),
            "restart_status": self.restart_status.tolist(),
            "restart_nfev": self.restart_nfev.tolist(),
            "restart_nit": self.restart_nit.tolist(),
            "restart_reason": list(self.restart_reason),
        }


def best_so_far(trace: np.ndarray) -> np.ndarray:
    return np.minimum.accumulate(trace)


def trace_to_csv(trace: np.ndarray, path) -> None:
    rows = zip(range(trace.size), trace.tolist(), best_so_far(trace).tolist())
    write_csv(path, ["restart", "objective", "best_so_far"],
              [[x for row in rows for x in row]], int_columns=1)


def objective(
    spec: DeviceSpec,
    v: VoltageConfig,
    config: ElectrodeConfig,
    targets: tuple[np.ndarray, np.ndarray],
) -> float:
    """The kernel's objective at the active electrodes' voltages (the others
    are ignored)."""
    if v.volts.shape != (spec.n_electrodes,):
        raise DeviceSpecError(f"{v.volts.size} voltages, expected {spec.n_electrodes}")
    x = v.volts[config.indices(spec)]
    [value], _, _ = objective_with_gradient(spec, config, targets)(x[None])
    return float(value)


def objective_with_gradient(
    spec: DeviceSpec,
    config: ElectrodeConfig,
    targets: tuple[np.ndarray, np.ndarray],
):
    """f(X, eps=0) -> (objectives, d objective / dX, metrics) for B points.

    Row b of X (B, n_active) holds the active electrodes' voltages in
    `config.active_electrodes` order; values[b] is the objective there and
    grads[b] (n_active,) its gradient.  The objective is sum (r^2 + eps r)
    over the six residuals, sum r^2 at eps = 0.  metrics[:, s, b] holds
    subcircuit s's fidelity, crosstalk and leakage at that point, each
    averaged over the pair's two inputs.  targets[s] is subcircuit s's
    target split, one row per input.  All B points share one stacked
    eigensolve.  Each point forms only the two pairs' 4x4 block of U and,
    for the gradient, the three diagonals of the real adjoint
    R = L Q (S o Im C) Q^T, all in real arithmetic.  No step mixes points:
    the two products with the sensitivities run one row at a time, and each
    of the kernel's constant maps sums at most two terms with power-of-two
    weights, which round once in any order, so a row's results do not
    depend on its batch mates.
    """
    active = config.indices(spec)
    n = spec.n_guides
    length = spec.coupling_length
    limit = spec.voltage_limit
    # H's diagonal and couplings, stacked, as base + x @ sens
    sens = np.vstack((spec.beta_sensitivity[:, active],
                      spec.coupling_sensitivity[:, active]))
    base, sens_t = np.concatenate((spec.base_beta, spec.base_coupling)), sens.T.copy()
    # d objective / dx = diags @ grad_sens over R's doubled diagonal and its
    # two off-diagonals summed, 2 tr(R dH) in all: diags adds R's flat
    # entries diags_at[0] and diags_at[1]
    grad_sens = sens * np.repeat([length, 2.0 * length], [n, n - 1])[:, None]
    on = np.arange(n) * (n + 1)
    diags_at = np.array([np.append(on, on[:-1] + 1), np.append(on, on[:-1] + n)])
    cols = np.array([*config.pairs[0].indices(n), *config.pairs[1].indices(n)])
    target_p = np.vstack(targets)
    check_rows_normalized("target", target_p)
    # entry (i, k) of the 4x4 block is output i for input k, pair a first:
    # output o of input k's own pair is row own_row[k, o], of the other pair
    # other_row[k, o]
    k = np.arange(4)[:, None]
    own_row, other_row = 2 * (k // 2) + [0, 1], 2 * (1 - k // 2) + [0, 1]
    # with V = [vr; vi] for v = vr + i vi and the blocks G_st of its Gram
    # matrix V V^T, Re u = G_00 - G_11 and Im u = G_01 + G_10 give
    # U8 = [[-Im u, Re u], [Re u, Im u]]: row (p, r, s, t, weight) of the
    # table adds weight G_st to U8's block (p, r).  U8's lower half holds
    # each row of Re u and Im u side by side.
    p, r, s, t, weight = np.array([[0, 0, 0, 1, -1], [0, 0, 1, 0, -1],
                                   [0, 1, 0, 0, 1], [0, 1, 1, 1, -1],
                                   [1, 0, 0, 0, 1], [1, 0, 1, 1, -1],
                                   [1, 1, 0, 1, 1], [1, 1, 1, 0, 1]]).T[:, :, None]
    at = (8 * np.arange(4)[:, None] + np.arange(4)).ravel()  # a block's entries
    u8_of_gram = np.zeros((64, 64))
    u8_of_gram[at + 32 * s + 4 * t, at + 32 * p + 4 * r] = weight
    # the squares of that lower half to the block's powers, gathered as
    # [other pair, own pair] x input k x output o
    i, j = np.divmod(np.stack((other_row, own_row)) * 4 + k, 4)
    p_of_sq = np.zeros((32, 16))
    p_of_sq[8 * i + j, np.arange(16).reshape(i.shape)] = 1.0
    p_of_sq[8 * i + 4 + j, np.arange(16).reshape(i.shape)] = 1.0
    # d objective / d powers from z = [a root (input k, output o), c (k),
    # dr (residual, pair)], tiled over U8's four blocks
    d_of_z = np.zeros((18, 4, 4))
    d_of_z[2 * k + [0, 1], own_row, k] = -1.0
    d_of_z[8 + k, own_row, k] = 1.0
    d_of_z[14 + k // 2, other_row, k] = 1.0
    d8_of_z = np.tile(d_of_z, (1, 2, 2)).reshape(18, 64)
    # S is symmetric, as sin is odd: S_ab is formed for a <= b over the upper
    # triangle's pairs and one diagonal pair, and s_at picks S's n x n entries
    pairs_ab = np.append(np.triu_indices(n, 1), [[0], [0]], axis=1)
    n_ab = pairs_ab.shape[1]
    # dw = L (w_a - w_b) / 2 of each pair as a difference of the phases -wL/2
    phase_diff = np.zeros((n, n_ab))
    phase_diff[pairs_ab[0], np.arange(n_ab)] = -1.0
    phase_diff[pairs_ab[1], np.arange(n_ab)] += 1.0
    s_at = np.full((n, n), n_ab - 1)
    s_at[tuple(pairs_ab[:, :-1])] = s_at[tuple(pairs_ab[::-1, :-1])] = np.arange(n_ab - 1)
    s_at = s_at.ravel()
    # per pair, half the sum over its inputs: the fidelity's mean, then the
    # crosstalk's and minus the power kept
    half_sum, half_sums = np.repeat(0.5 * np.eye(2), 2, axis=0), np.array([[0.5], [-0.5]])
    r_sign, r_shift = np.array([[-1.0], [1.0], [1.0]]), np.array([[1.0], [0.0], [0.0]])

    def f(x: np.ndarray, eps: float = 0.0
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not np.abs(x).max() <= limit:  # also rejects NaN
            raise VoltageBoundError(f"voltages {x} exceed limit +/-{limit} V")
        h = (x[:, None] @ sens_t)[:, 0]
        h += base
        w, q = evolution.eigh_tridiagonal(h[:, :n], h[:, n:])
        b = len(w)
        # U = Q diag(e^{-iwL}) Q^T is symmetric, so with v = Q[cols] e^{-iwL/2}
        # = vr + i vi its 4x4 block U[cols][:, cols] is v v^T, read from the
        # Gram matrix of V = [vr; vi]
        phase = (-0.5 * length) * w
        cos_sin = np.empty((2, b, 1, n))
        np.cos(phase, out=cos_sin[0, :, 0])
        np.sin(phase, out=cos_sin[1, :, 0])
        v = (q.take(cols, axis=1)[:, None] * cos_sin.transpose(1, 0, 2, 3)).reshape(b, 8, n)
        v_t = v.transpose(0, 2, 1)
        u8 = (v @ v_t.copy()).reshape(b, 64) @ u8_of_gram
        p = (np.square(u8[:, 32:]) @ p_of_sq).reshape(b, 2, 4, 2)
        sums = p[..., 0] + p[..., 1]  # per input, the crosstalk and the power kept
        own_p, own = p[:, 1], np.where(sums[:, 1] > 0.0, sums[:, 1], np.inf)
        # the fidelity is the row-wise Bhattacharyya sum without
        # `distribution_fidelity`'s normalization check: the split rows are
        # divided by their own sums, and the targets are checked once
        split = own_p / own[..., None]
        fid = _bhattacharyya(target_p, split)  # 0 where the pair keeps nothing
        # metrics[b, k, s]: subcircuit s's fidelity, crosstalk and leakage,
        # each averaged over its two inputs; r[b, k, s]: the residuals
        # 1 - fidelity, the crosstalk and the leakage
        metrics = np.empty((b, 3, 2))
        np.matmul(fid, half_sum, out=metrics[:, 0])
        np.multiply(sums[..., 0::2] + sums[..., 1::2], half_sums, out=metrics[:, 1:])
        metrics[:, 2] += 1.0
        r = metrics * r_sign + r_shift
        value = np.vecdot(r.reshape(b, 6), r.reshape(b, 6) + eps)

        # d objective / d powers, with d (r^2 + eps r) / dr = 2 (r + eps / 2)
        # = 2 dr and the 2 taken into the gradient's 2 tr(R dH).  A power
        # p_o kept in the own pair enters the fidelity F as sqrt(t_o p_o /
        # own), own = p_0 + p_1, so d / dp_o gets -a root_o, a = dr_F /
        # (2 own) and root_o = sqrt(t_o / split_o), plus c = a F - dr_leak
        # for both own outputs; the other pair's outputs get dr_ct.  root is
        # set to 0 where p_o is zero up to rounding: sqrt(t p) = sqrt(t) |u|
        # has a cone there, and 0 is its central difference.
        z = np.empty((b, 18))
        dr = np.add(r, 0.5 * eps, out=z[:, 12:].reshape(b, 3, 2))
        a = dr[:, 0, :, None] * (0.5 / own).reshape(b, 2, 2)
        np.multiply(np.sqrt(target_p / np.where(own_p <= ZERO_POWER, np.inf, split)),
                    a.reshape(b, 4, 1), out=z[:, :8].reshape(b, 4, 2))
        np.multiply(fid.reshape(b, 2, 2), a, out=z[:, 8:12].reshape(b, 2, 2))
        np.subtract(z[:, 8:12].reshape(b, 2, 2), dr[:, 2, :, None],
                    out=z[:, 8:12].reshape(b, 2, 2))

        # d powers = 2 Re(conj(u) du) and G_ab = -iL e^{-i(w_a+w_b)L/2} S_ab,
        # so d objective = 2 tr(R dH) for the real adjoint R of the module
        # docstring, C = v^T (d_powers o conj(u)) v, whose imaginary part is
        # V^T K V for K = d_powers o U8, d_powers tiled over U8's blocks;
        # R's three diagonals are read from Q M Q^T, M = S o Im C
        im_c = v_t @ (((z @ d8_of_z) * u8).reshape(b, 8, 8) @ v)
        dw = phase @ phase_diff
        dw = np.where(dw == 0.0, 1e-20, dw)  # sin(dw) / dw is then exactly 1
        m = (np.sin(dw) / dw).take(s_at, axis=1).reshape(b, n, n) * im_c
        r_adj = ((q @ m) @ q.transpose(0, 2, 1).copy()).reshape(b, n * n)
        diags = r_adj.take(diags_at, axis=1)
        return value, ((diags[:, :1] + diags[:, 1:]) @ grad_sens)[:, 0], metrics.transpose(1, 2, 0)

    return f


STOP_REASONS = ("projected gradient below gtol", "relative reduction of f below ftol",
                "iteration limit reached", "evaluation limit reached",
                "line search found no acceptable step", "no decrease above rounding",
                "f stalled over the window")
STOP_STATUS = np.array([0, 0, 1, 1, 2, 0, 0])  # 0 converged, 1 limit reached, 2 other


BoxResult = namedtuple("BoxResult", "x fun nit nfev stop")  # stop: STOP_REASONS index


def minimize_box(fun, x0: np.ndarray, lower: float, upper: float, *, ftol: float,
                 start: tuple[np.ndarray, np.ndarray] | None = None,
                 stall: tuple[int, float, float] | None = None) -> BoxResult:
    """Bound-constrained L-BFGS from each row of x0, clipped into the box.

    `fun(X) -> (values, grads)` evaluates a batch of points.  `start`, if
    given, is fun's output at x0, whose rows must then be points the
    clipping leaves as they are (as the rows of an earlier result are): the
    first evaluation is taken from it, and still counted.  An iteration
    holds the variables on a bound that the gradient, or then the step,
    points out of and steps the others along -H g, H the L-BFGS inverse
    Hessian of the last 10 curvature pairs, each restricted to the variables
    free at its new point (Kim, Sra & Dhillon 2010).  The first trial, step
    1, stops at the nearest bound; up to 20 quadratic backtracks seek Armijo
    decrease, else the row retries from the projected gradient or stops.
    While a row holds no curvature pair, H = gamma I, and an accepted step
    that shows no positive curvature multiplies gamma by 4, the largest
    extrapolation of Moré & Thuente's line search: a row on a nearly linear
    or concave slope would otherwise creep at the gradient's own length.  A
    row stops once its largest projected gradient entry is at most `GTOL`,
    an iteration lowers f by at most ftol * max(|f_old|, |f|, 1), or at
    `MAX_ITERATIONS` iterations; every row stops once the call has made
    `MAX_EVALUATIONS` evaluations.  A row whose line search fails stops as
    converged, "no decrease above rounding", if its largest projected
    gradient entry p has p^2 <= eps * max(|f|, 1), f's rounding on the ftol
    test's scale: a unit step along that entry, the longest the retry tries,
    then promises less decrease than f's rounding.  With
    `stall` = (window, ratio, floor), a row also stops as converged, "f
    stalled over the window", once an accepted step leaves f >= floor after
    f fell by at most ratio * f over the row's last `window` accepted
    iterations: a row bound for f = 0 keeps cutting f by large factors,
    while one that settles above it cuts f by ever smaller ones, and the
    floor spares rows that creep at small f.  The search stage of
    `optimize_parallel_gates` passes the `SEARCH_STALL_*` constants.
    Each round evaluates all running rows in one call of `fun`; a row
    depends on its batch mates only through fun.
    """
    m, max_tries, c1, eps = 10, 20, 1e-4, np.finfo(float).eps
    snap = 4.0 * eps * max(abs(lower), abs(upper), 1.0)

    def into_box(v):  # in place: clipped, and on a bound if within rounding of it
        low, high = v <= lower + snap, v >= upper - snap
        np.copyto(v, upper, where=high)
        np.copyto(v, lower, where=low)
        return v

    x = into_box(np.array(x0, dtype=float))
    f, g = (np.array(a, dtype=float) for a in (fun(x) if start is None else start))
    n_rows, n = x.shape
    # a row's state lives in three packed arrays, so that one take per dtype
    # drops the rows that stop: `vec` holds x, g, the projected gradient pg
    # at x and the direction d; `row` holds f, the step, gamma, the ring of
    # f after the last `window` accepted iterations, iteration i in slot
    # i % window, then the ring of the last m curvature pairs, pair j in slot
    # j % m and zero if unset: (s, y), s.y and (Y^T Y, R^-1) with R_jk =
    # s_j.y_k unless pair j is newer, and last a scratch entry; `ints` holds
    # the row's index in x0, its iterations and pairs, the evaluation that
    # last accepted a step or started one from the projected gradient, its
    # evaluations and its stop reason
    window, stall_ratio, floor = stall or (0, 0.0, 0.0)
    pairs_at = 3 + window
    sy_at, mats_at = pairs_at + 2 * m * n, pairs_at + 2 * m * n + m
    width = mats_at + 2 * m * m + 1
    # slots[k]: the entries of a row that a new pair in slot k writes, first
    # (s, y) and s.y, then, from `pair_end` on, row k and column k of Y^T Y
    # and of R^-1 (an entry in both goes to the scratch entry once), R^-1_kk
    # and gamma
    j, k = np.arange(m), np.arange(m)[:, None]
    scratch, pair_end = width - 1, 2 * n + 1
    slots = np.hstack((
        pairs_at + 2 * n * k + np.arange(2 * n), sy_at + k,
        mats_at + 2 * m * k + j, np.where(j == k, scratch, mats_at + 2 * m * j + k),
        np.where(j == k, scratch, mats_at + 2 * m * k + m + j),
        np.where(j == k, scratch, mats_at + 2 * m * j + m + k),
        mats_at + 2 * m * k + m + k, np.full((m, 1), 2)))
    vec = np.zeros((4, n_rows, n))
    vec[0], vec[1] = x, g
    np.subtract(np.minimum(np.maximum(x - g, lower), upper), x, out=vec[2])
    row = np.zeros((n_rows, width))
    row[:, 0], row[:, 1:3] = f, 1.0
    if window:
        row[:, 3] = f
    ints = np.zeros((n_rows, 6), dtype=int)
    ints[:, 0], ints[:, 3] = np.arange(n_rows), 1
    trials = np.empty((3, n_rows, n))  # the trial points, their g and pg
    ratios, new_pairs = np.empty((n_rows, n)), np.empty((n_rows, 2 * n + 1))
    evaluations, n_run, stopped = 1, 0, []
    fresh = np.ones(n_rows, dtype=bool)  # start an iteration
    # the projected gradient is zero at a binding variable, and at a free one
    # only where its gradient is (to rounding)
    done = np.maximum.reduce(np.abs(vec[2]), axis=1) <= GTOL
    reasons = [0] * np.count_nonzero(done)
    while True:
        if reasons or not n_run:  # the running rows changed
            if reasons:
                ints[:, 4] = evaluations
                ints[done, 5] = reasons
                stopped.append((ints.compress(done, axis=0), vec[0].compress(done, axis=0),
                                row[:, 0].compress(done)))
                keep = ~done
                vec, row, ints, fresh = (vec.compress(keep, axis=1), row.compress(keep, axis=0),
                                         ints.compress(keep, axis=0), fresh[keep])
            n_run = len(fresh)
            if not n_run:
                break
            x, g, pg, d = vec
            f, step, gamma = row[:, 0], row[:, 1], row[:, 2:3]
            pairs = row[:, pairs_at:sy_at].reshape(n_run, m, 2, n)
            sy, mats = row[:, sy_at:mats_at], row[:, mats_at:-1].reshape(n_run, m, 2 * m)
            pair_rows, r_inv, flat = pairs.reshape(n_run, 2 * m, n), mats[:, :, m:], row.ravel()
            ring_at = np.arange(3, n_run * width, width)
            nit, count, since = ints[:, 1], ints[:, 2], ints[:, 3]
            accepted, ratio, new_pair = trials[:, :n_run], ratios[:n_run], new_pairs[:n_run]
            trial, g_t, pg_t = accepted
        if np.count_nonzero(fresh):
            # H q for the free part q of g from the compact form H = gamma I +
            # [S gamma Y] M [S gamma Y]^T (Byrd, Nocedal & Schnabel 1994)
            free = pg != 0.0
            q, g3 = g * free, gamma[:, :, None]
            sq_yq = pair_rows @ q[:, :, None]
            ra = r_inv @ sq_yq[:, 0::2]
            w = sy[:, :, None] * ra + g3 * (mats[:, :, :m] @ ra - sq_yq[:, 1::2])
            u = r_inv.transpose(0, 2, 1) @ w
            hq = gamma * q + (u.transpose(0, 2, 1) @ pairs[:, :, 0]
                              - (g3 * ra).transpose(0, 2, 1) @ pairs[:, :, 1])[:, 0]
            # hold binding variables and those on a bound -hq points out of
            # (x lies in the box, so hq is nonzero where full is)
            full = np.minimum(np.maximum(x - hq, lower), upper) - x
            moves = free & (full != 0.0)
            new_d = np.where(moves, -hq, 0.0)
            np.copyto(d, new_d, where=fresh[:, None])
            ratio.fill(1.0)
            np.copyto(step, np.minimum.reduce(
                np.divide(full, new_d, out=ratio, where=moves), axis=1), where=fresh)
        into_box(np.add(x, step[:, None] * d, out=trial))
        f_t, g_t[...] = fun(trial)  # the gradient goes to its packed slot
        evaluations += 1
        s = trial - x
        slope, drop = np.vecdot(g, s), f - f_t
        ok = (slope < 0.0) & (drop + c1 * slope >= 0.0)
        if np.count_nonzero(ok) < n_run:  # quadratic backtrack
            curv = -drop - slope
            cut = -0.5 * slope / np.where(curv > 0.0, curv, np.inf)
            np.copyto(step, step * np.minimum(np.maximum(cut, 0.1), 0.5), where=~ok)
        np.subtract(np.minimum(np.maximum(trial - g_t, lower), upper), trial, out=pg_t)
        # the step's curvature pair (s, y) and s.y, restricted to the
        # variables free at the trial point
        free_t = pg_t != 0.0
        s, y, s_y = np.multiply(s, free_t, out=new_pair[:, :n]), new_pair[:, n:-1], new_pair[:, -1]
        np.multiply(g_t - g, free_t, out=y)
        np.vecdot(s, y, out=s_y)
        y_y = np.vecdot(y, y)
        eps_yy = eps * y_y
        curved = ok & (s_y > eps_yy)
        new = curved.nonzero()[0]
        if new.size:
            # the pair takes the oldest's slot k: R^-1 gets row k = e_k / s.y
            # and column k = (-R'^-1 r, 1) / s.y with r_j = s_j.y
            k, sy_new = count[new] % m, s_y[new]
            at = (new * width)[:, None] + slots.take(k, axis=0)
            flat[at[:, :pair_end]] = new_pair.take(new, axis=0)
            r_yy = (pair_rows @ y[:, :, None])[:, :, 0]
            r_yy[new, 2 * k] = 0.0
            col = (r_inv @ r_yy[:, 0::2, None]).take(new, axis=0)[:, :, 0] / -sy_new[:, None]
            yy = r_yy.take(new, axis=0)[:, 1::2]
            flat[at[:, pair_end:]] = np.concatenate(
                (yy, yy, np.zeros(yy.shape), col, (1.0 / sy_new)[:, None],
                 (sy_new / y_y[new])[:, None]), axis=1)
            count += curved
        if np.count_nonzero(count) < n_run:
            # no curvature pair yet and none from this step: H = gamma I is too
            # short a model, so lengthen the next step as a line search would
            np.multiply(gamma, 4.0, out=gamma,
                        where=(ok & (count == 0) & (s_y <= eps_yy))[:, None])
        # an accepted step converged, or reduced f by little
        conv = (np.abs(pg_t) <= GTOL).all(axis=1)
        reduced = drop <= ftol * np.maximum(np.maximum(f, -f_t), 1.0)
        np.copyto(vec[:3], accepted, where=ok[:, None])
        np.copyto(f, f_t, where=ok)
        np.copyto(since, evaluations, where=ok)
        nit += ok
        fresh, give_up = ok, since <= evaluations - max_tries
        if np.count_nonzero(give_up):  # retry from the projected gradient, or stop
            retry = give_up & (count > 0)
            row[retry, 2], row[retry, pairs_at:] = 1.0, 0.0  # gamma, and no pairs
            ints[retry, 2:4] = 0, evaluations
            fresh, give_up = ok | retry, give_up & ~retry
        limit = nit >= MAX_ITERATIONS
        done = ok & (conv | reduced) | limit | give_up
        if window:  # the ring slot of f after nit - window iterations takes f
            at = ring_at + nit % window
            stalled = ok & (nit >= window) & (f >= floor) & (flat[at] - f <= stall_ratio * f)
            flat[at] = f
            done |= stalled
        else:
            stalled = np.zeros(n_run, dtype=bool)
        if evaluations >= MAX_EVALUATIONS:
            done[:] = True
        reasons = [0 if ok[i] and conv[i] else 1 if ok[i] and reduced[i]
                   else 6 if stalled[i] else 2 if limit[i]
                   else 3 if not give_up[i]
                   # a row whose line search failed is at a minimum if a unit
                   # step along its largest projected gradient entry promises
                   # less decrease than f's rounding
                   else 5 if np.square(np.abs(pg[i]).max()) <= eps * max(abs(f[i]), 1.0)
                   else 4 for i in done.nonzero()[0].tolist()
                   ] if np.count_nonzero(done) else []
    ints, x, f = (np.concatenate(part) for part in zip(*stopped))
    order = np.argsort(ints[:, 0])
    return BoxResult(x[order], f[order], *(ints[order, c] for c in (1, 4, 5)))


# uncalled alias for the benchmark tracer's `compiler.minimize` binding, whose
# hook reads scalar results, not a BoxResult; ROADMAP item 1 retires both
minimize = minimize_box


def optimize_parallel_gates(
    spec: DeviceSpec,
    config: ElectrodeConfig,
    targets: tuple[np.ndarray, np.ndarray],
    restarts: int = 100,
    seed: int = 0,
) -> CompileResult:
    """Best voltage setting over `restarts` random multi-starts.

    Raises ValueError when no restart takes a step, every one ending at
    status 2 after 0 iterations, naming `coupling_length` and rho L, the
    `eigenvalue_bound` times the length: a length near the device's 2^52 rad
    phase bound leaves phases too coarse for any step."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    limit = spec.voltage_limit
    n_active = len(config.active_electrodes)
    kernel = objective_with_gradient(spec, config, targets)
    block = evolution.STACK_ROWS

    def search(x0, eps, ftol, start=None, stall=None):  # minimize_box by block
        runs = [minimize_box(lambda x: kernel(x, eps)[:2], x0[lo:lo + block],
                             -limit, limit, ftol=ftol, stall=stall,
                             start=start and tuple(a[lo:lo + block] for a in start))
                for lo in range(0, len(x0), block)]
        return [np.concatenate(field) for field in zip(*runs)]

    starts = np.random.default_rng(seed).uniform(-limit, limit,
                                                 size=(restarts, n_active))
    xs, _, nit, nfev, stop = search(starts, SEARCH_EPS, SEARCH_FTOL, stall=(
        SEARCH_STALL_ITERATIONS, SEARCH_STALL_RATIO, SEARCH_STALL_FLOOR))
    if not nit.any() and (STOP_STATUS[stop] == 2).all():
        phase = eigenvalue_bound(spec)[0] * spec.coupling_length
        raise ValueError(f"no restart took a step (status 2 after 0 iterations):"
                         f" with coupling_length {spec.coupling_length:g} mm the"
                         f" phases may reach rho L = {phase:.6g} rad, whose last"
                         f" bit is {math.ulp(phase):g} rad")
    # score every end point on sum r^2, then polish the converged ones near the
    # best from there
    fun, grad = (np.concatenate(part) for part in zip(
        *(kernel(xs[lo:lo + block])[:2] for lo in range(0, restarts, block))))
    near = np.flatnonzero((STOP_STATUS[stop] == 0) & (fun <= POLISH_WINDOW * fun.min()))
    if near.size:
        xs[near], fun[near], polish_nit, polish_nfev, stop[near] = search(
            xs[near], 0.0, POLISH_FTOL, start=(fun[near], grad[near]))
        nit[near] += polish_nit
        nfev[near] += polish_nfev
    status, reasons = STOP_STATUS[stop], tuple(STOP_REASONS[k] for k in stop)
    for r in np.flatnonzero(status):
        logger.warning("%s restart %d: status %d after %d iterations and %d"
                       " evaluations (%s)", config.name, r, status[r], nit[r],
                       nfev[r], reasons[r])

    best = xs[np.argmin(fun)]  # ties keep the earlier restart
    [obj], _, means = kernel(best[None])
    fid, ct, leak = (tuple(m) for m in means[..., 0].tolist())
    volts = np.zeros(spec.n_electrodes)
    volts[config.indices(spec)] = best
    return CompileResult(
        best_voltages=VoltageConfig(volts),
        objective=float(obj),
        fidelities=fid,
        crosstalks=ct,
        leakages=leak,
        restart_trace=fun,
        restart_status=status,
        restart_nfev=nfev,
        restart_nit=nit,
        restart_reason=reasons,
    )


def sweep_chip_length(
    spec: DeviceSpec,
    config: ElectrodeConfig,
    targets: tuple[np.ndarray, np.ndarray],
    lengths,
    restarts: int = 100,
    seed: int = 0,
) -> list[tuple[float, CompileResult]]:
    """Re-run the optimization with the coupling length substituted.

    Every length is checked, by building its device, before the first run.
    """
    swept = [(float(length), spec.with_length(float(length))) for length in lengths]
    return [(length, optimize_parallel_gates(at_length, config, targets,
                                             restarts=restarts, seed=seed))
            for length, at_length in swept]


def random_base_device(seed: int) -> DeviceSpec:
    """Default-sized device with a seeded random base Hamiltonian.

    beta_n ~ U[3.0, 3.2] rad/mm and C ~ U[0.05, 0.15] rad/mm; sensitivities
    keep the default odd/even electrode pattern.
    """
    rng = np.random.default_rng(seed)
    n = N_GUIDES_DEFAULT
    return DeviceSpec(base_beta=rng.uniform(3.0, 3.2, n),
                      base_coupling=rng.uniform(0.05, 0.15, n - 1))
