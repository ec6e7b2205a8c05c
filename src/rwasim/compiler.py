"""Multi-start box-constrained compilation of parallel-gate voltages.

A gate target is a power split, one row per input of the subcircuit
(`gate_target`, from `subcircuits.coupler_split`): the compiler sees only the
post-selected output powers, so a target carries no phase.  The objective
penalizes the squared infidelity of each subcircuit's post-selected split
against its target plus the squared crosstalk and leakage fractions:

    (1-F1)^2 + (1-F2)^2 + ct1^2 + ct2^2 + leak1^2 + leak2^2

Each restart runs a bound-constrained L-BFGS search (`minimize_box`) from a
uniform random start.  The search gets the objective together with its exact
gradient from one eigendecomposition of H = Q diag(w) Q^T: the derivative of
U = exp(-iHL) is Q (G o Q^T dH Q) Q^T with the divided differences
G_ab = (e^{-iw_a L} - e^{-iw_b L}) / (w_a - w_b) (Daleckii-Krein; Najfeld &
Havel 1995), and the chain rule runs backwards from the objective to the
electrode voltages.

The restarts run in lockstep, in blocks of at most `LOCKSTEP_BLOCK`: each
round steps every running restart and evaluates their trial points in one
call of the batched kernel, one stacked eigensolve; the solver's steps act on
each restart alone.  The winner is picked by (objective, restart index), so
the result is deterministic for a given seed.

The winner is scored by the kernel its restarts ran, at a batch of one, so
the reported objective is the winning restart's own value and the reported
metrics are the ones behind it; `objective` is the same kernel at one point.
"""
from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
# minimize is unused here; test_bench_bindings and test_uninstall_restores_functions bind it
from scipy.optimize import minimize  # noqa: F401

from . import evolution
from .csvio import write_csv
from .device import (N_GUIDES_DEFAULT, DeviceSpec, DeviceSpecError,
                     VoltageBoundError, VoltageConfig)
from .subcircuits import (
    SubcircuitPair,
    _bhattacharyya,
    check_rows_normalized,
    coupler_split,
)
# distribution_fidelity is uncalled here; the benchmark tracer binds it by name
from .subcircuits import distribution_fidelity  # noqa: F401

MAX_ITERATIONS = 500
# restarts stepped together; bounds the stacked working set however many
# restarts a run asks for
LOCKSTEP_BLOCK = 256

logger = logging.getLogger("rwasim.compiler")

GATE_ETAS = {"X": 0.0, "H": 0.5, "I": 1.0}


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

    def validate(self, spec: DeviceSpec) -> None:
        for e in self.active_electrodes:
            if not 1 <= e <= spec.n_electrodes:
                raise IndexError(f"electrode {e} out of range 1..{spec.n_electrodes}")
        for pair in self.pairs:
            pair.indices(spec.n_guides)


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
    restart_trace: np.ndarray  # per-restart best objective
    restart_status: np.ndarray  # per-restart status: 0 converged, 1 limit, 2 other
    restart_nfev: np.ndarray  # per-restart objective evaluations
    restart_nit: np.ndarray  # per-restart iterations
    restart_reason: tuple[str, ...]  # per-restart stop reason, from STOP_REASONS

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


def _input_terms(powers: np.ndarray, rows, other_rows, target_p):
    """Per-input metric terms from the output powers of each input.

    powers[..., :, k] holds the output powers for input k, with any leading
    batch axes; rows[k] are the guides of that input's own pair, other_rows[k]
    those of the other pair and target_p[k] the target split over rows[k].
    Returns, per input, the power kept in the own pair, the post-selected
    split, the fidelity (0 when nothing is kept), the crosstalk and the
    leakage, all as fractions.  The fidelity is the row-wise Bhattacharyya
    sum without `distribution_fidelity`'s normalization check: the split rows
    are divided by their own sums, and the kernel checks its targets once.
    """
    k = np.arange(powers.shape[-1])[:, None]
    own_p = powers[..., rows, k]
    own = own_p.sum(axis=-1)
    kept = own > 0.0
    split = np.where(kept[..., None],
                     own_p / np.where(kept, own, 1.0)[..., None], 0.5)
    fid = np.where(kept, _bhattacharyya(target_p, split), 0.0)
    crosstalk = powers[..., other_rows, k].sum(axis=-1)
    return own, split, fid, crosstalk, 1.0 - own


def _objective_value(fid, ct, leak):
    """The objective from the two subcircuits' fidelity, crosstalk and
    leakage, each indexed by subcircuit along its first axis."""
    return ((1.0 - fid[0]) ** 2 + (1.0 - fid[1]) ** 2
            + ct[0] ** 2 + ct[1] ** 2 + leak[0] ** 2 + leak[1] ** 2)


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
    x = v.volts[[e - 1 for e in config.active_electrodes]]
    [value], _, _ = objective_with_gradient(spec, config, targets)(x[None])
    return float(value)


def objective_with_gradient(
    spec: DeviceSpec,
    config: ElectrodeConfig,
    targets: tuple[np.ndarray, np.ndarray],
):
    """f(X) -> (objectives, d objective / dX, metrics) for B points at once.

    Row b of X (B, n_active) holds the active electrodes' voltages in
    `config.active_electrodes` order; values[b] is the objective there and
    grads[b] (n_active,) its gradient.  metrics[:, s, b] holds subcircuit s's
    fidelity, crosstalk and leakage at that point, each averaged over the
    pair's two inputs.  targets[s] is subcircuit s's target split, one row
    per input.  All B points share one stacked eigensolve.
    """
    config.validate(spec)
    n = spec.n_guides
    active = [e - 1 for e in config.active_electrodes]
    s_beta = spec.beta_sensitivity[:, active]
    s_coupling = spec.coupling_sensitivity[:, active]
    length = spec.coupling_length
    limit = spec.voltage_limit
    pair_a, pair_b = (list(pair.indices(n)) for pair in config.pairs)
    # the four inputs whose output columns the metrics read, pair a first
    cols = pair_a + pair_b
    inputs = np.arange(4)[:, None]
    rows = np.array([pair_a, pair_a, pair_b, pair_b])
    other_rows = rows[[2, 3, 0, 1]]
    target_p = np.vstack(targets)
    check_rows_normalized("target", target_p)

    def f(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not np.abs(x).max() <= limit:  # also rejects NaN
            raise VoltageBoundError(f"voltages {x} exceed limit +/-{limit} V")
        w, q = evolution.eigh_tridiagonal(spec.base_beta + x @ s_beta.T,
                                          spec.base_coupling + x @ s_coupling.T)
        half = np.exp(-0.5j * length * w)
        q_t = q.transpose(0, 2, 1)
        q_cols = q[:, cols]
        u = (q * (half**2)[:, None, :]) @ q_t[:, :, cols]
        own, split, fid, ct, leak = _input_terms(np.abs(u) ** 2, rows, other_rows,
                                                 target_p)
        terms = np.stack((fid, ct, leak))
        # per pair, (metric, pair, point)
        means = (0.5 * (terms[..., 0::2] + terms[..., 1::2])).transpose(0, 2, 1)
        value = _objective_value(*means)

        # d objective / d powers.  d sqrt(t m) / dm is set to 0 where m = 0
        # (t / inf) and the fidelity term to 0 where the pair keeps nothing.
        d_split = 0.5 * np.sqrt(target_p / np.where(split > 0.0, split, np.inf))
        # split = p / own: the fidelity gradient loses its normal component
        d_fid = ((d_split - 0.5 * fid[..., None])
                 / np.where(own > 0.0, own, np.inf)[..., None])
        fid_m, ct_m, leak_m = means.repeat(2, axis=1).transpose(0, 2, 1)[..., None]
        d_powers = np.zeros(u.shape)
        d_powers[:, rows, inputs] = -(1.0 - fid_m) * d_fid - leak_m
        d_powers[:, other_rows, inputs] = ct_m

        # d powers = 2 Re(conj(u) du) with du = Q (G o Q^T dH Q) Q^T, so the
        # adjoint is R = Q (G o B) Q^T, B = Q^T (d_powers o conj(u)) Q[cols];
        # dH is tridiagonal, so only three diagonals of R are needed
        b = q_t @ ((d_powers * u.conj()) @ q_cols)
        g = (-1j * length) * (half[:, :, None] * half[:, None, :]) * np.sinc(
            (length / (2.0 * np.pi)) * (w[:, :, None] - w[:, None, :]))
        r = (q @ (g * b) @ q_t).real
        r_off = r.diagonal(1, 1, 2) + r.diagonal(-1, 1, 2)
        return value, 2.0 * (r.diagonal(0, 1, 2) @ s_beta + r_off @ s_coupling), means

    return f


STOP_REASONS = ("projected gradient below gtol", "relative reduction of f below ftol",
                "iteration limit reached", "evaluation limit reached",
                "line search found no acceptable step")
STOP_STATUS = np.array([0, 0, 1, 1, 2])  # 0 converged, 1 limit reached, 2 other


BoxResult = namedtuple("BoxResult", "x fun nit nfev stop")  # stop: STOP_REASONS index


def minimize_box(fun, x0: np.ndarray, lower: float, upper: float, *, maxiter: int,
                 ftol: float, gtol: float, maxfun: int = 15000) -> BoxResult:
    """Bound-constrained L-BFGS from each row of x0, clipped into the box.

    `fun(X) -> (values, grads)` evaluates a batch of points.  An iteration
    holds the variables on a bound that the gradient, or then the step,
    points out of and steps the others along -H g, H the L-BFGS inverse
    Hessian of the last 10 curvature pairs, each restricted to the variables
    free at its new point (Kim, Sra & Dhillon 2010).  The first trial, step
    1, stops at the nearest bound; up to 20 quadratic backtracks seek Armijo
    decrease, else the row retries from the projected gradient or stops.  A
    row stops once its largest projected gradient entry is at most gtol, an
    iteration lowers f by at most ftol * max(|f_old|, |f|, 1), or at maxiter
    iterations or maxfun evaluations.  Each round evaluates all running rows
    in one call of `fun`; a row depends on its batch mates only through fun.
    """
    m, max_tries, c1, eps = 10, 20, 1e-4, np.finfo(float).eps
    snap = 4.0 * eps * max(abs(lower), abs(upper), 1.0)

    def into_box(v):  # clipped, and on a bound if within rounding of it
        return np.where(v <= lower + snap, lower, np.where(v >= upper - snap, upper, v))

    x = into_box(np.array(x0, dtype=float))
    f, g = (np.array(a, dtype=float) for a in fun(x))
    n_rows, n = x.shape
    out = BoxResult(x.copy(), f.copy(), *(np.zeros(n_rows, dtype=int) for _ in range(3)))
    rows, evaluations = np.arange(n_rows), 1
    # ring of each row's last m pairs, pair j in slot j % m, zero if unset:
    # (s, y), s.y and (Y^T Y, R^-1), R_jk = s_j.y_k unless pair j is newer
    pairs, sy, mats = (np.zeros((n_rows, m) + shape) for shape in ((2, n), (), (2 * m,)))
    count, tries, nit = (np.zeros(n_rows, dtype=int) for _ in range(3))
    gamma, step, d = np.ones((n_rows, 1)), np.ones(n_rows), np.zeros(x.shape)
    # the projected gradient is zero at a binding variable, and at a free one
    # only where its gradient is (to rounding)
    pg = np.minimum(np.maximum(x - g, lower), upper) - x
    free, fresh = pg != 0.0, np.ones(n_rows, dtype=bool)  # fresh: start an iteration
    done, code = np.maximum.reduce(np.abs(pg), axis=1) <= gtol, np.zeros(n_rows, dtype=int)
    while True:
        if np.count_nonzero(done):
            for a, v in zip(out, (x[done], f[done], nit[done], evaluations, code[done])):
                a[rows[done]] = v
            (rows, x, f, g, free, d, step, tries, nit, fresh, pairs, sy, mats, count,
             gamma) = (a[~done] for a in (rows, x, f, g, free, d, step, tries, nit,
                                          fresh, pairs, sy, mats, count, gamma))
            if not rows.size:
                return out
        if np.count_nonzero(fresh):
            # H q for the free part q of g from the compact form H = gamma I +
            # [S gamma Y] M [S gamma Y]^T (Byrd, Nocedal & Schnabel 1994)
            q, r_inv, g3 = g * free, mats[:, :, m:], gamma[:, :, None]
            sq_yq = pairs.reshape(len(rows), 2 * m, n) @ q[:, :, None]
            ra = r_inv @ sq_yq[:, 0::2]
            w = sy[:, :, None] * ra + g3 * (mats[:, :, :m] @ ra - sq_yq[:, 1::2])
            u = r_inv.transpose(0, 2, 1) @ w
            hq = gamma * q + (u.transpose(0, 2, 1) @ pairs[:, :, 0]
                              - (g3 * ra).transpose(0, 2, 1) @ pairs[:, :, 1])[:, 0]
            # hold binding variables and those on a bound -hq points out of
            full = np.minimum(np.maximum(x - hq, lower), upper) - x
            new_d = np.where(free & (full != 0.0), -hq, 0.0)
            np.copyto(d, new_d, where=fresh[:, None])
            np.copyto(step, np.minimum.reduce(np.divide(
                full, new_d, out=np.ones(x.shape), where=new_d != 0.0), axis=1),
                where=fresh)
        trial = into_box(x + step[:, None] * d)
        f_t, g_t = fun(trial)
        evaluations += 1
        s = trial - x
        slope, drop = np.vecdot(g, s), f - f_t
        ok = (slope < 0.0) & (drop + c1 * slope >= 0.0)
        if np.count_nonzero(ok) < len(rows):  # quadratic backtrack
            curv = -drop - slope
            cut = -0.5 * slope / np.where(curv > 0.0, curv, np.inf)
            step = np.where(ok, step, step * np.minimum(np.maximum(cut, 0.1), 0.5))
        pg = np.minimum(np.maximum(trial - g_t, lower), upper) - trial
        free_t = pg != 0.0
        s, y = s * free_t, (g_t - g) * free_t
        s_y, y_y = np.vecdot(s, y), np.vecdot(y, y)
        new = np.flatnonzero(ok & (s_y > eps * y_y))
        if new.size:
            # the pair takes the oldest's slot k: R^-1 gets row k = e_k / s.y
            # and column k = (-R'^-1 r, 1) / s.y with r_j = s_j.y
            k, sy_new = count[new] % m, s_y[new]
            pairs.reshape(-1, 2 * n)[new * m + k] = np.concatenate((s, y), axis=1)[new]
            sy[new, k] = sy_new
            r_yy = (pairs.reshape(len(rows), 2 * m, n) @ y[:, :, None])[:, :, 0]
            r_yy[new, 2 * k] = 0.0
            col = (mats[:, :, m:] @ r_yy[:, 0::2, None])[new, :, 0] / -sy_new[:, None]
            col[np.arange(new.size), k] = 1.0 / sy_new
            yy, rows_k = r_yy[new, 1::2], (new[:, None], np.arange(m))
            mats[new, k, :m], mats[new, k, m:] = yy, 0.0
            mats[rows_k + (k[:, None],)], mats[rows_k + (m + k[:, None],)] = yy, col
            gamma[new, 0], count[new] = sy_new / y_y[new], count[new] + 1
        conv = ok & (np.maximum.reduce(np.abs(pg), axis=1) <= gtol)
        reduced = ok & (drop <= ftol * np.maximum(np.maximum(f, -f_t), 1.0))
        for old, accepted in ((x, trial), (g, g_t), (free, free_t)):
            np.copyto(old, accepted, where=ok[:, None])
        f, nit, tries = np.where(ok, f_t, f), nit + ok, np.where(ok, 0, tries + 1)
        fresh, give_up = ok, tries >= max_tries
        if np.count_nonzero(give_up):  # retry from the projected gradient, or stop
            retry = give_up & (count > 0)
            for a in (pairs, sy, mats, count, tries):
                a[retry] = 0
            gamma[retry], fresh, give_up = 1.0, ok | retry, give_up & ~retry
        limit = nit >= maxiter
        done = conv | reduced | limit | give_up | (evaluations >= maxfun)
        if np.count_nonzero(done):
            code = np.argmax((conv, reduced, limit, ~give_up, done), axis=0)


def optimize_parallel_gates(
    spec: DeviceSpec,
    config: ElectrodeConfig,
    targets: tuple[np.ndarray, np.ndarray],
    restarts: int = 100,
    seed: int = 0,
) -> CompileResult:
    """Best voltage setting over `restarts` random multi-starts."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    limit = spec.voltage_limit
    n_active = len(config.active_electrodes)
    kernel = objective_with_gradient(spec, config, targets)

    rng = np.random.default_rng(seed)
    starts = rng.uniform(-limit, limit, size=(restarts, n_active))
    runs = [minimize_box(lambda x: kernel(x)[:2], starts[lo:lo + LOCKSTEP_BLOCK],
                         -limit, limit, maxiter=MAX_ITERATIONS, ftol=1e-13, gtol=1e-10)
            for lo in range(0, restarts, LOCKSTEP_BLOCK)]
    xs, fun, nit, nfev, stop = (np.concatenate(field) for field in zip(*runs))
    status, reasons = STOP_STATUS[stop], tuple(STOP_REASONS[k] for k in stop)
    for r in np.flatnonzero(status):
        logger.warning("%s restart %d: status %d after %d iterations and %d"
                       " evaluations (%s)", config.name, r, status[r], nit[r],
                       nfev[r], reasons[r])

    best = xs[np.argmin(fun)]  # ties keep the earlier restart
    [obj], _, means = kernel(best[None])
    fid, ct, leak = (tuple(m) for m in means[..., 0].tolist())
    volts = np.zeros(spec.n_electrodes)
    volts[[e - 1 for e in config.active_electrodes]] = best
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
