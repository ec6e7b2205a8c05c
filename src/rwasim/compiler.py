"""Multi-start box-constrained compilation of parallel-gate voltages.

The objective penalizes the squared infidelity of each subcircuit's
post-selected action against its target plus the squared crosstalk and
leakage fractions:

    (1-F1)^2 + (1-F2)^2 + ct1^2 + ct2^2 + leak1^2 + leak2^2

Each restart runs a bound-constrained quasi-Newton local search (L-BFGS-B;
Byrd, Lu, Nocedal & Zhu 1995) from a uniform random start.  The search gets
the objective together with its exact gradient from one eigendecomposition
of H = Q diag(w) Q^T: the derivative of U = exp(-iHL) is
Q (G o Q^T dH Q) Q^T with the divided differences
G_ab = (e^{-iw_a L} - e^{-iw_b L}) / (w_a - w_b) (Daleckii-Krein; Najfeld &
Havel 1995), and the chain rule runs backwards from the objective to the
electrode voltages.

The restarts run in lockstep, in blocks of at most `LOCKSTEP_BLOCK`.
`minimize_lockstep` steps every restart's L-BFGS-B state through scipy's
reverse-communication routine exactly as `scipy.optimize.minimize` does for
one start, and evaluates all restarts that ask for f and g in one call of
the batched kernel, which runs one stacked eigensolve.  Each restart's
iterates are those of its own sequential search up to the rounding of the
batched kernel.  The winner is picked by (objective, restart index), so the
result is deterministic for a given seed.

`evaluate` runs the same kernel on a batch of one, so one kernel scores every
point and the reported objective is the winning restart's own value.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
# minimize is unused here; test_bench_bindings and test_uninstall_restores_functions bind it
from scipy.optimize import OptimizeResult, minimize  # noqa: F401
from scipy.optimize._lbfgsb import setulb
from scipy.optimize._lbfgsb_py import status_messages, task_messages

from . import evolution
from .csvio import write_csv
from .device import (N_GUIDES_DEFAULT, DeviceSpec, DeviceSpecError,
                     VoltageBoundError, VoltageConfig)
from .subcircuits import (
    SubcircuitPair,
    TwoModeUnitary,
    _bhattacharyya,
    check_rows_normalized,
    two_mode_unitary,
)
# distribution_fidelity is uncalled here; the benchmark tracer binds it by name
from .subcircuits import distribution_fidelity  # noqa: F401

MAX_ITERATIONS = 500
# restarts stepped together; bounds the stacked working set (about 33 KB
# per restart) however many restarts a run asks for
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


def gate_target(name: str) -> TwoModeUnitary:
    if name not in GATE_ETAS:
        raise KeyError(f"unknown gate {name!r}; choose from {sorted(GATE_ETAS)}")
    return two_mode_unitary(GATE_ETAS[name], 0.0)


@dataclass(frozen=True)
class SubcircuitMetrics:
    fidelity: float
    crosstalk: float  # fraction, averaged over the pair's two inputs
    leakage: float  # fraction, averaged over the pair's two inputs


@dataclass(frozen=True)
class CompileResult:
    best_voltages: VoltageConfig
    objective: float
    fidelities: tuple[float, float]
    crosstalks: tuple[float, float]
    leakages: tuple[float, float]
    restart_trace: np.ndarray  # per-restart best objective
    restart_status: np.ndarray  # per-restart L-BFGS-B status, 0 = converged
    restart_nfev: np.ndarray  # per-restart objective evaluations
    restart_nit: np.ndarray  # per-restart L-BFGS-B iterations

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


def evaluate(
    spec: DeviceSpec,
    v: VoltageConfig,
    config: ElectrodeConfig,
    targets: tuple[TwoModeUnitary, TwoModeUnitary],
) -> tuple[float, tuple[SubcircuitMetrics, SubcircuitMetrics]]:
    """Objective value plus the per-subcircuit metrics behind it, from the
    kernel at the active electrodes' voltages (the others are ignored)."""
    if v.volts.shape != (spec.n_electrodes,):
        raise DeviceSpecError(f"{v.volts.size} voltages, expected {spec.n_electrodes}")
    x = v.volts[[e - 1 for e in config.active_electrodes]]
    [value], _, means = objective_with_gradient(spec, config, targets)(x[None])
    m1, m2 = (SubcircuitMetrics(*means[:, pair, 0].tolist()) for pair in (0, 1))
    return float(value), (m1, m2)


def objective(
    spec: DeviceSpec,
    v: VoltageConfig,
    config: ElectrodeConfig,
    targets: tuple[TwoModeUnitary, TwoModeUnitary],
) -> float:
    return evaluate(spec, v, config, targets)[0]


def objective_with_gradient(
    spec: DeviceSpec,
    config: ElectrodeConfig,
    targets: tuple[TwoModeUnitary, TwoModeUnitary],
):
    """f(X) -> (objectives, d objective / dX, metrics) for B points at once.

    Row b of X (B, n_active) holds the active electrodes' voltages in
    `config.active_electrodes` order; values[b] is the objective there and
    grads[b] (n_active,) its gradient.  metrics[:, s, b] holds subcircuit s's
    fidelity, crosstalk and leakage at that point, each averaged over the
    pair's two inputs.  All B points share one stacked eigensolve.
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
    target_p = np.vstack([(np.abs(t.matrix) ** 2).T for t in targets])
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


def minimize_lockstep(fun, x0: np.ndarray, lower: float, upper: float, *,
                      maxiter: int, ftol: float, gtol: float,
                      maxfun: int = 15000) -> list[OptimizeResult]:
    """L-BFGS-B from each row of x0 within [lower, upper], all in lockstep.

    `fun(X) -> (values, grads)` evaluates a batch of points.  Every row runs
    the loop of `scipy.optimize.minimize(method="L-BFGS-B", jac=True)` on
    scipy's reverse-communication `setulb`: its start is evaluated once up
    front (evaluation 1), a request for f and g at the last evaluated point
    reuses that value, and the iteration and evaluation limits are checked
    when an iteration starts.  Each round collects the rows that request f
    and g at a new point and evaluates them in one call of `fun`.  Returns
    one result per row with scipy's x, fun, jac, nit, nfev, status (0
    converged, 1 limit reached, 2 other stop) and message.  scipy's
    defaults hold for the rest: 10 stored corrections and at most 20
    line-search steps per iteration.
    """
    maxcor, maxls = 10, 20
    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    n = x0.shape[1]
    factr = ftol / np.finfo(float).eps
    low = np.full(n, float(lower))
    up = np.full(n, float(upper))
    nbd = np.full(n, 2, np.int32)  # both bounds finite
    values, grads = fun(x0)
    runs = []
    for x, value, grad in zip(x0, values, grads):
        runs.append(dict(
            x=x.copy(), f=np.array(0.0), g=np.zeros(n), nit=0, nfev=1,
            last=(x.copy(), value, grad),
            wa=np.zeros(2 * maxcor * n + 5 * n + 11 * maxcor**2 + 8 * maxcor),
            iwa=np.zeros(3 * n, np.int32), task=np.zeros(2, np.int32),
            ln_task=np.zeros(2, np.int32), lsave=np.zeros(4, np.int32),
            isave=np.zeros(44, np.int32), dsave=np.zeros(29)))

    active = runs
    while active:
        pending = []
        for run in active:
            task = run["task"]
            while True:
                run["g"] = run["g"].astype(np.float64)
                setulb(maxcor, run["x"], low, up, nbd, run["f"], run["g"], factr,
                       gtol, run["wa"], run["iwa"], task, run["lsave"],
                       run["isave"], run["dsave"], maxls, run["ln_task"])
                if task[0] == 3:  # f and g wanted at x
                    last_x, last_f, last_g = run["last"]
                    if not (run["x"] == last_x).all():
                        pending.append(run)
                        break
                    run["f"], run["g"] = last_f, last_g
                elif task[0] == 1:  # new iteration
                    run["nit"] += 1
                    if run["nit"] >= maxiter:
                        task[:] = 5, 504
                    elif run["nfev"] > maxfun:
                        task[:] = 5, 502
                else:
                    break
        if pending:
            values, grads = fun(np.stack([run["x"] for run in pending]))
            for run, value, grad in zip(pending, values, grads):
                run["f"], run["g"] = value, grad
                run["last"] = (run["x"].copy(), value, grad)
                run["nfev"] += 1
        active = pending

    results = []
    for run in runs:
        task = run["task"]
        if task[0] == 4:
            status = 0
        elif run["nfev"] > maxfun or run["nit"] >= maxiter:
            status = 1
        else:
            status = 2
        results.append(OptimizeResult(
            x=run["x"], fun=run["f"], jac=run["g"], nit=run["nit"],
            nfev=run["nfev"], status=status, success=status == 0,
            message=f"{status_messages[task[0]]}: {task_messages[task[1]]}"))
    return results


def _embed(spec: DeviceSpec, config: ElectrodeConfig, x: np.ndarray) -> VoltageConfig:
    volts = np.zeros(spec.n_electrodes)
    volts[[e - 1 for e in config.active_electrodes]] = x
    return VoltageConfig(volts)


def optimize_parallel_gates(
    spec: DeviceSpec,
    config: ElectrodeConfig,
    targets: tuple[TwoModeUnitary, TwoModeUnitary],
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
    results = []
    for lo in range(0, restarts, LOCKSTEP_BLOCK):
        results += minimize_lockstep(lambda x: kernel(x)[:2],
                                     starts[lo:lo + LOCKSTEP_BLOCK],
                                     -limit, limit, maxiter=MAX_ITERATIONS,
                                     ftol=1e-14, gtol=1e-10)

    best_x = None
    best_obj = np.inf
    for r, res in enumerate(results):
        if res.status != 0:
            # scipy names no reason for an abnormal stop: a failed line search
            reason = ("ABNORMAL: line search found no acceptable step"
                      if res.message == "ABNORMAL: " else res.message)
            logger.warning("%s restart %d: L-BFGS-B status %d after %d iterations"
                           " and %d evaluations (%s)", config.name, r, res.status,
                           res.nit, res.nfev, reason)
        if res.fun < best_obj:  # strict: ties keep the earlier restart
            best_obj = float(res.fun)
            best_x = res.x

    best_v = _embed(spec, config, best_x)
    obj, (m1, m2) = evaluate(spec, best_v, config, targets)
    return CompileResult(
        best_voltages=best_v,
        objective=obj,
        fidelities=(m1.fidelity, m2.fidelity),
        crosstalks=(m1.crosstalk, m2.crosstalk),
        leakages=(m1.leakage, m2.leakage),
        restart_trace=np.array([float(res.fun) for res in results]),
        restart_status=np.array([res.status for res in results]),
        restart_nfev=np.array([res.nfev for res in results]),
        restart_nit=np.array([res.nit for res in results]),
    )


def sweep_chip_length(
    spec: DeviceSpec,
    config: ElectrodeConfig,
    targets: tuple[TwoModeUnitary, TwoModeUnitary],
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
