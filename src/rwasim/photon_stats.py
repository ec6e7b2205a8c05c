"""Two-photon interference statistics and HOM dip analysis.

Covers the quantum side of the toolkit: two-photon coincidence
probabilities from a transfer unitary, the ideal dip visibility of a
two-mode coupler, synthetic delay scans, and the Gaussian-plus-linear dip
fit with its error estimate, whose N_max and N_min come from `dip_extrema`.
Grid seeds with the linear baseline profiled out (Golub & Pereyra 1973)
start a batched, bound-projected Levenberg-Marquardt fit (More 1978).  The
seed grid's tables depend on the delays alone and are built once per delay
grid.
A simulate+fit is a fixed cost of many numpy calls on small arrays, so its
path calls ndarray methods and indexing forms (`a.all()`, `a.argmin()`,
`(d[1:] > d[:-1]).all()`, filled buffers) rather than numpy's module-level
`np.all`, `np.any`, `np.argmin`, `np.diff`, `np.stack` or `np.clip`, which
run Python code before the same C loop; the values are the same to the bit.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .csvio import write_csv
from .device import finite_real, frozen_array, increasing_vector, zero_based
from .evolution import TransferUnitary

FWHM_FACTOR = 2 * math.sqrt(2 * math.log(2))
# Coherence length from a 3.1 nm FWHM filter at 807.5 nm:
# l_c ~ lambda^2 / dlambda ~ 0.21 mm; Gaussian sigma = l_c / 2.355.
DEFAULT_COHERENCE_SIGMA_MM = (0.8075e-3**2 / 3.1e-6) / FWHM_FACTOR

MAX_FIT_ITERATIONS = 500  # `least_squares`'s step limit, read at each call


class FitFailureError(RuntimeError):
    """Dip fit did not converge; carries the final residual norm."""

    def __init__(self, message: str, residual_norm: float):
        super().__init__(f"{message} (residual norm {residual_norm:.6g})")
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class HomScan:
    """Coincidence counts versus relative path delay."""

    delays: np.ndarray  # mm, strictly increasing
    counts: np.ndarray  # coincidences per integration window, >= 0

    def __post_init__(self):
        delays = increasing_vector(self.delays, "delays")
        counts = frozen_array(self.counts, "counts", delays.shape, ValueError)
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class DipFit:
    """Gaussian-plus-linear dip parameters.

    Model: R(x) = (a0*x + a1) * (1 - a2*exp(-(x - a3)^2 / (2*a4^2)));
    a2 is the visibility, a3 the dip centre (mm), a4 the Gaussian sigma (mm).
    """

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    visibility_error: float = 0.0

    @property
    def visibility(self) -> float:
        return self.a2

    def to_dict(self) -> dict:
        return {
            "a0": self.a0, "a1": self.a1, "a2": self.a2,
            "a3": self.a3, "a4": self.a4,
            "visibility": self.visibility,
            "visibility_error": self.visibility_error,
        }


def dip_model(x, a0, a1, a2, a3, a4):
    return (a0 * x + a1) * (1.0 - a2 * np.exp(-((x - a3) ** 2) / (2.0 * a4**2)))


def dip_jacobian(x, a0, a1, a2, a3, a4, out=None) -> np.ndarray:
    """Exact partial derivatives of `dip_model`, one column per a0..a4, in
    the last axis of `out` (allocated if None).

    With base = a0*x + a1 and g the Gaussian: x*(1 - a2*g), 1 - a2*g,
    -base*g, -base*a2*g*(x - a3)/a4^2 and -base*a2*g*(x - a3)^2/a4^3.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(*map(np.shape, (x, a0, a1, a2, a3, a4)))
                       + (5,))
    u = (x - a3) * (1.0 / a4)
    g = np.exp(-0.5 * (u * u))
    dip = np.subtract(1.0, a2 * g, out=out[..., 1])
    np.multiply(x, dip, out=out[..., 0])
    d_a2 = np.multiply(a0 * x + a1, -g, out=out[..., 2])
    d_a3 = np.multiply(d_a2 * u, a2 / a4, out=out[..., 3])
    np.multiply(d_a3, u, out=out[..., 4])
    return out


def two_photon_coincidence(
    u: TransferUnitary,
    inputs: tuple[int, int],
    outputs: tuple[int, int],
    indistinguishable: bool = True,
) -> float:
    """Coincidence probability for one photon in each input guide.

    Guides are 1-based.  For indistinguishable photons the two pathways add
    coherently (2x2 permanent); for distinguishable photons their
    probabilities add.
    """
    j, k = inputs
    m, n = outputs
    if j == k:
        raise ValueError(f"repeated input guide {j}")
    if m == n:
        raise ValueError(f"repeated output guide {m}")
    j, k, m, n = (zero_based(g, u.n_guides, "guide") for g in (j, k, m, n))
    mat = u.matrix
    amp_direct = mat[m, j] * mat[n, k]
    amp_swap = mat[m, k] * mat[n, j]
    if indistinguishable:
        return float(np.abs(amp_direct + amp_swap) ** 2)
    return float(np.abs(amp_direct) ** 2 + np.abs(amp_swap) ** 2)


def ideal_visibility(eta: float) -> float:
    """Dip visibility 2*eta*(1-eta) / (1 - 2*eta + 2*eta^2) of an eta-coupler."""
    eta = finite_real(eta, "eta", 0.0, 1.0)
    return 2.0 * eta * (1.0 - eta) / (1.0 - 2.0 * eta + 2.0 * eta**2)


def simulate_hom_scan(
    eta: float,
    delays,
    baseline_rate: float,
    slope: float = 0.0,
    dip_center: float = 0.0,
    coherence_width: float = DEFAULT_COHERENCE_SIGMA_MM,
    noise_seed: int | None = None,
    overlap: float = 1.0,
) -> HomScan:
    """Synthesize a delay scan from the dip model.

    The noiseless mean is (slope*x + baseline)*(1 - V*exp(...)) with
    V = overlap * ideal_visibility(eta); `overlap` absorbs residual photon
    distinguishability.  With a seed, counts are Poisson draws around the
    mean, reproducible per seed.
    """
    # dip_model divides by 2 coherence_width^2, which must be finite and
    # non-zero too
    width = finite_real(coherence_width, "coherence_width", 0.0, above=True)
    if not 0.0 < 2.0 * width * width < math.inf:
        raise ValueError(f"coherence_width must be positive, with 2 width^2 finite"
                         f" and non-zero, got {coherence_width}")
    baseline_rate = finite_real(baseline_rate, "baseline_rate", 0.0, above=True)
    slope = finite_real(slope, "slope")
    dip_center = finite_real(dip_center, "dip_center")
    overlap = finite_real(overlap, "overlap", 0.0, 1.0)
    x = np.asarray(delays, dtype=float)
    # dip_model's line and its Gaussian's exponent are largest at the scan's
    # ends, where Python floats overflow to inf without a warning
    for end in (float(x.min()), float(x.max())) if x.size else ():
        if abs(slope * end + baseline_rate) == math.inf:
            raise ValueError(f"baseline_rate and slope must be small enough to keep"
                             f" the mean count finite, got {baseline_rate} and {slope}")
        if (end - dip_center) * (end - dip_center) / (2.0 * width * width) == math.inf:
            raise ValueError(f"coherence_width must be wide enough that (delay -"
                             f" dip_center)^2 / (2 width^2) stays finite, got"
                             f" {coherence_width}")
    v = overlap * ideal_visibility(eta)
    mean = dip_model(x, slope, baseline_rate, v, dip_center, width)
    if (mean < 0).any():
        raise ValueError("model mean went negative; check slope/baseline")
    if noise_seed is None:
        counts = mean
    else:
        rng = np.random.default_rng(noise_seed)
        try:
            counts = rng.poisson(mean).astype(float)
        except ValueError as exc:  # numpy draws no Poisson mean above about 9.2e18
            raise ValueError(f"baseline_rate and slope must be small enough for a"
                             f" Poisson draw of the mean count, got up to"
                             f" {mean.max():.6g}") from exc
    return HomScan(delays=x, counts=counts)


def _initial_guess(scan: HomScan) -> np.ndarray:
    x, y = scan.delays, scan.counts
    n_edge = max(1, x.size // 10)
    left_x, left_y = x[:n_edge].sum() / n_edge, y[:n_edge].sum() / n_edge
    right_x, right_y = x[-n_edge:].sum() / n_edge, y[-n_edge:].sum() / n_edge
    a0 = (right_y - left_y) / (right_x - left_x) if right_x != left_x else 0.0
    a1 = 0.5 * (left_y + right_y) - a0 * 0.5 * (left_x + right_x)
    # the dip is deepest relative to the edge-fitted baseline: a drift larger
    # than the dip would put the raw minimum at the scan edge
    line = a0 * x + a1
    i_min = int((y / line if (line > 0).all() else y).argmin())
    a3 = x[i_min]
    baseline_at_min = line[i_min]
    a2 = 1.0 - y[i_min] / baseline_at_min if baseline_at_min > 0 else 0.0
    a2 = min(max(a2, 0.0), 1.0)
    # width where counts cross halfway between the minimum and the baseline
    half = 0.5 * (y[i_min] + baseline_at_min)
    below = (y < half).nonzero()[0]
    if below.size:
        a4 = 0.5 * max(x[below[-1]] - x[below[0]], x[1] - x[0])
    else:
        a4 = (x[-1] - x[0]) / 10.0
    return np.array([a0, a1, a2, a3, a4])


def fit_bounds(x) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds of the dip fit on delays x: a2 in [0, 1], the
    centre a3 inside the scan and the width a4 between half the smallest
    delay step and half the span, as a narrower dip cannot be told from
    noise, nor a wider one from the linear baseline; a0 and a1 are free."""
    return (np.array([-np.inf, -np.inf, 0.0, x[0], 0.5 * (x[1:] - x[:-1]).min()]),
            np.array([np.inf, np.inf, 1.0, x[-1], 0.5 * (x[-1] - x[0])]))


# seed grid: 11 a2 in [0.01, 1] and, across their bounds, 13 a3 by 6 a4 (log)
_SEED_A2 = np.geomspace(0.01, 1.0, 11)[:, None]
_SEED_A3 = np.repeat(np.linspace(0.0, 1.0, 13), 6)
_SEED_A4 = np.tile(np.linspace(0.0, 1.0, 6), 13)


# delay grids whose seed tables `_seed_tables` keeps; a sweep reuses one grid
_SEED_TABLES_KEPT = 8

_SeedTables = namedtuple("_SeedTables", "g h0 h1 h2 det params")


@lru_cache(maxsize=_SEED_TABLES_KEPT)
def _seed_tables(x: bytes) -> _SeedTables:
    """What `_grid_seeds` needs of the delays alone, read-only: the Gaussian
    table g (a3 and a4 across their `fit_bounds`, delays), the sums h0, h1,
    h2 of [x^2, x, 1] * h^2 with h = 1 - a2*g, their determinant
    h0*h2 - h1^2 and the grid's (a2, a3, a4), all flat over the grid.  The
    argument is the delays' float64 bytes, so that equal grids share one
    entry."""
    x = np.frombuffer(x)
    lower, upper = fit_bounds(x)
    a3 = lower[3] + (upper[3] - lower[3]) * _SEED_A3
    a4 = lower[4] * (upper[4] / lower[4]) ** _SEED_A4
    k = -0.5 / a4**2
    powers = np.array((x * x, x, np.ones_like(x)))
    # exp is far slower where it underflows, and g below 1e-130 is 0 here
    g = np.exp(np.maximum(np.array((k, -2.0 * a3 * k, a3 * a3 * k)).T @ powers, -300.0))
    c = _SEED_A2
    h0, h1, h2 = (powers.sum(1)[:, None, None] - 2.0 * c * (powers @ g.T)[:, None]
                  + c * c * (powers @ (g * g).T)[:, None]).reshape(3, 1, -1)
    params = np.column_stack((c.repeat(a3.size), np.tile(a3, c.size), np.tile(a4, c.size)))
    return _SeedTables(*(frozen_array(table, f"seed table {name}", error=ValueError)
                         for name, table in zip(_SeedTables._fields,
                                                (g, h0, h1, h2, h0 * h2 - h1 * h1, params))))


def _grid_seeds(x, y) -> np.ndarray:
    """The two best seed-grid points (S, 2, 5) for each scan row of y.

    At fixed (a2, a3, a4) a closed-form 2x2 solve profiles out (a0, a1).
    Its sums are polynomials in a2 of g @ [x^2, x, 1, x*y, y] and
    (g*g) @ [x^2, x, 1], for the Gaussian table g of every (a3, a4); all
    but the two that hold y are built once per delay grid (`_seed_tables`)."""
    t = _seed_tables(x.tobytes())
    # one product per scan row, so that no row depends on its batch mates
    xy = np.empty((len(y), 2, x.size))
    np.multiply(x, y, out=xy[:, 0])
    xy[:, 1] = y
    # sums of [x*y, y] * h, with h = 1 - a2*g
    b = xy.sum(-1)[..., None, None] - _SEED_A2 * (xy @ t.g.T)[:, :, None]
    b0, b1 = b[:, 0].reshape(len(y), -1), b[:, 1].reshape(len(y), -1)
    a0 = (t.h2 * b0 - t.h1 * b1) / t.det
    a1 = (t.h0 * b1 - t.h1 * b0) / t.det
    # the profiled cost is (y.y - a0*b0 - a1*b1) / 2
    best = (-(a0 * b0 + a1 * b1)).argpartition(1, axis=1)[:, :2]
    seeds = np.empty(best.shape + (5,))
    # best's flat indices into the (S, grid) tables a0 and a1
    flat = best + a0.shape[1] * np.arange(len(y))[:, None]
    seeds[..., 0] = a0.take(flat)
    seeds[..., 1] = a1.take(flat)
    seeds[..., 2:] = t.params[best]
    return seeds


LeastSquaresResult = namedtuple("LeastSquaresResult", "x cost converged nfev")


def least_squares(x, y, p0) -> LeastSquaresResult:
    """Bound-projected Levenberg-Marquardt fits of `dip_model` to each row of
    y (R, n) from p0 (R, 5): x (R, 5), cost (R,) = half the squared residual,
    converged (R,) and nfev, the batched evaluations, after at most
    `MAX_FIT_ITERATIONS` steps.  A step solves the damped normal equations of
    `dip_jacobian` (Nielsen's damping rule) for the free parameters, clips
    into the delays' `fit_bounds` and is kept if the cost fell.  A parameter
    on a bound its gradient points out of, or with a vanishing column (a3
    and a4 at a2 = 0), is held.  A row converges once a step changes, or is
    predicted to change, its cost by at most 1e-10 * cost + 1e-24 * y.y, and
    is frozen from then on so that no row depends on its batch mates.  The
    Jacobians of the kept and the trial parameters live in two buffers that
    trade places when every row keeps its step."""
    def evaluate(p, jac):
        dip_jacobian(x, *p.T[:, :, None], out=jac)
        r = p[:, :1] * jac[..., 0] + p[:, 1:2] * jac[..., 1] - y
        return r, 0.5 * (r * r).sum(-1)

    lower, upper = fit_bounds(x)
    p = np.array(p0, dtype=float)
    jac, jac_t = np.empty((2, len(p), x.size, 5))
    r, cost = evaluate(p, jac)
    floor = 1e-24 * (y * y).sum(-1)
    lam, converged = np.full(len(p), 1e-3), np.zeros(len(p), dtype=bool)
    nfev, eye = 1, np.eye(5)
    while nfev <= MAX_FIT_ITERATIONS and not converged.all():
        h = jac.transpose(0, 2, 1) @ jac
        grad = (r[:, None] @ jac)[:, 0]
        free = np.where(grad > 0, p > lower, (grad < 0) & (p < upper))
        m = np.where(free[:, :, None], h * (1.0 + lam[:, None, None] * eye), eye)
        step = np.linalg.solve(m, np.where(free, -grad, 0.0)[:, :, None])[:, :, 0]
        trial = np.minimum(np.maximum(p + step, lower), upper)
        s = trial - p
        pred = -(s * (grad + 0.5 * (h @ s[:, :, None])[:, :, 0])).sum(-1)
        tol = 1e-10 * cost + floor
        converged |= (pred >= 0) & (pred <= tol)
        if converged.all():
            break
        r_t, cost_t = evaluate(trial, jac_t)
        nfev += 1
        fall = cost - cost_t
        rho = fall / np.where(pred > 0, pred, np.inf)
        ok = (cost_t < cost) & ~converged
        converged |= np.abs(fall) <= tol
        lam = np.where(ok, lam * np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3),
                       np.where(converged, 1.0, 2.0) * lam)
        if ok.all():
            p, jac, jac_t, r, cost = trial, jac_t, jac, r_t, cost_t
        elif ok.any():
            for old, new in ((p, trial), (jac, jac_t), (r, r_t), (cost, cost_t)):
                np.copyto(old, new, where=ok.reshape((-1,) + (1,) * (old.ndim - 1)))
    return LeastSquaresResult(p, cost, converged, nfev)


def fit_hom_dips(scans) -> list[DipFit]:
    """`fit_hom_dip` on each of `scans`, which must share their delays, in
    one batched `least_squares`; fit s equals fit_hom_dip(scans[s]) bit for
    bit."""
    if not scans or scans[0].delays.size < 8:
        raise ValueError("need >= 1 scan of >= 8 points")
    x = scans[0].delays
    if not all(np.array_equal(scan.delays, x) for scan in scans[1:]):
        raise ValueError("scans must share their delays")
    y = np.array([scan.counts for scan in scans])
    lower, upper = fit_bounds(x)
    # dip_jacobian's columns are at most the baseline times g, g |u| / a4 and
    # g u^2 / a4 (u = (x - a3) / a4), so at most its magnitude times
    # max(1, 1 / a4): with the baseline at most the largest count c and a4
    # at least its lower bound w, every entry of the normal matrix J^T J and
    # the sum of squared counts are at most n (c max(1, 1 / w))^2, which
    # must be finite; an all-zero scan has no dip to fit.  Python floats
    # overflow to inf without a warning.
    n, w = y.shape[1], float(lower[4])
    for s, c in enumerate(y.max(axis=1).tolist()):
        entry = c * max(1.0, 1.0 / w)
        if not 0 < n * entry * entry < math.inf:
            raise ValueError(f"counts must be not all zero and small enough that"
                             f" n (c max(1, 1/w))^2, a bound on the fit's normal"
                             f" matrix, is finite for the n = {n} delays, the"
                             f" smallest width w = {w:g} mm and the largest count"
                             f" c = {c:g}; got {n * entry * entry:g} for scan {s}")
    guesses = np.minimum(np.maximum([_initial_guess(scan) for scan in scans], lower),
                         upper)
    starts = np.concatenate((_grid_seeds(x, y), guesses[:, None]), 1)
    k = starts.shape[1]
    result = least_squares(x, y.repeat(k, axis=0), starts.reshape(-1, 5))
    best = k * np.arange(len(y)) + result.cost.reshape(-1, k).argmin(1)
    fits = []
    for i, scan in zip(best, scans):
        if not result.converged[i]:
            raise FitFailureError("HOM dip fit did not converge",
                                  math.sqrt(2.0 * result.cost[i]))
        params = result.x[i].tolist()
        n_max, n_min = dip_extrema(DipFit(*params), scan)
        err = visibility_error(n_max, n_min) if n_max > 0 else 0.0
        fits.append(DipFit(*params, visibility_error=err))
    return fits


def fit_hom_dip(scan: HomScan) -> DipFit:
    """Nonlinear least-squares fit of the Gaussian-plus-linear dip model.

    The parameters stay within `fit_bounds` of the delays.  Three starts,
    the two best points of a coarse (a2, a3, a4) grid with the baseline
    profiled out (`_grid_seeds`) and `_initial_guess`, are polished by the
    bound-projected Levenberg-Marquardt `least_squares` until a step
    changes the cost by at most 1e-10 of it; the lowest cost wins.  If that
    start has not converged within `MAX_FIT_ITERATIONS` steps, a module
    constant read at each call, `FitFailureError` is raised.  The visibility
    error is `visibility_error` of `dip_extrema`.  A scan whose counts are
    all zero, or whose largest count c could overflow the fit's normal
    matrix J^T J, is refused with ValueError before any fit: over n delays,
    with w the smallest width (half the smallest delay step), J^T J's
    entries are at most n (c max(1, 1/w))^2, which must be finite.
    """
    return fit_hom_dips([scan])[0]


def dip_extrema(fit: DipFit, scan: HomScan) -> tuple[float, float]:
    """(N_max, N_min) for the error estimate, the one source of both for
    `fit_hom_dips` and the CLI's sweep table.

    N_max averages the fitted curve at the half-maximum offsets a3 +/- alpha/2
    with alpha the Gaussian FWHM; N_min is the raw scan minimum.
    """
    params = fit.a0, fit.a1, fit.a2, fit.a3, fit.a4
    alpha = FWHM_FACTOR * fit.a4
    return (0.5 * (float(dip_model(np.asarray(fit.a3 - alpha / 2), *params))
                   + float(dip_model(np.asarray(fit.a3 + alpha / 2), *params))),
            float(scan.counts.min()))


def visibility_error(n_max: float, n_min: float) -> float:
    """eps_V = (N_min/N_max) * sqrt(1/N_max + 1/N_min); 0 in the N_min -> 0 limit."""
    n_max = finite_real(n_max, "N_max", 0.0, above=True)
    n_min = finite_real(n_min, "N_min", 0.0)
    if n_min == 0.0:
        return 0.0
    return (n_min / n_max) * math.sqrt(1.0 / n_max + 1.0 / n_min)


# -- CSV I/O -----------------------------------------------------------------

def scan_to_csv(scan: HomScan, path) -> None:
    write_csv(path, ["delay_mm", "counts"],
              [np.column_stack((scan.delays, scan.counts)).ravel().tolist()])
