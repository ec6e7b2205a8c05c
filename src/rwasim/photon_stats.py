"""Two-photon interference statistics and HOM dip analysis.

Covers the quantum side of the toolkit: two-photon coincidence
probabilities from a transfer unitary, the ideal dip visibility of a
two-mode coupler, reflectivity extraction from classical powers, synthetic
delay scans, and the Gaussian-plus-linear dip fit with its error estimate.
Grid seeds with the linear baseline profiled out (Golub & Pereyra 1973)
start a batched, bound-projected Levenberg-Marquardt fit (More 1978).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .csvio import write_csv
from .device import frozen_array
from .evolution import TransferUnitary
from .subcircuits import reflectivity_and_leakage

# Coherence length from a 3.1 nm FWHM filter at 807.5 nm:
# l_c ~ lambda^2 / dlambda ~ 0.21 mm; Gaussian sigma = l_c / 2.355.
DEFAULT_COHERENCE_SIGMA_MM = (0.8075e-3**2 / 3.1e-6) / (2 * math.sqrt(2 * math.log(2)))

FWHM_FACTOR = 2 * math.sqrt(2 * math.log(2))


class DegenerateSplittingError(ValueError):
    """Cross powers vanish; the reflectivity ratio is indeterminate."""


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
        delays = frozen_array(self.delays, "delays", error=ValueError)
        if delays.ndim != 1:
            raise ValueError("delays must be 1-D")
        if not np.all(np.diff(delays) > 0):
            raise ValueError("delays must be strictly increasing")
        counts = frozen_array(self.counts, "counts", delays.shape, ValueError)
        if np.any(counts < 0):
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

    def model(self, x) -> np.ndarray:
        return dip_model(np.asarray(x, dtype=float),
                         self.a0, self.a1, self.a2, self.a3, self.a4)

    def to_dict(self) -> dict:
        return {
            "a0": self.a0, "a1": self.a1, "a2": self.a2,
            "a3": self.a3, "a4": self.a4,
            "visibility": self.visibility,
            "visibility_error": self.visibility_error,
        }


def dip_model(x, a0, a1, a2, a3, a4):
    return (a0 * x + a1) * (1.0 - a2 * np.exp(-((x - a3) ** 2) / (2.0 * a4**2)))


def dip_jacobian(x, a0, a1, a2, a3, a4) -> np.ndarray:
    """Exact partial derivatives of `dip_model`, one column per a0..a4.

    With base = a0*x + a1 and g the Gaussian: x*(1 - a2*g), 1 - a2*g,
    -base*g, -base*a2*g*(x - a3)/a4^2 and -base*a2*g*(x - a3)^2/a4^3.
    """
    u = (x - a3) * (1.0 / a4)
    g = np.exp(-0.5 * (u * u))
    dip = 1.0 - a2 * g
    d_a2 = (a0 * x + a1) * -g
    d_a3 = d_a2 * u * (a2 / a4)
    return np.stack((x * dip, dip, d_a2, d_a3, d_a3 * u), axis=-1)


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
    size = u.n_guides
    for g in (j, k, m, n):
        if not 1 <= g <= size:
            raise IndexError(f"guide {g} out of range 1..{size}")
    mat = u.matrix
    amp_direct = mat[m - 1, j - 1] * mat[n - 1, k - 1]
    amp_swap = mat[m - 1, k - 1] * mat[n - 1, j - 1]
    if indistinguishable:
        return float(np.abs(amp_direct + amp_swap) ** 2)
    return float(np.abs(amp_direct) ** 2 + np.abs(amp_swap) ** 2)


def ideal_visibility(eta: float) -> float:
    """Dip visibility 2*eta*(1-eta) / (1 - 2*eta + 2*eta^2) of an eta-coupler."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    return 2.0 * eta * (1.0 - eta) / (1.0 - 2.0 * eta + 2.0 * eta**2)


def reflectivity_from_powers(p11: float, p12: float, p21: float, p22: float) -> float:
    """Reflectivity from the four cross-port powers, by
    `subcircuits.reflectivity_and_leakage`.

    P_mn is the detected power at guide n with light injected in guide m.
    Measured powers that are negative, not finite, or have no cross signal
    raise rather than read as NaN or eta = 1.
    """
    for name, p in (("P11", p11), ("P12", p12), ("P21", p21), ("P22", p22)):
        if not 0.0 <= p < math.inf:
            raise ValueError(f"{name} must be finite and non-negative, got {p}")
    if p12 == 0.0 or p21 == 0.0:
        raise DegenerateSplittingError(
            "P12 * P21 = 0: splitting ratio indeterminate (eta at exactly 1)"
        )
    block = np.array([[p11, p21], [p12, p22]])  # [guide, input]
    return float(reflectivity_and_leakage(block)[0])


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
    if not coherence_width > 0:
        raise ValueError(f"coherence_width must be positive, got {coherence_width}")
    if not baseline_rate > 0:
        raise ValueError(f"baseline_rate must be positive, got {baseline_rate}")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    x = np.asarray(delays, dtype=float)
    v = overlap * ideal_visibility(eta)
    mean = dip_model(x, slope, baseline_rate, v, dip_center, coherence_width)
    if np.any(mean < 0):
        raise ValueError("model mean went negative; check slope/baseline")
    if noise_seed is None:
        counts = mean
    else:
        counts = np.random.default_rng(noise_seed).poisson(mean).astype(float)
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
    i_min = int(np.argmin(y / line if np.all(line > 0) else y))
    a3 = x[i_min]
    baseline_at_min = line[i_min]
    a2 = 1.0 - y[i_min] / baseline_at_min if baseline_at_min > 0 else 0.0
    a2 = min(max(a2, 0.0), 1.0)
    # width where counts cross halfway between the minimum and the baseline
    half = 0.5 * (y[i_min] + baseline_at_min)
    below = np.flatnonzero(y < half)
    if below.size:
        a4 = 0.5 * max(x[below[-1]] - x[below[0]], x[1] - x[0])
    else:
        a4 = (x[-1] - x[0]) / 10.0
    return np.array([a0, a1, a2, a3, a4])


# seed grid: 11 a2 in [0.01, 1] and, across their bounds, 13 a3 by 6 a4 (log)
_SEED_A2 = np.geomspace(0.01, 1.0, 11)[:, None]
_SEED_A3 = np.repeat(np.linspace(0.0, 1.0, 13), 6)
_SEED_A4 = np.tile(np.linspace(0.0, 1.0, 6), 13)


def _grid_seeds(x, y, lower, upper) -> np.ndarray:
    """The two best seed-grid points (S, 2, 5) for each scan row of y.

    At fixed (a2, a3, a4) a closed-form 2x2 solve profiles out (a0, a1).
    Its sums are polynomials in a2 of g @ [x^2, x, 1, x*y, y] and
    (g*g) @ [x^2, x, 1], for the Gaussian table g of every (a3, a4)."""
    a3 = lower[3] + (upper[3] - lower[3]) * _SEED_A3
    a4 = lower[4] * (upper[4] / lower[4]) ** _SEED_A4
    k = -0.5 / a4**2
    powers = np.array((x * x, x, np.ones_like(x)))
    # exp is far slower where it underflows, and g below 1e-130 is 0 here
    g = np.exp(np.maximum(np.array((k, -2.0 * a3 * k, a3 * a3 * k)).T @ powers, -300.0))
    # one product per scan row, so that no row depends on its batch mates
    xy, c = np.stack((x * y, y), axis=1), _SEED_A2
    # sums of [x^2, x, 1] * h^2 and of [x*y, y] * h, with h = 1 - a2*g
    h0, h1, h2 = (powers.sum(1)[:, None, None] - 2.0 * c * (powers @ g.T)[:, None]
                  + c * c * (powers @ (g * g).T)[:, None]).reshape(3, 1, -1)
    b = xy.sum(-1)[..., None, None] - c * (xy @ g.T)[:, :, None]
    b0, b1 = b[:, 0].reshape(len(y), -1), b[:, 1].reshape(len(y), -1)
    a0 = (h2 * b0 - h1 * b1) / (h0 * h2 - h1 * h1)
    a1 = (h0 * b1 - h1 * b0) / (h0 * h2 - h1 * h1)
    # the profiled cost is (y.y - a0*b0 - a1*b1) / 2
    best = np.argpartition(-(a0 * b0 + a1 * b1), 1, axis=1)[:, :2]
    i2, i34 = np.divmod(best, a3.size)
    return np.array([np.take_along_axis(a, best, 1) for a in (a0, a1)]
                    + [c[i2, 0], a3[i34], a4[i34]]).transpose(1, 2, 0)


LeastSquaresResult = namedtuple("LeastSquaresResult", "x cost converged nfev")


def least_squares(x, y, p0, lower, upper, max_iterations: int) -> LeastSquaresResult:
    """Bound-projected Levenberg-Marquardt fits of `dip_model` to each row of
    y (R, n) from p0 (R, 5): x (R, 5), cost (R,) = half the squared residual,
    converged (R,) and nfev, the batched evaluations, after at most
    max_iterations steps.  A step solves the damped normal equations of
    `dip_jacobian` (Nielsen's damping rule) for the free parameters, clips
    into the bounds and is kept if the cost fell.  A parameter on a bound its
    gradient points out of, or with a vanishing column (a3 and a4 at a2 = 0),
    is held.  A row converges once a step changes, or is predicted to change,
    its cost by at most 1e-10 * cost + 1e-24 * y.y, and is frozen from then on
    so that no row depends on its batch mates."""
    def evaluate(p):
        jac = dip_jacobian(x, *p.T[:, :, None])
        r = p[:, :1] * jac[..., 0] + p[:, 1:2] * jac[..., 1] - y
        return jac, r, 0.5 * (r * r).sum(-1)

    p = np.array(p0, dtype=float)
    jac, r, cost = evaluate(p)
    floor = 1e-24 * (y * y).sum(-1)
    lam, converged = np.full(len(p), 1e-3), np.zeros(len(p), dtype=bool)
    nfev, eye = 1, np.eye(5)
    while nfev <= max_iterations and not converged.all():
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
        jac_t, r_t, cost_t = evaluate(trial)
        nfev += 1
        rho = (cost - cost_t) / np.where(pred > 0, pred, np.inf)
        ok = (cost_t < cost) & ~converged
        converged |= np.abs(cost - cost_t) <= tol
        lam = np.where(ok, lam * np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3),
                       np.where(converged, lam, 2.0 * lam))
        for old, new in ((p, trial), (jac, jac_t), (r, r_t), (cost, cost_t)):
            np.copyto(old, new, where=ok.reshape((-1,) + (1,) * (old.ndim - 1)))
    return LeastSquaresResult(p, cost, converged, nfev)


def fit_hom_dips(scans, max_iterations: int = 500) -> list[DipFit]:
    """`fit_hom_dip` on each of `scans`, which must share their delays, in
    one batched `least_squares`; fit s equals fit_hom_dip(scans[s]) bit for
    bit."""
    if not scans or scans[0].delays.size < 8:
        raise ValueError("need >= 1 scan of >= 8 points")
    x = scans[0].delays
    if not all(np.array_equal(scan.delays, x) for scan in scans[1:]):
        raise ValueError("scans must share their delays")
    y = np.stack([scan.counts for scan in scans])
    lower = np.array([-np.inf, -np.inf, 0.0, x[0], 0.5 * np.diff(x).min()])
    upper = np.array([np.inf, np.inf, 1.0, x[-1], 0.5 * (x[-1] - x[0])])
    guesses = np.clip([_initial_guess(scan) for scan in scans], lower, upper)
    starts = np.concatenate((_grid_seeds(x, y, lower, upper), guesses[:, None]), 1)
    k = starts.shape[1]
    result = least_squares(x, y.repeat(k, axis=0), starts.reshape(-1, 5),
                           lower, upper, max_iterations)
    best = k * np.arange(len(y)) + result.cost.reshape(-1, k).argmin(1)
    fits = []
    for scan, i in zip(scans, best):
        if not result.converged[i]:
            raise FitFailureError("HOM dip fit did not converge",
                                  math.sqrt(2.0 * result.cost[i]))
        fit = DipFit(*map(float, result.x[i]))
        n_max, n_min = dip_extrema(fit, scan)
        err = visibility_error(n_max, n_min) if n_max > 0 else 0.0
        fits.append(replace(fit, visibility_error=float(err)))
    return fits


def fit_hom_dip(scan: HomScan, max_iterations: int = 500) -> DipFit:
    """Nonlinear least-squares fit of the Gaussian-plus-linear dip model.

    Bounds keep a2 in [0, 1], the centre a3 inside the scan and the width a4
    between half the smallest delay step and half the span: a narrower dip
    cannot be told from noise, nor a wider one from the linear baseline.
    Three starts, the two best points of a coarse (a2, a3, a4) grid with the
    baseline profiled out (`_grid_seeds`) and `_initial_guess`, are polished
    by the bound-projected Levenberg-Marquardt `least_squares` until a step
    changes the cost by at most 1e-10 of it; the lowest cost wins.  If that
    start has not converged within `max_iterations` steps, `FitFailureError`
    is raised.  The visibility error comes from `visibility_error`.
    """
    return fit_hom_dips([scan], max_iterations)[0]


def dip_extrema(fit: DipFit, scan: HomScan) -> tuple[float, float]:
    """(N_max, N_min) for the error estimate.

    N_max averages the fitted curve at the half-maximum offsets a3 +/- alpha/2
    with alpha the Gaussian FWHM; N_min is the raw scan minimum.
    """
    alpha = FWHM_FACTOR * fit.a4
    n_max = 0.5 * (float(fit.model(fit.a3 - alpha / 2))
                   + float(fit.model(fit.a3 + alpha / 2)))
    n_min = float(np.min(scan.counts))
    return n_max, n_min


def visibility_error(n_max: float, n_min: float) -> float:
    """eps_V = (N_min/N_max) * sqrt(1/N_max + 1/N_min); 0 in the N_min -> 0 limit."""
    if n_max <= 0:
        raise ValueError(f"N_max must be positive, got {n_max}")
    if n_min < 0:
        raise ValueError(f"N_min must be non-negative, got {n_min}")
    if n_min == 0.0:
        return 0.0
    return (n_min / n_max) * math.sqrt(1.0 / n_max + 1.0 / n_min)


# -- CSV I/O -----------------------------------------------------------------

def scan_to_csv(scan: HomScan, path) -> None:
    write_csv(path, ["delay_mm", "counts"],
              [np.column_stack((scan.delays, scan.counts)).ravel().tolist()])
