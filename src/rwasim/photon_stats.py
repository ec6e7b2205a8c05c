"""Two-photon interference statistics and HOM dip analysis.

Covers the quantum side of the toolkit: two-photon coincidence
probabilities from a transfer unitary, the ideal dip visibility of a
two-mode coupler, reflectivity extraction from classical powers, synthetic
delay scans, and the Gaussian-plus-linear dip fit with its error estimate.
The fit hands scipy's trust-region solver the model's exact Jacobian
(`dip_jacobian`), so it spends no evaluations on finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .csvio import write_csv
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
        delays = np.asarray(self.delays, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if delays.ndim != 1 or counts.shape != delays.shape:
            raise ValueError("delays and counts must be 1-D and equal length")
        if delays.size >= 2 and not np.all(np.diff(delays) > 0):
            raise ValueError("delays must be strictly increasing")
        if not (np.all(np.isfinite(delays)) and np.all(np.isfinite(counts))):
            raise ValueError("delays and counts must be finite")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        delays.setflags(write=False)
        counts.setflags(write=False)
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
    d = x - a3
    g = np.exp(-(d**2) / (2.0 * a4**2))
    dip = 1.0 - a2 * g
    base_g = (a0 * x + a1) * g
    d_a3 = base_g * (a2 * d / a4**2)
    return np.column_stack((x * dip, dip, -base_g, -d_a3, -d_a3 * (d / a4)))


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
    left_x, left_y = x[:n_edge].mean(), y[:n_edge].mean()
    right_x, right_y = x[-n_edge:].mean(), y[-n_edge:].mean()
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


def fit_hom_dip(scan: HomScan, max_iterations: int = 500) -> DipFit:
    """Nonlinear least-squares fit of the Gaussian-plus-linear dip model.

    Trust-region reflective least squares with the exact Jacobian
    `dip_jacobian`.  Bounds keep a2 in [0, 1], the centre a3 inside the scan
    and the width a4 between half the smallest delay step and half the
    span: a narrower dip cannot be told from noise, nor a wider one from the
    linear baseline.  The solver may evaluate the model at most
    10 * `max_iterations` times; a fit that has not converged by then raises
    `FitFailureError`.  The visibility error is attached from the fitted
    extrema via `visibility_error`.
    """
    if scan.delays.size < 8:
        raise ValueError(f"need >= 8 scan points, got {scan.delays.size}")
    x, y = scan.delays, scan.counts

    def residual(p):
        return dip_model(x, *p) - y

    def jacobian(p):
        return dip_jacobian(x, *p)

    x0 = _initial_guess(scan)
    span = x[-1] - x[0]
    lower = [-np.inf, -np.inf, 0.0, x[0], 0.5 * np.diff(x).min()]
    upper = [np.inf, np.inf, 1.0, x[-1], 0.5 * span]
    x0 = np.clip(x0, lower, upper)
    result = least_squares(
        residual, x0, jac=jacobian, bounds=(lower, upper),
        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=max_iterations * 10,
    )
    if not result.success:
        raise FitFailureError("HOM dip fit did not converge",
                              float(np.linalg.norm(result.fun)))
    a0, a1, a2, a3, a4 = result.x
    fit = DipFit(a0=float(a0), a1=float(a1), a2=float(a2),
                 a3=float(a3), a4=float(a4))
    n_max, n_min = dip_extrema(fit, scan)
    err = visibility_error(n_max, n_min) if n_max > 0 else 0.0
    return DipFit(a0=fit.a0, a1=fit.a1, a2=fit.a2, a3=fit.a3, a4=fit.a4,
                  visibility_error=float(err))


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
