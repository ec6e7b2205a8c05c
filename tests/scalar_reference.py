"""Scalar references for the compiler's batched kernel and lockstep driver.

`full_u_evaluate` scores a voltage vector the way the compiler reported its
results before the batched kernel scored every point: it masks the inactive
electrodes, builds the full U through `build_hamiltonian` and `unitary`, and
checks every fidelity row through `distribution_fidelity`.  Targets are the
compiler's gate splits, one row per input.

`scalar_objective_with_gradient` is the one-point f+g closure the compiler
ran before its restarts were batched, with the same Daleckii-Krein adjoint
in complex arithmetic, no batch axis and the search's eps.  Its per-input
terms and its objective are this module's own copies of the formulas the
kernel ran before it moved to real arithmetic, so the kernel is not checked
against itself.  It diagonalizes H with scipy's `eigh_tridiagonal`, a
different LAPACK driver from the package's stacked `numpy.linalg.eigh`, so
the batched-versus-scalar tests compare two independent eigensolvers.
`sequential_restarts` runs the restarts one after another through
`scipy.optimize.minimize`, as the compiler did before it stepped them in
lockstep.

`eigh_blocks` is the eigenvector formula, (Q[rows] e^{-iwL}) Q[cols]^T from
the stacked eigendecomposition of `evolution.eigh_tridiagonal`, for a stack
of points: `evolution.unitary` forms U this way at one point, and
`evolution.pair_blocks`, which forms a pair's block from eigenvalues and
minors, is tested against it.

`trf_dip_fit` fits the HOM dip model with scipy's trust-region reflective
`least_squares`, within the package's `fit_bounds` and the tolerances
`fit_hom_dip` used while it ran that solver.
"""
import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import least_squares, minimize

from rwasim import compiler
from rwasim.device import VoltageBoundError, VoltageConfig, build_hamiltonian
from rwasim.evolution import eigh_tridiagonal as stacked_eigh, unitary
from rwasim.photon_stats import dip_jacobian, dip_model, fit_bounds
from rwasim.subcircuits import distribution_fidelity


def input_terms(powers, rows, other_rows, target_p):
    """Per-input (kept power, split, fidelity, crosstalk, leakage) fractions.

    powers[:, k] holds the output powers for input k; rows[k] index the two
    outputs of that input's own pair, other_rows[k] those of the other pair,
    and target_p[k] is the target split over rows[k].  The split is 0.5 and
    the fidelity 0 where the pair keeps nothing.
    """
    k = np.arange(powers.shape[-1])[:, None]
    own_p, other_p = powers[rows, k], powers[other_rows, k]
    own = own_p[:, 0] + own_p[:, 1]
    kept = own > 0.0
    split = np.where(kept[:, None], own_p / np.where(kept, own, 1.0)[:, None], 0.5)
    fid = np.where(kept, np.sqrt(target_p * split).sum(axis=-1), 0.0)
    return own, split, fid, other_p[:, 0] + other_p[:, 1], 1.0 - own


def objective_value(metrics, eps=0.0):
    """sum (r^2 + eps r) over the six residuals r from metrics[k, s], the
    fidelity, crosstalk and leakage (k = 0, 1, 2) of subcircuit s: r is
    1 - fidelity, the crosstalk or the leakage."""
    r = np.concatenate((1.0 - metrics[:1], metrics[1:]))
    return float(np.sum(r * r + eps * r))


def _subcircuit_metrics(u_matrix, pair, other, target):
    n = u_matrix.shape[0]
    rows = list(pair.indices(n))
    other_rows = list(other.indices(n))
    powers = np.abs(u_matrix[:, rows]) ** 2
    k = np.arange(2)[:, None]
    own_p = powers[[rows, rows], k]
    own = own_p.sum(axis=-1)
    kept = own > 0.0
    split = np.where(kept[..., None],
                     own_p / np.where(kept, own, 1.0)[..., None], 0.5)
    fid = np.where(kept, distribution_fidelity(target, split), 0.0)
    ct = powers[[other_rows, other_rows], k].sum(axis=-1)
    return float(fid.mean()), float(ct.mean()), float((1.0 - own).mean())


def full_u_evaluate(spec, v, config, targets):
    """(objective, (metrics a, metrics b)) from the full transfer matrix, each
    pair's metrics its (fidelity, crosstalk, leakage) means."""
    volts = v.volts.copy()
    inactive = np.ones(spec.n_electrodes, dtype=bool)
    inactive[[e - 1 for e in config.active_electrodes]] = False
    volts[inactive] = 0.0
    u = unitary(build_hamiltonian(spec, VoltageConfig(volts)),
                spec.coupling_length)
    m1 = _subcircuit_metrics(u.matrix, config.pairs[0], config.pairs[1], targets[0])
    m2 = _subcircuit_metrics(u.matrix, config.pairs[1], config.pairs[0], targets[1])
    return objective_value(np.array([*zip(m1, m2)])), (m1, m2)


def scalar_objective_with_gradient(spec, config, targets):
    """f(x, eps=0) -> (objective, d objective / dx) at one point x
    (n_active,), the objective sum (r^2 + eps r) over the six residuals."""
    config.validate(spec)
    n = spec.n_guides
    active = [e - 1 for e in config.active_electrodes]
    s_beta = spec.beta_sensitivity[:, active]
    s_coupling = spec.coupling_sensitivity[:, active]
    length = spec.coupling_length
    limit = spec.voltage_limit
    pair_a, pair_b = (list(pair.indices(n)) for pair in config.pairs)
    cols = pair_a + pair_b
    inputs = np.arange(4)[:, None]
    rows = np.array([pair_a, pair_a, pair_b, pair_b])
    other_rows = rows[[2, 3, 0, 1]]
    target_p = np.vstack(targets)

    def f(x, eps=0.0):
        if not np.abs(x).max() <= limit:
            raise VoltageBoundError(f"voltages {x} exceed limit +/-{limit} V")
        w, q = eigh_tridiagonal(spec.base_beta + s_beta @ x,
                                spec.base_coupling + s_coupling @ x)
        half = np.exp(-0.5j * length * w)
        q_cols = q[cols]
        u = (q * half**2) @ q_cols.T
        own, split, fid, ct, leak = input_terms(np.abs(u) ** 2, rows, other_rows,
                                                target_p)
        terms = np.stack((fid, ct, leak))
        means = 0.5 * (terms[:, 0::2] + terms[:, 1::2])
        value = objective_value(means, eps)

        d_split = 0.5 * np.sqrt(target_p / np.where(split > 0.0, split, np.inf))
        d_fid = ((d_split - 0.5 * fid[:, None])
                 / np.where(own > 0.0, own, np.inf)[:, None])
        # d (r^2 + eps r) / dr = 2 (r + eps / 2); the 2 is the gradient's
        fid_r, ct_r, leak_r = (np.concatenate((1.0 - means[:1], means[1:]))
                               + 0.5 * eps).repeat(2, axis=1)[:, :, None]
        d_powers = np.zeros((n, 4))
        d_powers[rows, inputs] = -fid_r * d_fid - leak_r
        d_powers[other_rows, inputs] = ct_r

        b = q.T @ ((d_powers * u.conj()) @ q_cols)
        g = (-1j * length) * (half[:, None] * half) * np.sinc(
            (length / (2.0 * np.pi)) * (w[:, None] - w))
        r = q @ (g * b) @ q.T
        r_off = r.diagonal(1) + r.diagonal(-1)
        return value, 2.0 * (r.diagonal().real @ s_beta + r_off.real @ s_coupling)

    return f


def sequential_restarts(spec, config, targets, restarts, seed):
    """One `scipy.optimize.minimize` result per restart, run one at a time
    from the starts `optimize_parallel_gates` draws for this seed."""
    limit = spec.voltage_limit
    n_active = len(config.active_electrodes)
    fun = scalar_objective_with_gradient(spec, config, targets)
    starts = np.random.default_rng(seed).uniform(-limit, limit,
                                                 size=(restarts, n_active))
    return [minimize(fun, x0, jac=True, method="L-BFGS-B",
                     bounds=[(-limit, limit)] * n_active,
                     options={"maxiter": compiler.MAX_ITERATIONS,
                              "ftol": 1e-14, "gtol": 1e-10})
            for x0 in starts]


def eigh_blocks(diag, offdiag, length, rows, cols):
    """U[rows][:, cols] of U = exp(-i H L) for each of B stacked tridiagonals
    diag (B, N), offdiag (B, N-1), through their eigenvectors."""
    w, q = stacked_eigh(diag, offdiag)
    q_rows = q[:, rows, :] * np.exp(-1j * length * w)[:, None, :]
    return q_rows @ q[:, cols, :].transpose(0, 2, 1)


def trf_dip_fit(scan, x0, exact_jacobian=False):
    """scipy's `OptimizeResult` for the dip fit to `scan` from x0, clipped
    into the bounds, with tolerances 1e-14 and at most 5,000 evaluations.

    The Jacobian is `dip_jacobian` or, by default, scipy's finite
    differences."""
    x, y = scan.delays, scan.counts
    lower, upper = fit_bounds(x)
    jac = (lambda p: dip_jacobian(x, *p)) if exact_jacobian else "2-point"
    return least_squares(
        lambda p: dip_model(x, *p) - y, np.clip(x0, lower, upper), jac=jac,
        bounds=(lower, upper), xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=5000,
    )
