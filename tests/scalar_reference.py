"""Scalar references for the compiler's batched kernel and lockstep driver.

`full_u_evaluate` scores a voltage vector the way the compiler reported its
results before the batched kernel scored every point: it masks the inactive
electrodes, builds the full U through `build_hamiltonian` and `unitary`, and
checks every fidelity row through `distribution_fidelity`.  Targets are the
compiler's gate splits, one row per input.

`scalar_objective_with_gradient` is the one-point f+g closure the compiler
ran before its restarts were batched, with the same Daleckii-Krein adjoint
and no batch axis.  It diagonalizes H with scipy's `eigh_tridiagonal`, a
different LAPACK driver from the package's stacked `numpy.linalg.eigh`, so
the batched-versus-scalar tests compare two independent eigensolvers.
`sequential_restarts` runs the restarts one after another through
`scipy.optimize.minimize`, as the compiler did before it stepped them in
lockstep.

`trf_dip_fit` fits the HOM dip model with scipy's trust-region reflective
`least_squares`, within the bounds and tolerances `fit_hom_dip` used while it
ran that solver.
"""
import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import least_squares, minimize

from rwasim import compiler
from rwasim.device import VoltageBoundError, VoltageConfig, build_hamiltonian
from rwasim.evolution import unitary
from rwasim.photon_stats import dip_jacobian, dip_model
from rwasim.subcircuits import distribution_fidelity


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
    value = compiler._objective_value(*zip(m1, m2))
    return float(value), (m1, m2)


def scalar_objective_with_gradient(spec, config, targets):
    """f(x) -> (objective, d objective / dx) at one point x (n_active,)."""
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

    def f(x):
        if not np.abs(x).max() <= limit:
            raise VoltageBoundError(f"voltages {x} exceed limit +/-{limit} V")
        w, q = eigh_tridiagonal(spec.base_beta + s_beta @ x,
                                spec.base_coupling + s_coupling @ x)
        half = np.exp(-0.5j * length * w)
        q_cols = q[cols]
        u = (q * half**2) @ q_cols.T
        own, split, fid, ct, leak = compiler._input_terms(
            np.abs(u) ** 2, rows, other_rows, target_p)
        terms = np.stack((fid, ct, leak))
        means = 0.5 * (terms[:, 0::2] + terms[:, 1::2])
        value = float(compiler._objective_value(*means))

        d_split = 0.5 * np.sqrt(target_p / np.where(split > 0.0, split, np.inf))
        d_fid = ((d_split - 0.5 * fid[:, None])
                 / np.where(own > 0.0, own, np.inf)[:, None])
        fid_m, ct_m, leak_m = means.repeat(2, axis=1)[:, :, None]
        d_powers = np.zeros((n, 4))
        d_powers[rows, inputs] = -(1.0 - fid_m) * d_fid - leak_m
        d_powers[other_rows, inputs] = ct_m

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


def trf_dip_fit(scan, x0, exact_jacobian=False):
    """scipy's `OptimizeResult` for the dip fit to `scan` from x0, clipped
    into the bounds, with tolerances 1e-14 and at most 5,000 evaluations.

    The Jacobian is `dip_jacobian` or, by default, scipy's finite
    differences."""
    x, y = scan.delays, scan.counts
    lower = [-np.inf, -np.inf, 0.0, x[0], 0.5 * np.diff(x).min()]
    upper = [np.inf, np.inf, 1.0, x[-1], 0.5 * (x[-1] - x[0])]
    jac = (lambda p: dip_jacobian(x, *p)) if exact_jacobian else "2-point"
    return least_squares(
        lambda p: dip_model(x, *p) - y, np.clip(x0, lower, upper), jac=jac,
        bounds=(lower, upper), xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=5000,
    )
