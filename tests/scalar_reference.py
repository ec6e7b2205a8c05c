"""Scalar reference for the compiler's batched kernel and lockstep driver.

`scalar_objective_with_gradient` is the one-point f+g closure the compiler
ran before its restarts were batched, with the same Daleckii-Krein adjoint
and no batch axis.  It diagonalizes H with scipy's `eigh_tridiagonal`, a
different LAPACK driver from the package's stacked `numpy.linalg.eigh`, so
the batched-versus-scalar tests compare two independent eigensolvers.
`sequential_restarts` runs the restarts one after another through
`scipy.optimize.minimize`, as the compiler did before it stepped them in
lockstep.
"""
import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize

from rwasim import compiler
from rwasim.device import VoltageBoundError
from rwasim.subcircuits import _bhattacharyya


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
    target_p = np.vstack([(np.abs(t.matrix) ** 2).T for t in targets])

    def f(x):
        if not np.abs(x).max() <= limit:
            raise VoltageBoundError(f"voltages {x} exceed limit +/-{limit} V")
        w, q = eigh_tridiagonal(spec.base_beta + s_beta @ x,
                                spec.base_coupling + s_coupling @ x)
        half = np.exp(-0.5j * length * w)
        q_cols = q[cols]
        u = (q * half**2) @ q_cols.T
        own, split, fid, ct, leak = compiler._input_terms(
            np.abs(u) ** 2, rows, other_rows, target_p, _bhattacharyya)
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
