"""Transfer unitaries and classical light propagation.

The array unitary over a length L is U = exp(-i H L) = sum_k e^{-i w_k L}
q_k q_k^T over the eigenvalues w_k and eigenvectors q_k of the real
symmetric tridiagonal H (diagonal a, couplings e).

`eigh_tridiagonal` is the one eigenvector solver: one stacked
`numpy.linalg.eigh` over B dense H.  `unitary` forms U at one point as
(Q e^{-iwL}) Q^T from it, and `propagation_profile` and the compiler's
gradient kernel use w and Q directly.

`pair_blocks` serves the lookup map, which reads only one adjacent pair's
2x2 block of U, for a stack of B points through `calibration.pair_response`.
It needs no eigenvectors: q_ik q_jk (i <= j) is the residue of the
tridiagonal resolvent at w_k (B. N. Parlett, The Symmetric Eigenvalue
Problem, ch. 7),

    q_ik q_jk = e_i ... e_(j-1) P_i(w_k) S_(j+1)(w_k) / prod_(m != k) (w_k - w_m),

where P_i is the leading i x i minor of w - H and S_j the trailing minor
from guide j on.  So one stacked `numpy.linalg.eigvalsh`, a leading and a
trailing minor recurrence run to the pair, and one product of eigenvalue
differences give the pair's three distinct entries (U is symmetric).  The
product takes one factor at a time and the entries are formed one at a
time, so a block holds no N x N x B cube of differences and no stack of
entries.  The sum over k runs along a contiguous axis, so a row's bits do
not depend on the rest of the stack.  A map cell and the `unitary` of the
same voltages are two formulas for the same block: their eta agree within
1e-12.

The residue loses digits as eigenvalues close up: against the eigenvector
formula its error grew from about 1e-13 at gaps of 1e-3 rad/mm to 1e-12 at
1e-5 and 1e-9 at 1e-8.  A row whose smallest eigenvalue gap is below
`GAP_BOUND` (1e-4 rad/mm, where the error is about 2e-13), whose difference
product is not a normal float, or whose entries come out non-finite takes
the eigenvector formula instead, through `eigh_tridiagonal`.  A coupling of
exactly 0 splits H into blocks whose spectra can repeat; the X(x)X device
at 0 V is one.  Batch callers (the lookup map's blocks and the compiler's
lockstep restarts) bound B by `STACK_ROWS`, which they read at call time.
The lookup map also runs its blocks on up to `calibration.MAP_THREADS`
threads, each with one block's working set; since a row's bits depend on
that row alone, they do not depend on the thread count either.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .device import TridiagonalHamiltonian, count, finite_real, frozen_array, zero_based

# most rows a batch caller stacks into one eigensolve: per lookup-map cell,
# the numpy calls' fixed cost stops falling beyond about 1024 rows, where the
# stacked dense H of an 11-guide device takes about 1 MB, and a block's
# working set with its temporaries about 1.35 MB (the traced peak of one
# `calibration.pair_response` block)
STACK_ROWS = 1024
# smallest eigenvalue gap, rad/mm, at which `pair_blocks` uses the residue
# formula rather than `eigh_tridiagonal`
GAP_BOUND = 1e-4
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass(frozen=True)
class TransferUnitary:
    matrix: np.ndarray  # complex (N, N)

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_array(self.matrix, "matrix", dtype=complex))

    @property
    def n_guides(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class IntensityProfile:
    """Guide intensities sampled along the propagation direction."""

    z_points: np.ndarray  # mm, (n_steps,)
    intensities: np.ndarray  # (n_steps, N), rows sum to 1

    def __post_init__(self):
        for name in ("z_points", "intensities"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), name))


def _dense(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """(B, N, N) dense forms of B stacked tridiagonals."""
    b, n = diag.shape
    h = np.zeros((b, n * n))
    h[:, ::n + 1] = diag
    h[:, 1::n + 1] = offdiag
    h[:, n::n + 1] = offdiag
    return h.reshape(b, n, n)


def eigh_tridiagonal(diag: np.ndarray, offdiag: np.ndarray):
    """Eigenvalues w (B, N) and eigenvectors Q (B, N, N) of B stacked
    tridiagonals from finite diagonals diag (B, N) and offdiag (B, N-1),
    through one `numpy.linalg.eigh` over their dense forms."""
    return np.linalg.eigh(_dense(diag, offdiag))


def unitary(h: TridiagonalHamiltonian, length: float) -> TransferUnitary:
    """U = exp(-i H L) = (Q e^{-iwL}) Q^T, from `eigh_tridiagonal`."""
    length = finite_real(length, "length", 0.0, above=True)
    [w], [q] = eigh_tridiagonal(h.diag[None], h.offdiag[None])
    return TransferUnitary(matrix=(q * np.exp(-1j * length * w)) @ q.T)


def pair_blocks(diag: np.ndarray, offdiag: np.ndarray, length: float, i: int) -> np.ndarray:
    """The 2x2 block of U = exp(-i H L) on guides i and i + 1 (0-based) for
    each of B stacked points, as a complex (B, 2, 2) array.

    diag (B, N) and offdiag (B, N-1) are finite diagonals of each H, e.g.
    from `device.hamiltonian_diagonals`.  A row comes from the residue
    formula, or from `eigh_tridiagonal` if the formula does not serve it
    (module docstring), by arithmetic on that row alone.
    """
    length = finite_real(length, "length", 0.0, above=True)
    b, n = diag.shape
    zero_based(i + 1, n - 1, "pair")  # pair k is guides k and k + 1, 1-based
    w = np.linalg.eigvalsh(_dense(diag, offdiag)).T.copy()  # (N, B), ascending
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dprod = _difference_products(w)
        p_i, p_j = _minors(w, diag.T, offdiag.T, i + 1)
        s_j, s_i = _minors(w, diag.T[::-1], offdiag.T[::-1], n - 1 - i)
        # (i, i), (i, i+1) and (i+1, i+1): P_i S_(N-1-i), e_i P_i S_(N-2-i)
        # and P_(i+1) S_(N-2-i), S of order N - 1 - i being the minor from
        # guide i + 1 on
        u = _phase_sums(w, length, dprod, ((p_i, s_i), (p_i, s_j), (p_j, s_j)))
        u[1] *= offdiag[:, i]
        mag = np.abs(dprod)
        ok = (((mag >= _TINY) & (mag <= _HUGE)).all(axis=0)
              & (w[1:] - w[:-1] >= GAP_BOUND).all(axis=0) & np.isfinite(u).all(axis=0))
    if not ok.all():
        bad = np.flatnonzero(~ok)
        w_bad, q = eigh_tridiagonal(diag[bad], offdiag[bad])
        q = q.transpose(1, 2, 0)  # (guide, k, B)
        u[:, bad] = _phase_sums(w_bad.T, length, 1.0,
                                ((q[i], q[i]), (q[i], q[i + 1]), (q[i + 1], q[i + 1])))
    return u[[0, 1, 1, 2]].T.reshape(b, 2, 2)


def _difference_products(w: np.ndarray) -> np.ndarray:
    """(N, B) products over m != k of w_k - w_m for w (N, B), taken one
    factor at a time for m = 0 ... N - 1 (1.0 at m = k): the order of
    `np.multiply.reduce` over the middle axis of the (N, N, B) differences,
    which are never formed."""
    prod, diff = np.ones_like(w), np.empty_like(w)
    for m in range(w.shape[0]):
        np.subtract(w, w[m], out=diff)
        diff[m] = 1.0
        prod *= diff
    return prod


def _minors(w: np.ndarray, a: np.ndarray, e: np.ndarray, order: int):
    """Minors of w_k - H of orders order - 1 and order >= 1 along one chain,
    each (N, B) for w (N, B): the chain's diagonal a (N, B) and couplings
    e (N-1, B) run in its own guide order, from guide 1 for the leading
    minors and from guide N down for the trailing ones.  They come from the
    three-term recurrence x[m + 1] = (-e_(m-1)^2) x[m - 1] + (w - a_m) x[m],
    from x[0] = 1 and x[1] = w - a_0."""
    prev, cur = np.ones_like(w), w - a[0]
    for m in range(1, order):
        prev, cur = cur, (e[m - 1] * -e[m - 1]) * prev + (w - a[m]) * cur
    return prev, cur


def _phase_sums(w, length, scale, factors):
    """(M, B) sum_k e^(-i L w_k) x_k y_k / scale_k over the leading axis k
    of w (N, B) and of scale ((N, B) or scalar), for each of M pairs (x, y)
    of (N, B) factors.  The entries are formed one at a time, each as B rows
    of N contiguous terms."""
    n, b = w.shape
    phase = np.multiply(-1j * length, w.T, out=np.empty((b, n), dtype=complex))
    np.divide(np.exp(phase, out=phase), np.transpose(scale), out=phase)
    num, terms = np.empty((b, n)), np.empty((b, n), dtype=complex)
    sums = np.empty((len(factors), b), dtype=complex)
    for row, (x, y) in zip(sums, factors):
        np.multiply(phase, np.multiply(x.T, y.T, out=num), out=terms)
        # summed along the contiguous last axis, where the order of additions
        # depends only on N, so an entry's bits do not depend on the call
        np.add.reduce(terms, axis=1, out=row)
    return sums


def output_power(u: TransferUnitary, input_guide: int) -> np.ndarray:
    """|U[m, j]|^2 over output guides m for 1-based input guide j."""
    return np.abs(u.matrix[:, zero_based(input_guide, u.n_guides, "input_guide")]) ** 2


def propagation_profile(
    h: TridiagonalHamiltonian,
    length: float,
    n_steps: int = 200,
    input_guide: int = 1,
) -> IntensityProfile:
    """Intensity in every guide at n_steps points from z=0 to z=L."""
    n_steps = count(n_steps, "n_steps", 2)
    length = finite_real(length, "length", 0.0, above=True)
    j = zero_based(input_guide, h.n_guides, "input_guide")
    [w], [q] = eigh_tridiagonal(h.diag[None], h.offdiag[None])
    z = np.linspace(0.0, length, n_steps)
    c = q[j, :]  # expansion of the input state in eigenmodes
    phases = np.exp(-1j * np.outer(z, w))  # (n_steps, N)
    amps = (phases * c) @ q.T
    return IntensityProfile(z_points=z, intensities=np.abs(amps) ** 2)


# -- CSV export --------------------------------------------------------------

def profile_to_csv(profile: IntensityProfile, path) -> None:
    """Header `z_mm, P1..PN`, one row per z sample."""
    n = profile.intensities.shape[1]
    rows = np.column_stack((profile.z_points, profile.intensities))
    write_csv(path, ["z_mm"] + [f"P{m}" for m in range(1, n + 1)],
              [rows.ravel().tolist()])


def unitary_to_csv(u: TransferUnitary, path) -> None:
    """Row-major interleaved real/imag parts: re_1_1, im_1_1, re_1_2, ..."""
    n = u.n_guides
    header = [f"{part}_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)
              for part in ("re", "im")]
    cells = np.column_stack((u.matrix.real.ravel(), u.matrix.imag.ravel()))
    write_csv(path, header, [cells.ravel().tolist()])


def powers_to_csv(powers: np.ndarray, path) -> None:
    """Single-row power distribution with header `P1..PN`."""
    write_csv(path, [f"P{m}" for m in range(1, powers.size + 1)], [powers.tolist()])
