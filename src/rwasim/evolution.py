"""Transfer unitaries and classical light propagation.

The array unitary over a length L is U = exp(-i H L) = sum_k e^{-i w_k L}
q_k q_k^T over the eigenvalues w_k and eigenvectors q_k of the real
symmetric tridiagonal H (diagonal a, couplings e).

`unitary_blocks` is the one kernel from H to U.  It forms only the rows and
columns a caller asks for, for a stack of B points, and needs no
eigenvectors: q_ik q_jk (i <= j) is the residue of the tridiagonal resolvent
at w_k (B. N. Parlett, The Symmetric Eigenvalue Problem, ch. 7),

    q_ik q_jk = e_i ... e_(j-1) P_i(w_k) S_(j+1)(w_k) / prod_(m != k) (w_k - w_m),

where P_i is the leading i x i minor of w - H and S_j the trailing minor
from guide j on.  So one stacked `numpy.linalg.eigvalsh`, the two minor
recurrences run only as deep as the rows and columns need, and one product
of eigenvalue differences give each entry; U is symmetric, so each guide
pair is formed once, and the sum over k runs along a contiguous axis, so an
entry's bits do not depend on what else the call asks for.  `unitary` is its full block at B = 1, and
`calibration.pair_response` reads a pair's 2x2 block for a block of lookup
map cells, so a map cell and the `unitary` of the same voltages agree bit
for bit.

The residue loses digits as eigenvalues close up: against the eigenvector
formula its error grew from about 1e-13 at gaps of 1e-3 rad/mm to 1e-12 at
1e-5 and 1e-9 at 1e-8.  A row whose smallest eigenvalue gap is below
`GAP_BOUND` (1e-4 rad/mm, where the error is about 2e-13), whose difference
product is not a normal float, or whose entries come out non-finite takes
the eigenvector formula instead, through `eigh_tridiagonal`: one stacked
`numpy.linalg.eigh`, which also serves `propagation_profile` and the
compiler's gradient kernel, the callers that need Q itself.  A coupling of
exactly 0 splits H into blocks whose spectra can repeat; the X(x)X device
at 0 V is one.  Batch callers (the lookup map's blocks through
`calibration.pair_response`, and the compiler's lockstep restarts) bound B
by `STACK_ROWS`, which they read at call time.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .device import TridiagonalHamiltonian, frozen_array

# most rows a batch caller stacks into one eigensolve
STACK_ROWS = 256
# smallest eigenvalue gap, rad/mm, at which `unitary_blocks` uses the
# residue formula rather than `eigh_tridiagonal`
GAP_BOUND = 1e-4
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass(frozen=True)
class TransferUnitary:
    matrix: np.ndarray  # complex (N, N)
    length: float  # mm

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


def _checked_length(length) -> float:
    if not 0 < length < math.inf:
        raise ValueError(f"length must be positive and finite, got {length}")
    return float(length)


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
    """U = exp(-i H L): the full block of `unitary_blocks` at one point."""
    guides = np.arange(h.n_guides)
    u = unitary_blocks(h.diag[None], h.offdiag[None], length, guides, guides)
    return TransferUnitary(matrix=u[0], length=float(length))


def unitary_blocks(
    diag: np.ndarray, offdiag: np.ndarray, length: float, rows, cols
) -> np.ndarray:
    """U[rows][:, cols] of U = exp(-i H L) for each of B stacked points.

    diag (B, N) and offdiag (B, N-1) are finite diagonals of each H, e.g.
    from `device.hamiltonian_diagonals`; rows and cols are 0-based guide
    indices.  Returns a complex (B, len(rows), len(cols)) array.  Each
    entry comes from the residue formula, or from `eigh_tridiagonal` for a
    row the formula does not serve (module docstring), by the same
    arithmetic whatever else the call asks for.
    """
    length = _checked_length(length)
    b, n = diag.shape
    rows = tuple(np.asarray(rows, dtype=np.intp).tolist())
    cols = tuple(np.asarray(cols, dtype=np.intp).tolist())
    lo, hi, trail, bounds, entries, depths = _entry_plan(n, rows, cols)
    w = np.linalg.eigvalsh(_dense(diag, offdiag)).T.copy()  # (N, B), ascending
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dprod = _difference_products(w)
        # q_ik q_jk dprod_k = P_lo S_(hi+1) times the couplings from lo to hi
        x = _minors(w, diag, offdiag, *depths)
        u = _phase_sums(w, length, dprod, x[lo, 0] * x[trail, 1])
        e = np.ones((n, b))
        e[:-1] = offdiag.T
        u *= np.multiply.reduceat(e, bounds, axis=0)[::2]
        mag = np.abs(dprod)
        ok = np.logical_and.reduce(np.concatenate((
            mag >= _TINY, mag <= _HUGE, w[1:] - w[:-1] >= GAP_BOUND, np.isfinite(u))))
    if not ok.all():
        bad = np.flatnonzero(~ok)
        w_bad, q = eigh_tridiagonal(diag[bad], offdiag[bad])
        q = q.transpose(1, 2, 0)  # (guide, k, B)
        u[:, bad] = _phase_sums(w_bad.T, length, 1.0, q[lo] * q[hi])
    return u[entries].reshape(len(rows), len(cols), b).transpose(2, 0, 1)


@functools.lru_cache(maxsize=64)
def _entry_plan(n: int, rows: tuple, cols: tuple):
    """Which entries `unitary_blocks` forms for U[rows][:, cols] of an
    N-guide array.  U is symmetric, so it forms each guide pair lo <= hi
    once, in ascending order: their lo, hi, the order N - 1 - hi of the
    trailing minor from guide hi + 1 on, and the `multiply.reduceat` bounds
    of the couplings e_lo ... e_(hi-1) between them (a diagonal entry's span
    starts at the 1 appended after e_(N-2) and ends there).  `entries`
    takes the pairs to U[rows][:, cols] in row-major order, and `depths`
    are the deepest leading and trailing minors they need."""
    guides = np.arange(n)
    rows, cols = guides[list(rows)], guides[list(cols)]  # IndexError if out of range
    lo = np.minimum(rows[:, None], cols).ravel()
    hi = np.maximum(rows[:, None], cols).ravel()
    pairs, entries = np.unique(lo * n + hi, return_inverse=True)
    lo, hi = np.divmod(pairs, n)
    bounds = np.empty(2 * lo.size, dtype=np.intp)
    bounds[::2] = np.where(lo < hi, lo, n - 1)
    bounds[1::2] = hi
    trail = (n - 1) - hi
    plan = tuple(frozen_array(a, "entry plan", dtype=np.intp)
                 for a in (lo, hi, trail, bounds, entries))
    return plan + ((int(lo.max()), int(trail.max())),)


def _difference_products(w: np.ndarray) -> np.ndarray:
    """(N, B) products over m != k of w_k - w_m for w (N, B).  Formed here
    so that the (N, N, B) differences are freed before `_minors` builds its
    tables, which keeps a 256-row block's peak memory down."""
    n, b = w.shape
    diff = w[:, None] - w
    diff.reshape(n * n, b)[::n + 1] = 1.0
    return np.multiply.reduce(diff, axis=1)


def _minors(w: np.ndarray, diag: np.ndarray, offdiag: np.ndarray, lead: int, trail: int):
    """(D + 1, 2, N, B) minors of w_k - H for w (N, B), D = max(lead, trail):
    [m, 0] is the leading minor of order m, for m <= lead, and [m, 1] the
    trailing one of order m, from guide N - m on, for m <= trail.

    Each comes from the three-term recurrence
    x[m + 1] = (w - a_m) x[m] - e_(m-1)^2 x[m - 1], over the guides in order
    for the leading minors and in reverse for the trailing ones.  A step is
    two ufunc calls over a table of both chains' coefficients; once the
    shallower chain has its orders, the deeper one runs on alone.
    """
    n, b = w.shape
    depth = max(lead, trail)
    x = np.empty((depth + 1, 2, n, b))
    x[0] = 1.0
    # coef[m, :, c] = (-e_(m-1)^2, w - a_m) of chain c, in its own guide order
    coef = np.empty((depth, 2, 2, n, b))
    chains = ((diag.T, offdiag.T, lead), (diag.T[::-1], offdiag.T[::-1], trail))
    for c, (a, e, order) in enumerate(chains):
        links = max(order - 1, 0)
        np.subtract(w, a[:order, None], out=coef[:order, 1, c])
        np.multiply(e[:links, None], -e[:links, None], out=coef[1:links + 1, 0, c])
    x[1:2] = coef[:1, 1]
    t = np.empty((2, 2, n, b))
    both, deeper = min(lead, trail), int(trail > lead)
    for (k, y, s), steps in (((coef, x, t), range(1, both)),
                             ((coef[:, :, deeper], x[:, deeper], t[:, deeper]),
                              range(max(both, 1), depth))):
        for m in steps:
            np.multiply(k[m], y[m - 1:m + 1], out=s)
            np.add(s[0], s[1], out=y[m + 1])
    return x


def _phase_sums(w, length, scale, v):
    """(M, B) sum_k e^(-i L w_k) v_k / scale_k over the leading axis k of
    w (N, B) and of scale ((N, B) or scalar), and the middle axis of v
    (M, N, B)."""
    v = v.swapaxes(1, 2)
    terms = np.empty(v.shape, dtype=complex)  # (M, B, N)
    np.multiply((np.exp(-1j * length * w) / scale).T, v, out=terms)
    # summed along the contiguous last axis, where the order of additions
    # depends only on N, so an entry's bits do not depend on the call
    return np.add.reduce(terms, axis=2)


def output_power(u: TransferUnitary, input_guide: int) -> np.ndarray:
    """|U[m, j]|^2 over output guides m for 1-based input guide j."""
    n = u.n_guides
    if not 1 <= input_guide <= n:
        raise IndexError(f"input_guide {input_guide} out of range 1..{n}")
    return np.abs(u.matrix[:, input_guide - 1]) ** 2


def propagation_profile(
    h: TridiagonalHamiltonian,
    length: float,
    n_steps: int = 200,
    input_guide: int = 1,
) -> IntensityProfile:
    """Intensity in every guide at n_steps points from z=0 to z=L."""
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps}")
    length = _checked_length(length)
    n = h.n_guides
    if not 1 <= input_guide <= n:
        raise IndexError(f"input_guide {input_guide} out of range 1..{n}")
    [w], [q] = eigh_tridiagonal(h.diag[None], h.offdiag[None])
    z = np.linspace(0.0, length, n_steps)
    c = q[input_guide - 1, :]  # expansion of the input state in eigenmodes
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
