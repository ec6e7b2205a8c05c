"""Transfer unitaries and classical light propagation.

The array unitary over a length L is exp(-i H L).  Because H is real
symmetric tridiagonal we diagonalize it (H = Q diag(w) Q^T) and exponentiate
the eigenvalues, which keeps U unitary to rounding and lets a whole z-sweep
reuse one decomposition.

`eigh_tridiagonal` is the one eigensolver: it stacks the dense H of B points
and runs one `numpy.linalg.eigh` over the stack (B = 1 for a single point).
`unitary_blocks` builds on it and forms only the requested rows and columns
of each U, (Q[rows] e^{-iwL}) Q[cols]^T, so a caller that reads a 2x2 block
never builds the N x N matrix; `unitary` is its full block at B = 1, and
`propagation_profile` and the compiler's gradient kernel use w and Q
directly.  The stack costs 2 B N^2 floats for H and Q, so batch callers
bound B (the lookup map uses blocks of 256).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .device import TridiagonalHamiltonian, frozen_array


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


def eigh_tridiagonal(diag: np.ndarray, offdiag: np.ndarray):
    """Eigenvalues w (B, N) and eigenvectors Q (B, N, N) of B stacked
    tridiagonals from finite diagonals diag (B, N) and offdiag (B, N-1),
    through one `numpy.linalg.eigh` over their dense forms."""
    b, n = diag.shape
    h = np.zeros((b, n * n))
    h[:, ::n + 1] = diag
    h[:, 1::n + 1] = offdiag
    h[:, n::n + 1] = offdiag
    return np.linalg.eigh(h.reshape(b, n, n))


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
    indices.  Returns a complex (B, len(rows), len(cols)) array.
    """
    if not length > 0:
        raise ValueError(f"length must be positive, got {length}")
    w, q = eigh_tridiagonal(diag, offdiag)
    q_rows = q[:, rows, :] * np.exp(-1j * length * w)[:, None, :]
    return q_rows @ q[:, cols, :].transpose(0, 2, 1)


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
    if not length > 0:
        raise ValueError(f"length must be positive, got {length}")
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
