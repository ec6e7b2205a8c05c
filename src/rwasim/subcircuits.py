"""Subcircuit decoupling, leakage/crosstalk metrics, and two-mode gates.

A subcircuit is a pair of adjacent guides operated as a tunable directional
coupler once the couplings at its boundary are driven to zero.  Gate truth
tables follow the classical balanced-input scheme: half the power enters
each subcircuit's selected guide, each subcircuit's post-selected output
distribution is taken over its own two guides, and the joint 4x4 table is
the product of the two single-qubit distributions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import TridiagonalHamiltonian
from .evolution import TransferUnitary
from .photon_stats import reflectivity_from_powers

STATE_LABELS = ("00", "01", "10", "11")


@dataclass(frozen=True)
class SubcircuitPair:
    """Adjacent guide pair (k, k+1), 1-based."""

    lower: int

    def __post_init__(self):
        if self.lower < 1:
            raise ValueError(f"pair lower guide must be >= 1, got {self.lower}")

    @property
    def guides(self) -> tuple[int, int]:
        return (self.lower, self.lower + 1)

    def indices(self, n_guides: int) -> tuple[int, int]:
        """0-based indices, validated against the array size."""
        if self.lower + 1 > n_guides:
            raise IndexError(
                f"pair ({self.lower}, {self.lower + 1}) exceeds {n_guides} guides"
            )
        return (self.lower - 1, self.lower)


@dataclass(frozen=True)
class TwoModeUnitary:
    """R_z(phi) * U_DC(eta): tunable coupler followed by a phase shifter."""

    matrix: np.ndarray
    eta: float
    phi: float


def two_mode_unitary(eta: float, phi: float = 0.0) -> TwoModeUnitary:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    t = math.sqrt(eta)
    r = math.sqrt(1.0 - eta)
    ph = np.exp(1j * phi)
    mat = np.array([[t, 1j * r], [1j * ph * r, ph * t]])
    return TwoModeUnitary(matrix=mat, eta=float(eta), phi=float(phi))


def _check_normalized(powers: np.ndarray, tol: float = 1e-6) -> None:
    total = float(np.sum(powers))
    if abs(total - 1.0) > tol:
        raise ValueError(f"powers sum to {total}, not normalized within {tol}")


def leakage(powers, pair: SubcircuitPair) -> float:
    """Percentage of power escaping the pair's own guides."""
    p = np.asarray(powers, dtype=float)
    _check_normalized(p)
    i, j = pair.indices(p.size)
    return 100.0 * float(np.sum(p) - p[i] - p[j])


def crosstalk(powers, own_pair: SubcircuitPair, other_pair: SubcircuitPair) -> float:
    """Percentage of power landing in another subcircuit's guides."""
    p = np.asarray(powers, dtype=float)
    _check_normalized(p)
    own = set(own_pair.guides)
    other = set(other_pair.guides)
    if own & other:
        raise ValueError(f"pairs {own_pair.guides} and {other_pair.guides} overlap")
    i, j = other_pair.indices(p.size)
    own_pair.indices(p.size)
    return 100.0 * float(p[i] + p[j])


def decouple_blocks(
    h: TridiagonalHamiltonian, boundaries
) -> TridiagonalHamiltonian:
    """Zero the couplings C_{k,k+1} for every 1-based k in `boundaries`."""
    offdiag = h.offdiag.copy()
    for k in boundaries:
        if not 1 <= k <= offdiag.size:
            raise IndexError(f"boundary coupling {k} out of range 1..{offdiag.size}")
        offdiag[k - 1] = 0.0
    return TridiagonalHamiltonian(diag=h.diag, offdiag=offdiag)


def post_selected_two_mode_unitary(
    u: TransferUnitary, pair: SubcircuitPair
) -> tuple[np.ndarray, np.ndarray]:
    """2x2 submatrix on the pair plus per-input success probability.

    The submatrix is returned unnormalized; success probability per input
    column is its squared column norm.  Post-selection renormalizes
    downstream probabilities.
    """
    i, j = pair.indices(u.n_guides)
    sub = u.matrix[np.ix_([i, j], [i, j])]
    success = np.sum(np.abs(sub) ** 2, axis=0)
    return sub, success


def effective_reflectivity(u: TransferUnitary, pair: SubcircuitPair) -> float:
    """Reflectivity of the pair's post-selected action.

    Feeds the |submatrix|^2 powers into the power-ratio estimator; the
    post-selection renormalization cancels in the ratio, so the value stays
    meaningful under leakage.
    """
    sub, _ = post_selected_two_mode_unitary(u, pair)
    p = np.abs(sub) ** 2
    # P_mn = power at guide n with input in guide m
    return reflectivity_from_powers(p[0, 0], p[1, 0], p[0, 1], p[1, 1])


@dataclass(frozen=True)
class TruthTable:
    """4x4 power map over two path-encoded qubits.

    Rows are the inputs |00>, |01>, |10>, |11>; columns the same encoding on
    the outputs.  Each row is normalized over the two subcircuits' guides.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != (4, 4):
            raise ValueError(f"truth table must be 4x4, got {t.shape}")
        if np.any(t < 0):
            raise ValueError("truth table entries must be non-negative")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("truth table rows must sum to 1 within 1e-12")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("in,out00,out01,out10,out11\n")
            for label, row in zip(STATE_LABELS, self.table):
                fh.write(label + "," + ",".join(f"{x:.17g}" for x in row) + "\n")


def _coupler_distribution(eta: float, input_bit: int) -> np.ndarray:
    """Output power split of an eta-coupler for input port 0 or 1."""
    if input_bit == 0:
        return np.array([eta, 1.0 - eta])
    return np.array([1.0 - eta, eta])


def gate_truth_table(eta_a: float, eta_b: float) -> TruthTable:
    """Ideal parallel-gate truth table for two decoupled eta-couplers."""
    for name, eta in (("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {eta}")
    rows = []
    for a_bit in (0, 1):
        for b_bit in (0, 1):
            pa = _coupler_distribution(eta_a, a_bit)
            pb = _coupler_distribution(eta_b, b_bit)
            rows.append(np.outer(pa, pb).ravel())
    return TruthTable(table=np.array(rows))


def post_selected_distribution(
    u: TransferUnitary, pair: SubcircuitPair, input_bit: int
) -> np.ndarray:
    """Post-selected power split of a subcircuit for input on guide k+bit."""
    i, j = pair.indices(u.n_guides)
    col = (i, j)[input_bit]
    p = np.abs(u.matrix[[i, j], col]) ** 2
    total = p.sum()
    if total == 0.0:
        raise ZeroDivisionError(
            f"all power leaked out of pair {pair.guides}; post-selection undefined"
        )
    return p / total


def truth_table_from_unitary(
    u: TransferUnitary, pair_a: SubcircuitPair, pair_b: SubcircuitPair
) -> TruthTable:
    """Truth table of a full device unitary under balanced classical inputs."""
    rows = []
    for a_bit in (0, 1):
        for b_bit in (0, 1):
            pa = post_selected_distribution(u, pair_a, a_bit)
            pb = post_selected_distribution(u, pair_b, b_bit)
            rows.append(np.outer(pa, pb).ravel())
    return TruthTable(table=np.array(rows))


def distribution_fidelity(target_row, measured_row):
    """Bhattacharyya coefficient sum_j sqrt(P^T_j P^M_j) between two rows.

    Stacked rows (outcomes along the last axis) give one coefficient per row.
    """
    t = np.asarray(target_row, dtype=float)
    m = np.asarray(measured_row, dtype=float)
    if t.shape != m.shape:
        raise ValueError(f"row shapes differ: {t.shape} vs {m.shape}")
    for name, row in (("target", t), ("measured", m)):
        sums = row.sum(axis=-1)
        if (np.abs(sums - 1.0) > 1e-6).any():
            raise ValueError(f"{name} row sums to {sums}, not normalized")
    fid = _bhattacharyya(t, m)
    return float(fid) if fid.ndim == 0 else fid


def _bhattacharyya(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_j sqrt(t_j m_j) along the last axis, for rows known to be normalized."""
    return np.sqrt(t * m).sum(axis=-1)


def average_fidelity(targets: TruthTable, measured: TruthTable) -> float:
    """Arithmetic mean of the per-input row fidelities."""
    return float(np.mean(distribution_fidelity(targets.table, measured.table)))
