"""Subcircuits, their leakage and reflectivity, and gate power splits.

A subcircuit is a pair of adjacent guides operated as a tunable directional
coupler once its boundary couplings are driven to zero.  Its reflectivity
has one rule, `reflectivity_and_leakage`, and leakage one, `_leakage`.  A gate
is judged by its post-selected output power split alone, and `coupler_split`
is the one rule for an eta-coupler's ideal split: the compiler's gate
targets and the truth tables both take it, and `GATE_ETAS` is the one table
of gate etas.  Gate truth tables follow the classical balanced-input scheme:
half the power enters each subcircuit's selected guide, each subcircuit's
post-selected output distribution is taken over its own two guides, and the
joint 4x4 table is the product of the two single-qubit distributions.  The
compiler's per-input fidelity, crosstalk and leakage fractions are formed
inside `compiler.objective_with_gradient`, the one kernel that scores every
compiler point; `distribution_fidelity` is the checked fidelity for truth
tables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import finite_real, frozen_array, zero_based
from .evolution import TransferUnitary


@dataclass(frozen=True)
class SubcircuitPair:
    """Adjacent guide pair (k, k+1), 1-based.  `lower` is checked only by
    `indices`, against the device it is used on."""

    lower: int

    @property
    def guides(self) -> tuple[int, int]:
        return (self.lower, self.lower + 1)

    def indices(self, n_guides: int) -> tuple[int, int]:
        """0-based indices of both guides; IndexError names the pair, by its
        lower guide, unless `zero_based` takes it as one of n_guides - 1."""
        i = zero_based(self.lower, n_guides - 1, "pair")
        return (i, i + 1)


def check_rows_normalized(name: str, rows: np.ndarray) -> None:
    """Raise ValueError unless each row (last axis) sums to 1 within 1e-6."""
    sums = np.sum(rows, axis=-1)
    if (np.abs(sums - 1.0) > 1e-6).any():
        raise ValueError(f"{name} sums to {sums}, not normalized")


def _leakage(p_0, p_1):
    """100 (1 - p_0 - p_1) percent, elementwise, for the powers an input keeps
    in the pair's two guides: a power above 1 leaks nothing, and the result
    is clipped into [0, 100] against rounding."""
    return np.minimum(np.maximum(
        100.0 * (1.0 - np.minimum(p_0, 1.0) - np.minimum(p_1, 1.0)), 0.0), 100.0)


def leakage(powers, pair: SubcircuitPair) -> float:
    """Percentage of a normalized power vector escaping the pair's guides."""
    p = np.asarray(powers, dtype=float)
    check_rows_normalized("power vector", p)
    i, j = pair.indices(p.size)
    return float(_leakage(p[i], p[j]))


def reflectivity_and_leakage(p):
    """(eta, leak_in1, leak_in2) from p[..., m, n], the power in the pair's
    guide m for light entering its guide n, over any leading axes.

    eta = r / (1 + r), r = sqrt(p_00 p_11 / (p_10 p_01)), which column
    renormalization (post-selection) leaves unchanged; exactly 1 where no
    power crosses (p_10 or p_01 is 0).  r is formed from mantissas and binary
    exponents apart, so it keeps the formula's bits wherever its products and
    quotient are normal doubles and stays finite for any non-negative finite
    block.  Leakage is `_leakage` of p_0n and p_1n.
    """
    p = np.asarray(p, dtype=float)
    m, e = np.frexp(p)  # p = m 2^e, 0.5 <= m < 1 (m = e = 0 at p = 0)
    crosses = (p[..., 1, 0] != 0.0) & (p[..., 0, 1] != 0.0)
    q = m[..., 0, 0] * m[..., 1, 1] / np.where(crosses, m[..., 1, 0] * m[..., 0, 1],
                                               1.0)
    k = e[..., 0, 0] + e[..., 1, 1] - e[..., 1, 0] - e[..., 0, 1]
    # r = sqrt(q 2^k); from r = 2^64 on, r / (1 + r) rounds to 1 anyway
    r = np.ldexp(np.sqrt(np.ldexp(q, k % 2)), np.minimum(k // 2, 64))
    eta = np.where(crosses, r / (1.0 + r), 1.0)
    leak = _leakage(p[..., 0, :], p[..., 1, :])
    return eta, leak[..., 0], leak[..., 1]


def effective_reflectivity(u: TransferUnitary, pair: SubcircuitPair) -> float:
    """Reflectivity of the pair's post-selected 2x2 block of U; 1 where no
    power crosses the pair."""
    i, j = pair.indices(u.n_guides)
    block = u.matrix[i:j + 1, i:j + 1]
    return float(reflectivity_and_leakage(block.real**2 + block.imag**2)[0])


@dataclass(frozen=True)
class TruthTable:
    """4x4 power map over two path-encoded qubits.

    Rows are the inputs |00>, |01>, |10>, |11>; columns the same encoding on
    the outputs.  Each row is normalized over the two subcircuits' guides.
    """

    table: np.ndarray

    def __post_init__(self):
        t = frozen_array(self.table, "truth table", (4, 4), ValueError)
        if np.any(t < 0):
            raise ValueError("truth table entries must be non-negative")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("truth table rows must sum to 1 within 1e-12")
        object.__setattr__(self, "table", t)


GATE_ETAS = {"X": 0.0, "H": 0.5, "I": 1.0}


def coupler_split(eta: float) -> np.ndarray:
    """Ideal output power split of an eta-coupler, one row per input port:
    input k keeps eta in its own guide and sends 1 - eta across."""
    return np.array([[eta, 1.0 - eta], [1.0 - eta, eta]])


def gate_truth_table(eta_a: float, eta_b: float) -> TruthTable:
    """Ideal parallel-gate truth table for two decoupled eta-couplers."""
    return TruthTable(table=np.kron(coupler_split(finite_real(eta_a, "eta_a", 0.0, 1.0)),
                                    coupler_split(finite_real(eta_b, "eta_b", 0.0, 1.0))))


def distribution_fidelity(target_row, measured_row):
    """Bhattacharyya coefficient sum_j sqrt(P^T_j P^M_j) between two rows.

    Stacked rows (outcomes along the last axis) give one coefficient per row.
    """
    t = np.asarray(target_row, dtype=float)
    m = np.asarray(measured_row, dtype=float)
    if t.shape != m.shape:
        raise ValueError(f"row shapes differ: {t.shape} vs {m.shape}")
    check_rows_normalized("target row", t)
    check_rows_normalized("measured row", m)
    fid = _bhattacharyya(t, m)
    return float(fid) if fid.ndim == 0 else fid


def _bhattacharyya(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_j sqrt(t_j m_j) along the last axis, for rows known to be normalized."""
    return np.sqrt(t * m).sum(axis=-1)


def average_fidelity(targets: TruthTable, measured: TruthTable) -> float:
    """Arithmetic mean of the per-input row fidelities."""
    return float(np.mean(distribution_fidelity(targets.table, measured.table)))
