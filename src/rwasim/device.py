"""Programmable waveguide array device model.

An array of N evanescently coupled waveguides is driven by E electrodes.
The per-length dynamics are captured by a real symmetric tridiagonal
Hamiltonian whose diagonal holds the propagation constants beta_n and whose
off-diagonal holds the nearest-neighbour couplings C_{n,n+1}.  Electrode
voltages shift both linearly through user-supplied sensitivity matrices.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import yaml

N_GUIDES_DEFAULT = 11
N_ELECTRODES_DEFAULT = 22
COUPLING_LENGTH_DEFAULT = 24.0  # mm
VOLTAGE_LIMIT_DEFAULT = 10.0  # V

# Declared stand-ins for the unpublished chip parameters: uniform coupling
# with a linear detuning ramp across the array.
BASE_BETA_OFFSET = 3.1  # rad/mm
BASE_BETA_RAMP = 0.10  # rad/mm per guide
BASE_COUPLING = 0.14  # rad/mm

# Default electrode assignment: odd electrode 2n-1 sits over guide n and
# tunes beta_n; even electrode 2n sits between guides n, n+1 and tunes
# C_{n,n+1}.  Gains are declared defaults, not measured values.
BETA_GAIN = 0.02  # rad/(mm V)
COUPLING_GAIN = -0.01  # rad/(mm V)


class DeviceSpecError(ValueError):
    """Device description is missing fields or dimensionally inconsistent."""


class VoltageBoundError(ValueError):
    """An electrode voltage amplitude exceeds the device limit."""


def _as_float_array(x, name: str) -> np.ndarray:
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DeviceSpecError(f"{name}: not numeric ({exc})") from exc
    if not np.all(np.isfinite(arr)):
        raise DeviceSpecError(f"{name}: contains non-finite entries")
    return arr


def default_base_beta(n_guides: int) -> np.ndarray:
    return BASE_BETA_OFFSET + BASE_BETA_RAMP * np.arange(n_guides)


def default_base_coupling(n_guides: int) -> np.ndarray:
    return np.full(n_guides - 1, BASE_COUPLING)


def default_beta_sensitivity(n_guides: int, n_electrodes: int) -> np.ndarray:
    s = np.zeros((n_guides, n_electrodes))
    for n in range(n_guides):
        e = 2 * n  # 0-based index of 1-based electrode 2n-1
        if e < n_electrodes:
            s[n, e] = BETA_GAIN
    return s


def default_coupling_sensitivity(n_guides: int, n_electrodes: int) -> np.ndarray:
    s = np.zeros((n_guides - 1, n_electrodes))
    for n in range(n_guides - 1):
        e = 2 * n + 1  # 0-based index of 1-based electrode 2n
        if e < n_electrodes:
            s[n, e] = COUPLING_GAIN
    return s


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Real symmetric tridiagonal Hamiltonian, rad/mm.

    Only the diagonal and one off-diagonal are stored, so symmetry and the
    tridiagonal structure hold by construction.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = _as_float_array(self.diag, "diag")
        offdiag = _as_float_array(self.offdiag, "offdiag")
        if offdiag.shape != (diag.size - 1,):
            raise DeviceSpecError(
                f"offdiag has {offdiag.size} entries, expected {diag.size - 1}"
            )
        diag.setflags(write=False)
        offdiag.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

    @property
    def n_guides(self) -> int:
        return self.diag.size

    def to_matrix(self) -> np.ndarray:
        """Dense N x N matrix form."""
        return (
            np.diag(self.diag)
            + np.diag(self.offdiag, 1)
            + np.diag(self.offdiag, -1)
        )


@dataclass(frozen=True)
class VoltageConfig:
    """Voltage vector applied to the E electrodes, volts."""

    volts: np.ndarray

    def __post_init__(self):
        volts = np.atleast_1d(_as_float_array(self.volts, "volts"))
        volts.setflags(write=False)
        object.__setattr__(self, "volts", volts)

    @classmethod
    def zeros(cls, n_electrodes: int = N_ELECTRODES_DEFAULT) -> "VoltageConfig":
        return cls(np.zeros(n_electrodes))


@dataclass(frozen=True)
class DeviceSpec:
    """Physical array description plus linear voltage sensitivity model."""

    n_guides: int = N_GUIDES_DEFAULT
    n_electrodes: int = N_ELECTRODES_DEFAULT
    coupling_length: float = COUPLING_LENGTH_DEFAULT
    base_beta: np.ndarray | None = None
    base_coupling: np.ndarray | None = None
    beta_sensitivity: np.ndarray | None = None
    coupling_sensitivity: np.ndarray | None = None
    voltage_limit: float = VOLTAGE_LIMIT_DEFAULT

    def __post_init__(self):
        n, e = int(self.n_guides), int(self.n_electrodes)
        if n < 2:
            raise DeviceSpecError(f"n_guides must be >= 2, got {n}")
        if e < 1:
            raise DeviceSpecError(f"n_electrodes must be >= 1, got {e}")
        if not self.coupling_length > 0:
            raise DeviceSpecError(
                f"coupling_length must be positive, got {self.coupling_length}"
            )
        if not self.voltage_limit > 0:
            raise DeviceSpecError(
                f"voltage_limit must be positive, got {self.voltage_limit}"
            )

        base_beta = (
            default_base_beta(n)
            if self.base_beta is None
            else _as_float_array(self.base_beta, "base_beta")
        )
        base_coupling = (
            default_base_coupling(n)
            if self.base_coupling is None
            else _as_float_array(self.base_coupling, "base_coupling")
        )
        beta_sens = (
            default_beta_sensitivity(n, e)
            if self.beta_sensitivity is None
            else _as_float_array(self.beta_sensitivity, "beta_sensitivity")
        )
        coupling_sens = (
            default_coupling_sensitivity(n, e)
            if self.coupling_sensitivity is None
            else _as_float_array(self.coupling_sensitivity, "coupling_sensitivity")
        )

        if base_beta.shape != (n,):
            raise DeviceSpecError(
                f"base_beta has {base_beta.size} entries, expected {n}"
            )
        if base_coupling.shape != (n - 1,):
            raise DeviceSpecError(
                f"base_coupling has {base_coupling.size} entries, expected {n - 1}"
            )
        if np.any(base_coupling < 0):
            raise DeviceSpecError("base_coupling entries must be >= 0")
        if beta_sens.shape != (n, e):
            raise DeviceSpecError(
                f"beta_sensitivity has shape {beta_sens.shape}, expected ({n}, {e})"
            )
        if coupling_sens.shape != (n - 1, e):
            raise DeviceSpecError(
                f"coupling_sensitivity has shape {coupling_sens.shape}, "
                f"expected ({n - 1}, {e})"
            )

        for arr in (base_beta, base_coupling, beta_sens, coupling_sens):
            arr.setflags(write=False)
        object.__setattr__(self, "n_guides", n)
        object.__setattr__(self, "n_electrodes", e)
        object.__setattr__(self, "coupling_length", float(self.coupling_length))
        object.__setattr__(self, "voltage_limit", float(self.voltage_limit))
        object.__setattr__(self, "base_beta", base_beta)
        object.__setattr__(self, "base_coupling", base_coupling)
        object.__setattr__(self, "beta_sensitivity", beta_sens)
        object.__setattr__(self, "coupling_sensitivity", coupling_sens)

    def with_length(self, coupling_length: float) -> "DeviceSpec":
        return dataclasses.replace(self, coupling_length=coupling_length)


def default_device() -> DeviceSpec:
    """The built-in 11-guide, 22-electrode device with declared defaults."""
    return DeviceSpec()


def hamiltonian_diagonals(
    spec: DeviceSpec, volts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of H for each row of a (B, E) voltage stack.

    Returns the (B, N) diagonals and (B, N-1) off-diagonals.  Every entry
    must be finite and within [-limit, +limit]; `build_hamiltonian` passes a
    one-row stack, and the compiler's kernel checks its active-electrode batch
    itself.
    """
    volts = np.asarray(volts, dtype=float)
    if volts.ndim != 2 or volts.shape[1] != spec.n_electrodes:
        raise DeviceSpecError(
            f"voltage stack has shape {volts.shape}, expected (B, {spec.n_electrodes})"
        )
    if not np.all(np.isfinite(volts)):
        raise DeviceSpecError("voltage stack contains non-finite entries")
    bad = np.argwhere(np.abs(volts) > spec.voltage_limit)
    if bad.size:
        b, e = bad[0]
        raise VoltageBoundError(
            f"electrode {e + 1} at {volts[b, e]} V exceeds limit "
            f"+/-{spec.voltage_limit} V"
        )
    return (spec.base_beta + volts @ spec.beta_sensitivity.T,
            spec.base_coupling + volts @ spec.coupling_sensitivity.T)


def build_hamiltonian(spec: DeviceSpec, v: VoltageConfig) -> TridiagonalHamiltonian:
    """Map a voltage vector to the array Hamiltonian (linear model)."""
    diag, offdiag = hamiltonian_diagonals(spec, v.volts[None, :])
    return TridiagonalHamiltonian(diag=diag[0], offdiag=offdiag[0])


# -- device spec file I/O ----------------------------------------------------

_SCALAR_FIELDS = ("n_guides", "n_electrodes", "coupling_length", "voltage_limit")


def _parse_sensitivity(raw, n_rows: int, n_electrodes: int, name: str) -> np.ndarray:
    """Accept a dense (n_rows x E) matrix or sparse (row, electrode, value)
    triplets with 1-based row/electrode indices."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2:
        raise DeviceSpecError(f"{name}: expected a 2-D matrix or triplet list")
    if arr.shape == (n_rows, n_electrodes):
        # ambiguous only when n_electrodes == 3; dense wins there (documented)
        return arr
    if arr.shape[1] == 3:
        dense = np.zeros((n_rows, n_electrodes))
        for row, electrode, value in arr:
            r, e = int(row) - 1, int(electrode) - 1
            if not (0 <= r < n_rows and 0 <= e < n_electrodes):
                raise DeviceSpecError(
                    f"{name}: triplet ({int(row)}, {int(electrode)}) out of range"
                )
            dense[r, e] = value
        return dense
    raise DeviceSpecError(
        f"{name}: shape {arr.shape} matches neither ({n_rows}, {n_electrodes}) "
        "nor (k, 3) triplets"
    )


def device_spec_from_dict(doc: dict) -> DeviceSpec:
    if not isinstance(doc, dict):
        raise DeviceSpecError("device document is not a mapping")
    unknown = set(doc) - set(_SCALAR_FIELDS) - {
        "base_beta", "base_coupling", "beta_sensitivity", "coupling_sensitivity"
    }
    if unknown:
        raise DeviceSpecError(f"unknown device fields: {sorted(unknown)}")
    n = int(doc.get("n_guides", N_GUIDES_DEFAULT))
    e = int(doc.get("n_electrodes", N_ELECTRODES_DEFAULT))
    kwargs = {
        "n_guides": n,
        "n_electrodes": e,
        "coupling_length": float(doc.get("coupling_length", COUPLING_LENGTH_DEFAULT)),
        "voltage_limit": float(doc.get("voltage_limit", VOLTAGE_LIMIT_DEFAULT)),
    }
    if "base_beta" in doc:
        kwargs["base_beta"] = _as_float_array(doc["base_beta"], "base_beta")
    if "base_coupling" in doc:
        kwargs["base_coupling"] = _as_float_array(doc["base_coupling"], "base_coupling")
    if "beta_sensitivity" in doc:
        kwargs["beta_sensitivity"] = _parse_sensitivity(
            doc["beta_sensitivity"], n, e, "beta_sensitivity"
        )
    if "coupling_sensitivity" in doc:
        kwargs["coupling_sensitivity"] = _parse_sensitivity(
            doc["coupling_sensitivity"], n - 1, e, "coupling_sensitivity"
        )
    return DeviceSpec(**kwargs)


def device_spec_to_dict(spec: DeviceSpec) -> dict:
    return {
        "n_guides": spec.n_guides,
        "n_electrodes": spec.n_electrodes,
        "coupling_length": spec.coupling_length,
        "voltage_limit": spec.voltage_limit,
        "base_beta": spec.base_beta.tolist(),
        "base_coupling": spec.base_coupling.tolist(),
        "beta_sensitivity": spec.beta_sensitivity.tolist(),
        "coupling_sensitivity": spec.coupling_sensitivity.tolist(),
    }


def load_device_spec(path) -> DeviceSpec:
    """Load a device description from a YAML document."""
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise DeviceSpecError(f"cannot parse {path}: {exc}") from exc
    if doc is None:
        raise DeviceSpecError(f"{path} is empty")
    return device_spec_from_dict(doc)


def save_device_spec(spec: DeviceSpec, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(device_spec_to_dict(spec), fh, sort_keys=False)
