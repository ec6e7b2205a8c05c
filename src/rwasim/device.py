"""Programmable waveguide array device model.

An array of N evanescently coupled waveguides is driven by E electrodes.
The per-length dynamics are captured by a real symmetric tridiagonal
Hamiltonian whose diagonal holds the propagation constants beta_n and whose
off-diagonal holds the nearest-neighbour couplings C_{n,n+1}.  Electrode
voltages shift both linearly through user-supplied sensitivity matrices.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
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


def _as_count(x, name: str, minimum: int) -> int:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < minimum:
        raise DeviceSpecError(f"{name} must be an integer >= {minimum}, got {x!r}")
    return int(x)


def _as_positive(x, name: str) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not 0 < x < math.inf:
        raise DeviceSpecError(f"{name} must be a positive finite number, got {x!r}")
    return float(x)


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
        n = _as_count(self.n_guides, "n_guides", 2)
        e = _as_count(self.n_electrodes, "n_electrodes", 1)
        length = _as_positive(self.coupling_length, "coupling_length")
        limit = _as_positive(self.voltage_limit, "voltage_limit")

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
        object.__setattr__(self, "coupling_length", length)
        object.__setattr__(self, "voltage_limit", limit)
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

_SENSITIVITIES = ("beta_sensitivity", "coupling_sensitivity")


def _parse_sensitivity(raw, n_rows: int, n_electrodes: int, name: str) -> np.ndarray:
    """Accept a dense (n_rows x E) matrix or sparse (row, electrode, value)
    triplets with 1-based row/electrode indices."""
    arr = _as_float_array(raw, name)
    if arr.ndim != 2:
        raise DeviceSpecError(f"{name}: expected a 2-D matrix or triplet list")
    if arr.shape == (n_rows, n_electrodes):
        # ambiguous only when n_electrodes == 3; dense wins there (documented)
        return arr
    if arr.shape[1] == 3:
        dense = np.zeros((n_rows, n_electrodes))
        for row, electrode, value in arr:
            r, e = int(row) - 1, int(electrode) - 1
            if not (r + 1 == row and e + 1 == electrode
                    and 0 <= r < n_rows and 0 <= e < n_electrodes):
                raise DeviceSpecError(
                    f"{name}: triplet ({row:g}, {electrode:g}) is not an index pair "
                    f"in 1..{n_rows} x 1..{n_electrodes}"
                )
            dense[r, e] = value
        return dense
    raise DeviceSpecError(
        f"{name}: shape {arr.shape} matches neither ({n_rows}, {n_electrodes}) "
        "nor (k, 3) triplets"
    )


def device_spec_from_dict(doc: dict) -> DeviceSpec:
    """`DeviceSpec` of a document's fields, null meaning the field's default
    as in `DeviceSpec`; sensitivities may also be given as triplets, which
    are parsed once the other fields fix the shape."""
    if not isinstance(doc, dict):
        raise DeviceSpecError("device document is not a mapping")
    unknown = set(doc) - {field.name for field in dataclasses.fields(DeviceSpec)}
    if unknown:
        raise DeviceSpecError(f"unknown device fields: {sorted(unknown, key=str)}")
    spec = DeviceSpec(**{k: v for k, v in doc.items() if k not in _SENSITIVITIES})
    n, e = spec.n_guides, spec.n_electrodes
    return dataclasses.replace(spec, **{
        name: _parse_sensitivity(doc[name], rows, e, name)
        for name, rows in zip(_SENSITIVITIES, (n, n - 1))
        if doc.get(name) is not None
    })


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
