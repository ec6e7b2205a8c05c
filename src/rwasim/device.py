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

# Largest phase w L a device may reach: past 2^52 rad, e^{-i w L} keeps no
# fractional digit of its phase.
MAX_PHASE = 2.0**52  # rad


class DeviceSpecError(ValueError):
    """Device description is missing fields or dimensionally inconsistent."""


class VoltageBoundError(ValueError):
    """An electrode voltage amplitude exceeds the device limit."""


def frozen_array(value, name: str, shape: tuple | None = None,
                 error: type[Exception] = DeviceSpecError,
                 dtype: type = float) -> np.ndarray:
    """`value` as a read-only `dtype` (float, complex or int) array, checked
    finite and, if `shape` is given, of that shape; `error` is raised
    otherwise.  An int array keeps its integer dtype, so it serializes as
    integers, and takes only whole numbers: 3.0 is 3, 1.5 is refused rather
    than cut to 1.

    A read-only input is returned as it is.  A writable array is copied
    before the copy is frozen, so the caller's array stays writable and no
    one else can write to the result; an array made here from other input is
    frozen without a copy.
    """
    integral = np.dtype(dtype).kind in "iu"
    try:
        arr = np.asarray(value, dtype=None if integral else dtype)
        if integral and arr.dtype.kind not in "biu":
            # checked as floats first, so that 1.5 is refused, not cut to 1
            arr = np.asarray(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{name}: not numeric ({exc})") from exc
    if shape is not None and arr.shape != shape:
        raise error(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise error(f"{name}: contains non-finite entries")
    if integral:
        if not (arr == np.trunc(arr)).all():
            raise error(f"{name}: entries must be whole numbers")
        arr = arr.astype(dtype, copy=False)
    if arr.flags.writeable:
        if arr is value or arr.base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _as_count(x, name: str, minimum: int) -> int:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < minimum:
        raise DeviceSpecError(f"{name} must be an integer >= {minimum}, got {x!r}")
    return int(x)


def _as_positive(x, name: str) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not 0 < x < math.inf:
        raise DeviceSpecError(f"{name} must be a positive finite number, got {x!r}")
    return float(x)


def _electrode_gains(rows: int, n_electrodes: int, first: int, gain: float) -> np.ndarray:
    """(rows, E) sensitivity with `gain` at 0-based electrode first + 2 * row
    of each row that has one."""
    s = np.zeros((rows, n_electrodes))
    for row, e in enumerate(range(first, min(first + 2 * rows, n_electrodes), 2)):
        s[row, e] = gain
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
        diag = frozen_array(self.diag, "diag")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag",
                           frozen_array(self.offdiag, "offdiag", (diag.size - 1,)))

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
        object.__setattr__(self, "volts",
                           np.atleast_1d(frozen_array(self.volts, "volts")))

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

        # a missing array field takes its default, which also fixes its shape
        defaults = {
            "base_beta": BASE_BETA_OFFSET + BASE_BETA_RAMP * np.arange(n),
            "base_coupling": np.full(n - 1, BASE_COUPLING),
            "beta_sensitivity": _electrode_gains(n, e, 0, BETA_GAIN),
            "coupling_sensitivity": _electrode_gains(n - 1, e, 1, COUPLING_GAIN),
        }
        for name, default in defaults.items():
            value = getattr(self, name)
            object.__setattr__(self, name, frozen_array(
                default if value is None else value, name, default.shape))
        if np.any(self.base_coupling < 0):
            raise DeviceSpecError("base_coupling entries must be >= 0")
        object.__setattr__(self, "n_guides", n)
        object.__setattr__(self, "n_electrodes", e)
        object.__setattr__(self, "coupling_length", length)
        object.__setattr__(self, "voltage_limit", limit)
        _check_phase_bound(self)

    def with_length(self, coupling_length: float) -> "DeviceSpec":
        return dataclasses.replace(self, coupling_length=coupling_length)

    def electrode_indices(self, electrodes) -> list[int]:
        """0-based indices of 1-based `electrodes`; IndexError names the
        first one outside 1..n_electrodes."""
        for e in electrodes:
            if not 1 <= e <= self.n_electrodes:
                raise IndexError(f"electrode {e} out of range 1..{self.n_electrodes}")
        return [e - 1 for e in electrodes]


def eigenvalue_bound(spec: DeviceSpec) -> tuple[float, dict[str, np.ndarray]]:
    """rho, the Gershgorin bound (rad/mm) on the size of every eigenvalue w
    of H within the voltage limit V, and its terms by field, per guide or
    boundary: rho = max_n (a_n + c_(n-1) + c_n), with a = |beta| + V sum_e
    |d beta / d V_e| and c = |C| + V sum_e |d C / d V_e|.  An overflow gives
    inf, without a warning."""
    limit = spec.voltage_limit
    with np.errstate(over="ignore"):
        terms = {"base_beta": np.abs(spec.base_beta),
                 "beta_sensitivity": limit * np.abs(spec.beta_sensitivity).sum(1),
                 "base_coupling": spec.base_coupling,
                 "coupling_sensitivity":
                     limit * np.abs(spec.coupling_sensitivity).sum(1)}
        a = terms["base_beta"] + terms["beta_sensitivity"]
        c = np.pad(terms["base_coupling"] + terms["coupling_sensitivity"], 1)
        return float((a + c[:-1] + c[1:]).max()), terms


def _check_phase_bound(spec: DeviceSpec) -> None:
    """Refuse a device whose phases w L could pass `MAX_PHASE` within the
    voltage limit: rho L, with rho the `eigenvalue_bound`, must not.  The
    message names the larger factor of rho L: `coupling_length`, or the
    field with the largest term of rho."""
    rho, terms = eigenvalue_bound(spec)
    length = spec.coupling_length
    if rho * length <= MAX_PHASE:
        return
    bound = (f"the eigenvalue bound rho = {rho:.6g} rad/mm of H within the voltage"
             f" limit times coupling_length {length:g} mm must be at most 2^52 rad")
    if length >= rho:
        raise DeviceSpecError(f"coupling_length too long: {bound}")
    name = max(terms, key=lambda k: terms[k].max())
    at = " at voltage_limit" if name.endswith("sensitivity") else ""
    raise DeviceSpecError(f"{name}{at} too large: {bound}")


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
    if not np.isfinite(volts).all():
        raise DeviceSpecError("voltage stack contains non-finite entries")
    over = np.abs(volts) > spec.voltage_limit
    if over.any():
        b, e = np.argwhere(over)[0]
        raise VoltageBoundError(
            f"electrode {e + 1} at {volts[b, e]} V exceeds limit "
            f"+/-{spec.voltage_limit} V"
        )
    # a product per row, as for one row: numpy sums a many-row one in another order
    return (spec.base_beta + (volts[:, None] @ spec.beta_sensitivity.T)[:, 0],
            spec.base_coupling + (volts[:, None] @ spec.coupling_sensitivity.T)[:, 0])


def build_hamiltonian(spec: DeviceSpec, v: VoltageConfig) -> TridiagonalHamiltonian:
    """Map a voltage vector to the array Hamiltonian (linear model)."""
    diag, offdiag = hamiltonian_diagonals(spec, v.volts[None, :])
    return TridiagonalHamiltonian(diag=diag[0], offdiag=offdiag[0])


# -- device spec file I/O ----------------------------------------------------

_SENSITIVITIES = ("beta_sensitivity", "coupling_sensitivity")


def _parse_sensitivity(raw, n_rows: int, n_electrodes: int, name: str) -> np.ndarray:
    """Accept a dense (n_rows x E) matrix or sparse (row, electrode, value)
    triplets with 1-based row/electrode indices."""
    arr = frozen_array(raw, name)
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
    import yaml  # only device files need it, so a run without one skips the import

    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise DeviceSpecError(f"cannot parse {path}: {exc}") from exc
    if doc is None:
        raise DeviceSpecError(f"{path} is empty")
    return device_spec_from_dict(doc)


def save_device_spec(spec: DeviceSpec, path) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(device_spec_to_dict(spec), fh, sort_keys=False)
