"""Every value type copies a caller's writable array and stores it read-only.

`device.frozen_array` is the one rule: a read-only input is kept as it is,
and a writable one is copied before the copy is frozen.  So a constructor
never freezes its caller's array, and no one can change a stored array by
writing to the array it was built from.
"""
import numpy as np
import pytest

from rwasim.calibration import LookupMap, build_lookup_map
from rwasim.device import (
    DeviceSpec,
    DeviceSpecError,
    TridiagonalHamiltonian,
    VoltageConfig,
    build_hamiltonian,
    default_device,
    frozen_array,
)
from rwasim.evolution import (IntensityProfile, TransferUnitary, propagation_profile,
                              unitary)
from rwasim.photon_stats import HomScan, simulate_hom_scan
from rwasim.subcircuits import SubcircuitPair, TruthTable

GRID = [0.0, 1.0]

# name: (constructor taking the caller's arrays, the caller's arrays); each
# array is stored under the attribute of its keyword's name
CASES = {
    "DeviceSpec": (DeviceSpec, lambda: dict(
        base_beta=np.linspace(3.1, 4.1, 11), base_coupling=np.full(10, 0.14),
        beta_sensitivity=np.full((11, 22), 0.01),
        coupling_sensitivity=np.full((10, 22), -0.01))),
    "VoltageConfig": (VoltageConfig, lambda: dict(volts=np.zeros(22))),
    "TridiagonalHamiltonian": (TridiagonalHamiltonian, lambda: dict(
        diag=np.arange(4.0), offdiag=np.full(3, 0.1))),
    "LookupMap": (
        lambda **a: LookupMap(electrode_a=1, electrode_b=4, input_guides=(1, 2), **a),
        lambda: dict(grid_a=np.array(GRID), grid_b=np.array(GRID),
                     eta=np.full((2, 2), 0.5), leakage_in1=np.zeros((2, 2)),
                     leakage_in2=np.zeros((2, 2)), fixed_voltages=np.zeros(22))),
    "HomScan": (HomScan, lambda: dict(delays=np.linspace(-1, 1, 9),
                                      counts=np.full(9, 10.0))),
    "TruthTable": (TruthTable, lambda: dict(table=np.eye(4))),
    "TransferUnitary": (TransferUnitary, lambda: dict(matrix=np.eye(3, dtype=complex))),
    "IntensityProfile": (IntensityProfile, lambda: dict(
        z_points=np.linspace(0.0, 1.0, 5), intensities=np.full((5, 2), 0.5))),
    "simulate_hom_scan": (lambda delays: simulate_hom_scan(0.5, delays, 1e3),
                          lambda: dict(delays=np.linspace(-1, 1, 9))),
    "build_lookup_map grids": (
        lambda **grids: build_lookup_map(default_device(), SubcircuitPair(1), 1, 4,
                                         **grids),
        lambda: dict(grid_a=np.array(GRID), grid_b=np.array(GRID))),
}


@pytest.mark.parametrize("case", CASES)
def test_writable_input_is_copied_and_stored_read_only(case):
    build, make_arrays = CASES[case]
    given = make_arrays()
    built = build(**given)
    for name, caller in given.items():
        stored = getattr(built, name)
        before = stored.copy()
        assert caller.flags.writeable, name
        assert not stored.flags.writeable, name
        caller += 1.0
        np.testing.assert_array_equal(stored, before, err_msg=name)


def test_read_only_input_is_shared():
    spec = default_device()
    assert DeviceSpec(base_beta=spec.base_beta).base_beta is spec.base_beta
    volts = VoltageConfig.zeros()
    assert VoltageConfig(volts.volts).volts is volts.volts


def test_computed_unitary_and_profile_are_read_only():
    h = build_hamiltonian(default_device(), VoltageConfig.zeros())
    u = unitary(h, 1.0)
    profile = propagation_profile(h, 1.0, n_steps=4)
    for arr in (u.matrix, profile.z_points, profile.intensities):
        assert not arr.flags.writeable
    assert np.iscomplexobj(u.matrix)


def test_built_map_holds_its_own_tables():
    lut = build_lookup_map(default_device(), SubcircuitPair(1), 1, 4, GRID, GRID)
    for table in (lut.eta, lut.leakage_in1, lut.leakage_in2):
        assert not table.flags.writeable


class TestFrozenArray:
    def test_list_is_converted_and_frozen(self):
        arr = frozen_array([1, 2, 3], "x")
        assert arr.dtype == float and not arr.flags.writeable

    def test_complex_keeps_its_imaginary_part(self):
        arr = frozen_array([1j, 2.0], "x", dtype=complex)
        assert arr.dtype == complex and arr[0] == 1j and not arr.flags.writeable

    def test_writable_view_is_copied(self):
        base = np.arange(6.0)
        arr = frozen_array(base[1:4], "x")
        assert base.flags.writeable and not np.shares_memory(arr, base)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DeviceSpecError, match=r"x has shape \(2,\), expected \(3,\)"):
            frozen_array([1.0, 2.0], "x", (3,))

    @pytest.mark.parametrize("value", [[1.0, np.nan], [np.inf], ["a"]])
    def test_rejects_with_the_given_error(self, value):
        with pytest.raises(RuntimeError, match="x"):
            frozen_array(value, "x", error=RuntimeError)

    @pytest.mark.parametrize("dtype", [int, np.int64, np.intp, "int"])
    def test_int_refuses_what_is_not_a_whole_number(self, dtype):
        # the cast to int cut [1.5, 2.7] to [1 2] without a word
        with pytest.raises(ValueError, match="x: entries must be whole numbers"):
            frozen_array([1.5, 2.7], "x", error=ValueError, dtype=dtype)

    @pytest.mark.parametrize("value", [[np.nan], [np.inf]])
    def test_int_refuses_non_finite_entries(self, value):
        with pytest.raises(ValueError, match="x: contains non-finite entries"):
            frozen_array(value, "x", error=ValueError, dtype=int)

    @pytest.mark.parametrize("value", [[3.0, -4.0], np.array([3, -4])])
    def test_int_keeps_whole_numbers(self, value):
        arr = frozen_array(value, "x", error=ValueError, dtype=int)
        assert arr.dtype.kind == "i" and arr.tolist() == [3, -4]
        assert not arr.flags.writeable
