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
    default_device,
    frozen_array,
)
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


def test_built_map_holds_its_own_tables():
    lut = build_lookup_map(default_device(), SubcircuitPair(1), 1, 4, GRID, GRID)
    for table in (lut.eta, lut.leakage_in1, lut.leakage_in2):
        assert not table.flags.writeable


class TestFrozenArray:
    def test_list_is_converted_and_frozen(self):
        arr = frozen_array([1, 2, 3], "x")
        assert arr.dtype == float and not arr.flags.writeable

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
