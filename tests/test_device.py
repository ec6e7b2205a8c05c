import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwasim.device import (
    DeviceSpec,
    DeviceSpecError,
    VoltageBoundError,
    VoltageConfig,
    build_hamiltonian,
    count,
    default_device,
    device_spec_from_dict,
    finite_real,
    hamiltonian_diagonals,
    load_device_spec,
    save_device_spec,
    zero_based,
)
from rwasim.analysis import clements_loss, wa_loss
from rwasim.compiler import gate_target, optimize_parallel_gates, preset_config
from rwasim.evolution import output_power, propagation_profile, unitary
from rwasim.photon_stats import (ideal_visibility, simulate_hom_scan,
                                 two_photon_coincidence, visibility_error)
from rwasim.subcircuits import SubcircuitPair, effective_reflectivity, gate_truth_table

from conftest import spec_equal, with_electrode


class TestDeviceSpecLoading:
    def test_minimal_document_gets_defaults(self, tmp_path):
        path = tmp_path / "dev.yaml"
        path.write_text("n_guides: 11\nn_electrodes: 22\ncoupling_length: 24\n")
        spec = load_device_spec(path)
        assert spec_equal(spec, default_device())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DeviceSpecError, match="base_coupling"):
            DeviceSpec(base_coupling=np.full(9, 0.1))

    def test_round_trip(self, tmp_path, device):
        path = tmp_path / "dev.yaml"
        save_device_spec(device, path)
        assert spec_equal(load_device_spec(path), device)

    def test_negative_base_coupling_rejected(self):
        bc = np.full(10, 0.1)
        bc[3] = -0.01
        with pytest.raises(DeviceSpecError, match="base_coupling"):
            DeviceSpec(base_coupling=bc)

    def test_non_positive_length_rejected(self):
        with pytest.raises(DeviceSpecError, match="coupling_length"):
            DeviceSpec(coupling_length=0.0)

    @pytest.mark.parametrize("fields,message", [
        (dict(coupling_length=1e15), "coupling_length too long"),
        (dict(base_beta=np.full(11, 1e15)), "base_beta too large"),
        (dict(base_coupling=np.full(10, 5e306)), "base_coupling too large"),
        (dict(beta_sensitivity=np.full((11, 22), 1e14)),
         "beta_sensitivity at voltage_limit too large"),
        # V sum |dC/dV| overflows to inf, which must not warn
        (dict(voltage_limit=1.7e308, coupling_sensitivity=np.full((10, 22), 1.0)),
         "coupling_sensitivity at voltage_limit too large"),
    ], ids=["length", "beta", "coupling", "beta-sensitivity", "inf-rho"])
    def test_phases_past_2_52_rad_rejected(self, fields, message):
        # by Gershgorin the default device's eigenvalues are at most 4.68
        # rad/mm in size within +/-10 V, so 9e14 mm keeps every phase below
        # 2^52 rad
        assert DeviceSpec(coupling_length=9e14).coupling_length == 9e14
        with pytest.raises(DeviceSpecError, match=f"^{message}: "):
            DeviceSpec(**fields)

    def test_missing_numeric_field(self):
        with pytest.raises(DeviceSpecError):
            device_spec_from_dict({"base_beta": ["a", "b"]})

    @pytest.mark.parametrize("field,value", [
        ("coupling_length", None), ("coupling_length", "24"),
        ("coupling_length", float("inf")), ("voltage_limit", [1, 2]),
        ("voltage_limit", True), ("n_guides", 2.7), ("n_guides", 11.0),
        ("n_electrodes", None),
    ])
    def test_ill_typed_scalar_field_rejected(self, field, value):
        # the loader used to convert these itself: null and lists crashed with
        # TypeError, and n_guides 2.7 became a 2-guide device
        with pytest.raises(DeviceSpecError, match=field):
            device_spec_from_dict({field: value})
        with pytest.raises(DeviceSpecError, match=field):
            DeviceSpec(**{field: value})

    def test_null_array_field_takes_default(self):
        doc = {"base_beta": None, "beta_sensitivity": None, "coupling_length": 24}
        assert spec_equal(device_spec_from_dict(doc), default_device())

    @pytest.mark.parametrize("triplet", [[2.5, 4, -0.01], [2, 4.9, -0.01],
                                         [0, 4, -0.01], [2, 23, -0.01]])
    def test_triplet_index_must_be_in_range_integer(self, triplet):
        # int() used to put (2.5, 4.9) silently at (2, 4)
        with pytest.raises(DeviceSpecError, match="coupling_sensitivity"):
            device_spec_from_dict({"coupling_sensitivity": [triplet]})

    def test_unknown_field_rejected(self):
        with pytest.raises(DeviceSpecError, match="unknown"):
            device_spec_from_dict({"n_waveguides": 11})

    def test_sparse_triplet_sensitivities(self, tmp_path):
        doc = """
n_guides: 11
n_electrodes: 22
coupling_length: 24.0
coupling_sensitivity:
  - [2, 4, -0.01]
"""
        path = tmp_path / "dev.yaml"
        path.write_text(doc)
        spec = load_device_spec(path)
        assert spec.coupling_sensitivity[1, 3] == -0.01
        assert np.count_nonzero(spec.coupling_sensitivity) == 1


class TestBuildHamiltonian:
    def test_zero_voltage_identity(self, device, zero_volts):
        h = build_hamiltonian(device, zero_volts)
        np.testing.assert_array_equal(h.diag, device.base_beta)
        np.testing.assert_array_equal(h.offdiag, device.base_coupling)

    def test_linear_coupling_shift(self):
        # C23 sensitivity -0.01 on electrode 4, base 0.10, V4 = 7 -> 0.03
        spec = DeviceSpec(base_coupling=np.full(10, 0.10))
        v = with_electrode(VoltageConfig.zeros(22), 4, 7.0)
        h = build_hamiltonian(spec, v)
        assert h.offdiag[1] == pytest.approx(0.03, abs=1e-15)

    def test_over_limit_voltage_names_electrode(self, device):
        v = with_electrode(VoltageConfig.zeros(22), 1, 10.5)
        with pytest.raises(VoltageBoundError, match="electrode 1"):
            build_hamiltonian(device, v)

    def test_default_electrode_pattern(self, device, zero_volts):
        h0 = build_hamiltonian(device, zero_volts)
        for n in range(1, device.n_guides + 1):
            h = build_hamiltonian(device, with_electrode(zero_volts, 2 * n - 1, 1.0))
            delta_diag = h.diag - h0.diag
            assert np.count_nonzero(delta_diag) == 1
            assert delta_diag[n - 1] != 0.0
            np.testing.assert_array_equal(h.offdiag, h0.offdiag)
        for n in range(1, device.n_guides):
            h = build_hamiltonian(device, with_electrode(zero_volts, 2 * n, 1.0))
            delta_off = h.offdiag - h0.offdiag
            assert np.count_nonzero(delta_off) == 1
            assert delta_off[n - 1] != 0.0
            np.testing.assert_array_equal(h.diag, h0.diag)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_affine_in_voltage(self, seed):
        spec = default_device()
        rng = np.random.default_rng(seed)
        v1 = rng.uniform(-5, 5, 22)
        v2 = rng.uniform(-5, 5, 22)
        h0 = build_hamiltonian(spec, VoltageConfig(np.zeros(22)))
        h1 = build_hamiltonian(spec, VoltageConfig(v1))
        h2 = build_hamiltonian(spec, VoltageConfig(v2))
        h12 = build_hamiltonian(spec, VoltageConfig(v1 + v2))
        np.testing.assert_allclose(
            h12.diag - h0.diag, (h1.diag - h0.diag) + (h2.diag - h0.diag),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            h12.offdiag - h0.offdiag,
            (h1.offdiag - h0.offdiag) + (h2.offdiag - h0.offdiag),
            atol=1e-12,
        )

    def test_matrix_is_symmetric_tridiagonal(self, device, zero_volts):
        h = build_hamiltonian(device, with_electrode(zero_volts, 3, 2.0))
        m = h.to_matrix()
        np.testing.assert_array_equal(m, m.T)
        assert np.count_nonzero(np.triu(m, 2)) == 0


class TestHamiltonianDiagonals:
    def test_rows_match_build_hamiltonian(self, device):
        volts = np.random.default_rng(3).uniform(-10, 10, (5, 22))
        diag, offdiag = hamiltonian_diagonals(device, volts)
        assert diag.shape == (5, 11) and offdiag.shape == (5, 10)
        for v, d, o in zip(volts, diag, offdiag):
            h = build_hamiltonian(device, VoltageConfig(v))
            np.testing.assert_allclose(d, h.diag, rtol=0, atol=1e-15)
            np.testing.assert_allclose(o, h.offdiag, rtol=0, atol=1e-15)

    def test_invalid_stacks_rejected(self, device):
        volts = np.zeros((3, 22))
        volts[2, 6] = -10.5
        with pytest.raises(VoltageBoundError, match="electrode 7"):
            hamiltonian_diagonals(device, volts)
        # of two, the first in row-major order is named, not the lower electrode
        volts[1, 15] = 10.5
        with pytest.raises(VoltageBoundError, match=r"^electrode 16 at 10\.5 V exceeds"):
            hamiltonian_diagonals(device, volts)
        # NaN is out of range too, refused by the same check
        volts[2, 6] = np.nan
        with pytest.raises(VoltageBoundError, match=r"^electrode 7 at nan V exceeds"):
            hamiltonian_diagonals(device, volts[2:])
        for bad in (np.zeros(22), np.zeros((3, 21))):
            with pytest.raises(DeviceSpecError):
                hamiltonian_diagonals(device, bad)


class TestValidateVoltages:
    """The voltage bound check, done once in `hamiltonian_diagonals`, as
    `build_hamiltonian` reaches it."""

    def test_all_zero_passes(self, device, zero_volts):
        build_hamiltonian(device, zero_volts)

    def test_closed_interval_boundary(self, device, zero_volts):
        for value in (10.0, -10.0):
            h = build_hamiltonian(device, with_electrode(zero_volts, 5, value))
            assert h.diag[2] == device.base_beta[2] + 0.02 * value

    def test_violation_lists_electrode(self, device, zero_volts):
        with pytest.raises(VoltageBoundError, match=r"electrode 7 at -12\.0 V"):
            build_hamiltonian(device, with_electrode(zero_volts, 7, -12.0))
        with pytest.raises(DeviceSpecError, match="expected"):
            build_hamiltonian(device, VoltageConfig.zeros(21))


class TestElectrodeIndices:
    """`DeviceSpec.electrode_indices`, the one 1-based electrode rule that
    the compiler's configs and the lookup map take."""

    def test_zero_based_in_given_order(self):
        assert DeviceSpec(n_electrodes=8).electrode_indices((8, 1, 3)) == [7, 0, 2]

    @pytest.mark.parametrize("electrodes,named", [((0,), 0), ((2, 9, 10), 9),
                                                  ((-1,), -1)])
    def test_first_outside_the_device_named(self, electrodes, named):
        with pytest.raises(IndexError, match=rf"^electrode {named} out of range 1\.\.8$"):
            DeviceSpec(n_electrodes=8).electrode_indices(electrodes)


class TestOneBasedNumbers:
    """`zero_based`, the one rule for 1-based guide, pair and electrode
    numbers, at each entry point that takes one."""

    @pytest.mark.parametrize("call,message", [
        (lambda spec, h, u: output_power(u, 2.5), "input_guide 2.5 out of range 1..11"),
        (lambda spec, h, u: propagation_profile(h, 24.0, input_guide=2.5),
         "input_guide 2.5 out of range 1..11"),
        (lambda spec, h, u: two_photon_coincidence(u, (1.5, 2), (1, 2)),
         "guide 1.5 out of range 1..11"),
        (lambda spec, h, u: effective_reflectivity(u, SubcircuitPair(1.5)),
         "pair 1.5 out of range 1..10"),
        (lambda spec, h, u: spec.electrode_indices((1.5,)),
         "electrode 1.5 out of range 1..22"),
    ], ids=["output_power", "propagation_profile", "two_photon_coincidence",
            "effective_reflectivity", "electrode_indices"])
    def test_non_integral_number_named(self, device, zero_volts, call, message):
        # numpy's "only integers, slices ..." IndexError, a slicing TypeError
        # or an index of 0.5 came out instead
        h = build_hamiltonian(device, zero_volts)
        with pytest.raises(IndexError) as info:
            call(device, h, unitary(h, device.coupling_length))
        assert str(info.value) == message

    @pytest.mark.parametrize("lower", [0, True, 1.5])
    def test_pair_refused_only_by_its_indices(self, lower):
        # SubcircuitPair(0) raised its own ValueError at construction, while
        # True and 1.5 were taken there
        with pytest.raises(IndexError, match=rf"^pair {lower} out of range 1\.\.10$"):
            SubcircuitPair(lower).indices(11)

    def test_integers_taken_and_bools_refused(self):
        assert zero_based(np.int64(11), 11, "guide") == 10
        assert type(zero_based(np.int64(11), 11, "guide")) is int
        for k in (True, 0, 12, 3.0, "3"):
            with pytest.raises(IndexError, match=rf"^guide {k} out of range 1\.\.11$"):
                zero_based(k, 11, "guide")


XX = (gate_target("X"), gate_target("X"))
DELAYS = np.linspace(-0.6, 0.6, 121)


class TestScalarRules:
    """`count` and `finite_real`, the one rule each for a count and for a
    finite real in a range, at each entry point that takes such a scalar."""

    @pytest.mark.parametrize("call,name", [
        (lambda h: unitary(h, True), "length"),
        (lambda h: propagation_profile(h, True), "length"),
        (lambda h: propagation_profile(h, 24.0, n_steps=3.0), "n_steps"),
        (lambda h: wa_loss(True), "length"),
        (lambda h: clements_loss(2.5), "n_modes"),
        (lambda h: ideal_visibility(True), "eta"),
        (lambda h: simulate_hom_scan(0.5, DELAYS, True), "baseline_rate"),
        (lambda h: simulate_hom_scan(0.5, DELAYS, 1e3, slope=True), "slope"),
        (lambda h: simulate_hom_scan(0.5, DELAYS, 1e3, overlap=True), "overlap"),
        (lambda h: gate_truth_table(True, 0.5), "eta_a"),
        (lambda h: visibility_error(np.nan, 1.0), "N_max"),
        (lambda h: visibility_error(1.0, np.nan), "N_min"),
        (lambda h: optimize_parallel_gates(default_device(), preset_config("config2"),
                                           XX, restarts=2.5), "restarts"),
        (lambda h: optimize_parallel_gates(default_device(), preset_config("config2"),
                                           XX, restarts=True), "restarts"),
    ], ids=["unitary", "profile-length", "profile-steps", "wa_loss", "clements_loss",
            "ideal_visibility", "baseline", "slope", "overlap", "gate_truth_table",
            "N_max", "N_min", "restarts-2.5", "restarts-True"])
    def test_bool_fraction_and_nan_refused_by_name(self, device, zero_volts, call, name):
        # each returned a value (True taken as 1, 2.5 modes as a 2.5-mode
        # mesh, NaN as a NaN error) or raised numpy's TypeError
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(build_hamiltonian(device, zero_volts))

    def test_count_takes_integers_only(self):
        assert count(np.int64(3), "n", 2) == 3
        assert type(count(np.int64(3), "n", 2)) is int
        for x in (True, 1, 3.0, "3", None):
            with pytest.raises(ValueError, match=rf"^n must be an integer >= 2, got {x!r}$"):
                count(x, "n", 2)

    def test_finite_real_bounds(self):
        assert finite_real(np.float64(0.5), "x", 0.0, 1.0) == 0.5
        assert type(finite_real(np.float32(0.5), "x")) is float
        assert finite_real(0.0, "x", 0.0) == 0.0
        assert finite_real(-1e308, "x") == -1e308
        for x, lo, hi, above, kind in [
                (0.0, 0.0, None, True, "> 0"), (-1.0, 0.0, None, False, ">= 0"),
                (1.5, 0.0, 1.0, False, "in [0, 1]"), (0.0, 0.0, 1.0, True, "in (0, 1]"),
                (np.nan, None, None, False, ""), (np.inf, None, None, False, ""),
                (10**400, None, None, False, ""), (True, None, None, False, ""),
                ("1", None, None, False, "")]:
            bounds = {k: v for k, v in (("lo", lo), ("hi", hi)) if v is not None}
            with pytest.raises(ValueError) as info:
                finite_real(x, "x", above=above, **bounds)
            assert str(info.value) == f"x must be a finite real{kind and ' ' + kind}, got {x!r}"
