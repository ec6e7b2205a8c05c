import hashlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwasim import calibration, evolution, subcircuits
from rwasim.compiler import gate_target
from rwasim.calibration import (
    FlatCurveError,
    LookupMap,
    SolveResult,
    build_lookup_map,
    default_grid,
    gate_voltages_by_linear_fit,
    map_metadata,
    map_to_csv,
    pair_response,
    solve_voltage,
    uniform_grid,
)
from rwasim.device import (
    DeviceSpec,
    DeviceSpecError,
    VoltageBoundError,
    VoltageConfig,
    build_hamiltonian,
    default_device,
)
from rwasim.evolution import output_power, unitary
from rwasim.subcircuits import SubcircuitPair, coupler_split, effective_reflectivity, leakage

from conftest import dense_sensitivity_device, make_xx_device, random_device, with_electrode

# a lookup map cell's eta against `effective_reflectivity` of `unitary`
ETA_TOL = 1e-12
# the other electrodes' voltages of a map built by hand
FIXED = np.zeros(22)


def reference_cells(spec, pair, electrode_a, electrode_b, grid_a, grid_b,
                    fixed_voltages=None):
    """eta and both leakages (percent) cell by cell through the scalar path."""
    base = (fixed_voltages.volts if fixed_voltages is not None
            else np.zeros(spec.n_electrodes))
    g1, g2 = pair.guides
    out = np.empty((3, len(grid_a), len(grid_b)))
    for ia, va in enumerate(grid_a):
        for ib, vb in enumerate(grid_b):
            volts = base.copy()
            volts[electrode_a - 1] = va
            volts[electrode_b - 1] = vb
            u = unitary(build_hamiltonian(spec, VoltageConfig(volts)),
                        spec.coupling_length)
            out[:, ia, ib] = (effective_reflectivity(u, pair),
                              leakage(output_power(u, g1), pair),
                              leakage(output_power(u, g2), pair))
    return out


def reference_solve(lut, target_eta):
    """Cell-by-cell scan keeping the smallest (|eta - target|, mean leakage,
    voltage norm) key; a tie keeps the earlier cell in grid order."""
    mean_leak = lut.mean_leakage
    best = best_key = None
    for ia in range(lut.grid_a.size):
        for ib in range(lut.grid_b.size):
            key = (abs(lut.eta[ia, ib] - target_eta), mean_leak[ia, ib],
                   float(np.hypot(lut.grid_a[ia], lut.grid_b[ib])))
            if best_key is None or key < best_key:
                best, best_key = (ia, ib), key
    ia, ib = best
    return SolveResult(v_a=float(lut.grid_a[ia]), v_b=float(lut.grid_b[ib]),
                       eta=float(lut.eta[ia, ib]), mean_leakage=float(mean_leak[ia, ib]))


def reference_csv(lut) -> str:
    """The map CSV written one cell at a time with f"{x:.17g}"."""
    lines = ["v_a,v_b,eta,leak_in1,leak_in2\n"]
    for ia, va in enumerate(lut.grid_a):
        for ib, vb in enumerate(lut.grid_b):
            lines.append(",".join(
                f"{x:.17g}" for x in (va, vb, lut.eta[ia, ib],
                                      lut.leakage_in1[ia, ib],
                                      lut.leakage_in2[ia, ib])) + "\n")
    return "".join(lines)


def linear_eta_map(grid=None):
    """Synthetic map with eta = 0.05 * v_a + 0.5, no leakage."""
    if grid is None:
        grid = default_grid()
    eta = np.clip(0.05 * grid[:, None] + 0.5 + 0 * grid[None, :], 0, 1)
    zeros = np.zeros_like(eta)
    return LookupMap(
        electrode_a=1, electrode_b=4, grid_a=grid, grid_b=grid,
        eta=eta, leakage_in1=zeros, leakage_in2=zeros, input_guides=(1, 2),
        fixed_voltages=FIXED,
    )


class TestBuildLookupMap:
    def test_small_grid_shape_and_invariants(self, device):
        grid = np.array([-5.0, 0.0, 5.0])
        lut = build_lookup_map(device, SubcircuitPair(1), 1, 4, grid, grid)
        assert lut.eta.shape == (3, 3)
        assert np.all((lut.eta >= 0) & (lut.eta <= 1))
        assert np.all((lut.leakage_in1 >= 0) & (lut.leakage_in1 <= 100))
        assert np.all((lut.leakage_in2 >= 0) & (lut.leakage_in2 <= 100))

    def test_zero_sensitivity_gives_constant_map(self):
        spec = DeviceSpec(
            beta_sensitivity=np.zeros((11, 22)),
            coupling_sensitivity=np.zeros((10, 22)),
        )
        grid = np.array([-10.0, 0.0, 10.0])
        lut = build_lookup_map(spec, SubcircuitPair(1), 1, 4, grid, grid)
        assert np.ptp(lut.eta) == 0.0
        assert np.ptp(lut.leakage_in1) == 0.0

    def test_cells_match_direct_simulation(self, device):
        grid_a = np.array([-2.0, 0.0, 2.0])
        grid_b = np.array([0.0, 7.0])
        lut = build_lookup_map(device, SubcircuitPair(1), 1, 4, grid_a, grid_b)
        for ia, ib in ((0, 0), (2, 1)):
            v = with_electrode(with_electrode(VoltageConfig.zeros(22), 1, grid_a[ia]),
                               4, grid_b[ib])
            u = unitary(build_hamiltonian(device, v), device.coupling_length)
            assert lut.eta[ia, ib] == pytest.approx(
                effective_reflectivity(u, SubcircuitPair(1)), abs=1e-12
            )
            assert lut.leakage_in1[ia, ib] == pytest.approx(
                leakage(output_power(u, 1), SubcircuitPair(1)), abs=1e-9
            )

    @pytest.mark.parametrize("make_spec", [
        default_device, make_xx_device,
        lambda: random_device(np.random.default_rng(4))])
    def test_eta_equals_effective_reflectivity_exactly(self, make_spec):
        # to ETA_TOL: a cell's block and `unitary` come from different formulas
        spec = make_spec()
        grid_a, grid_b = np.array([-3.0, 0.0, 5.5]), np.array([0.0, 2.0])
        for pair in (SubcircuitPair(1), SubcircuitPair(2), SubcircuitPair(7)):
            lut = build_lookup_map(spec, pair, 1, 4, grid_a, grid_b)
            for (ia, ib), eta in np.ndenumerate(lut.eta):
                v = with_electrode(with_electrode(VoltageConfig.zeros(22), 1,
                                                  grid_a[ia]), 4, grid_b[ib])
                u = unitary(build_hamiltonian(spec, v), spec.coupling_length)
                assert abs(effective_reflectivity(u, pair) - eta) <= ETA_TOL

    def test_uncrossed_pair_eta_is_one_on_both_paths(self):
        # the X(x)X device at 0 V has no coupling inside pair 2, so no power
        # crosses it: the map and effective_reflectivity both give exactly 1
        spec, pair = make_xx_device(), SubcircuitPair(2)
        lut = build_lookup_map(spec, pair, 1, 4, np.zeros(1), np.zeros(1))
        u = unitary(build_hamiltonian(spec, VoltageConfig.zeros(22)),
                    spec.coupling_length)
        assert lut.eta[0, 0] == effective_reflectivity(u, pair) == 1.0

    def test_identical_builds_bit_identical(self, device):
        grid = np.array([-1.0, 0.0, 1.0])
        a = build_lookup_map(device, SubcircuitPair(1), 1, 4, grid, grid)
        b = build_lookup_map(device, SubcircuitPair(1), 1, 4, grid, grid)
        np.testing.assert_array_equal(a.eta, b.eta)
        np.testing.assert_array_equal(a.leakage_in1, b.leakage_in1)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lower=st.integers(1, 10),
           electrodes=st.lists(st.integers(1, 22), min_size=2, max_size=2,
                               unique=True),
           shape=st.tuples(st.integers(1, 30), st.integers(1, 30)))
    @example(seed=0, lower=1, electrodes=[1, 4], shape=(37, 29))
    @example(seed=1, lower=10, electrodes=[22, 19], shape=(32, 64))
    def test_cells_match_scalar_reference(self, seed, lower, electrodes, shape):
        # (37, 29) spans two blocks and ends mid-block; (32, 64) is two
        # blocks exactly
        rng = np.random.default_rng(seed)
        spec = random_device(rng)
        fixed = VoltageConfig(rng.uniform(-10.0, 10.0, spec.n_electrodes))
        grid_a, grid_b = (np.sort(rng.uniform(-10.0, 10.0, n)) for n in shape)
        pair = SubcircuitPair(lower)
        lut = build_lookup_map(spec, pair, *electrodes, grid_a, grid_b, fixed)
        eta, leak1, leak2 = reference_cells(spec, pair, *electrodes, grid_a,
                                            grid_b, fixed)
        np.testing.assert_allclose(lut.eta, eta, rtol=0, atol=1e-12)
        # leakage is a percentage: 1e-12 as a fraction
        np.testing.assert_allclose(lut.leakage_in1, leak1, rtol=0, atol=1e-10)
        np.testing.assert_allclose(lut.leakage_in2, leak2, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(lut.fixed_voltages, fixed.volts)
        assert lut.input_guides == pair.guides

    def test_grid_sizes_straddle_block(self):
        # the examples of test_cells_match_scalar_reference
        assert 37 * 29 > evolution.STACK_ROWS
        assert (37 * 29) % evolution.STACK_ROWS != 0
        assert (32 * 64) % evolution.STACK_ROWS == 0

    @pytest.mark.parametrize("grid_a,message", [
        (np.array([1.0, 0.0, -1.0]), "grid_a must be strictly increasing"),
        (np.zeros((2, 2)), "grid_a must be a non-empty finite 1-D vector"),
        (np.zeros(0), "grid_a must be a non-empty finite 1-D vector"),
    ])
    def test_grid_checked_before_first_block(self, device, grid_a, message):
        # a decreasing grid was refused by LookupMap only after every cell
        # was computed, and a 2-D one failed inside numpy's broadcasting
        with mock.patch.object(calibration, "pair_response",
                               wraps=calibration.pair_response) as spy:
            with pytest.raises(ValueError, match=message):
                build_lookup_map(device, SubcircuitPair(1), 1, 4, grid_a,
                                 np.zeros(1))
        assert spy.call_count == 0

    def test_nan_grid_entry_rejected(self, device):
        grid = np.array([np.nan, 0.0])
        with pytest.raises(DeviceSpecError):
            build_lookup_map(device, SubcircuitPair(1), 1, 4, grid, np.zeros(1))

    def test_fixed_voltages_checked(self, device):
        grid = np.array([0.0, 1.0])
        over = np.zeros(22)
        over[6] = 10.5  # electrode 7 is not swept
        with pytest.raises(VoltageBoundError):
            build_lookup_map(device, SubcircuitPair(1), 1, 4, grid, grid,
                             VoltageConfig(over))
        for n in (21, 23):
            with pytest.raises(DeviceSpecError):
                build_lookup_map(device, SubcircuitPair(1), 1, 4, grid, grid,
                                 VoltageConfig(np.zeros(n)))

    def test_pair_beyond_last_guide_rejected(self, device):
        grid = np.array([0.0, 1.0])
        with pytest.raises(IndexError):
            build_lookup_map(device, SubcircuitPair(11), 1, 4, grid, grid)

    def test_zero_coupling_gives_unit_eta(self):
        spec = DeviceSpec(base_coupling=np.zeros(10),
                          coupling_sensitivity=np.zeros((10, 22)))
        grid = np.linspace(-10.0, 10.0, 21)
        fixed = VoltageConfig(np.linspace(-9.0, 9.0, 22))
        for lower in (1, 5, 10):
            lut = build_lookup_map(spec, SubcircuitPair(lower), 1, 4, grid, grid,
                                   fixed)
            assert np.all(lut.eta == 1.0)

    def test_out_of_limit_grid_rejected(self, device):
        grid = np.array([-11.0, 0.0])
        with pytest.raises(VoltageBoundError):
            build_lookup_map(device, SubcircuitPair(1), 1, 4, grid, grid)

    def test_same_electrode_rejected(self, device):
        grid = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            build_lookup_map(device, SubcircuitPair(1), 4, 4, grid, grid)

    def test_default_grid_is_41_points(self):
        grid = default_grid()
        assert grid.size == 41
        assert grid[0] == -10.0 and grid[-1] == 10.0
        assert np.allclose(np.diff(grid), 0.5)

    @pytest.mark.parametrize("limit,step", [(10.0, 0.3), (1.0, 5.0), (1.0, 0.0),
                                            (1.0, -0.5), (0.0, 0.5)])
    def test_default_grid_keeps_step_or_refuses(self, limit, step):
        # no silent respacing: 0.3 V steps would become 0.2985 V
        with pytest.raises(ValueError, match="step that divides"):
            uniform_grid(-limit, limit, step)

    @pytest.mark.parametrize("grid_a", [[np.nan], [0.0, np.inf], [-np.inf, 0.0]])
    def test_non_finite_grid_rejected(self, grid_a):
        # a one-point grid skipped the increasing-order check, the only one
        # that caught NaN
        n = len(grid_a)
        with pytest.raises(ValueError, match="grid_a"):
            LookupMap(electrode_a=1, electrode_b=4, grid_a=grid_a, grid_b=[0.0],
                      eta=np.full((n, 1), 0.5), leakage_in1=np.zeros((n, 1)),
                      leakage_in2=np.zeros((n, 1)), input_guides=(1, 2), fixed_voltages=FIXED)

    @pytest.mark.parametrize("table", ["eta", "leakage_in1", "leakage_in2"])
    @pytest.mark.parametrize("bad", [np.nan, -0.5, 101.0])
    def test_tables_outside_range_or_nan_rejected(self, table, bad):
        grid = np.array([0.0, 1.0])
        tables = dict(eta=np.full((2, 2), 0.5), leakage_in1=np.zeros((2, 2)),
                      leakage_in2=np.zeros((2, 2)))
        tables[table][1, 0] = bad
        with pytest.raises(ValueError, match=table):
            LookupMap(electrode_a=1, electrode_b=4, grid_a=grid, grid_b=grid,
                      input_guides=(1, 2), fixed_voltages=FIXED, **tables)


class TestPairResponse:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8))
    def test_eta_equals_effective_reflectivity_exactly(self, seed, rows):
        # to ETA_TOL at every pair: the residue and eigenvector formulas
        # differ in their last bits (3.1e-13 the worst over 300 seeds)
        rng = np.random.default_rng(seed)
        spec = random_device(rng)
        volts = rng.uniform(-10.0, 10.0, (rows, spec.n_electrodes))
        units = [unitary(build_hamiltonian(spec, VoltageConfig(row)),
                         spec.coupling_length) for row in volts]
        for lower in range(1, 11):
            pair = SubcircuitPair(lower)
            eta, _, _ = pair_response(spec, pair, volts)
            assert eta.shape == (rows,)
            for u, value in zip(units, eta):
                assert abs(effective_reflectivity(u, pair) - value) <= ETA_TOL

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lower=st.integers(1, 10),
           electrodes=st.lists(st.integers(1, 22), min_size=2, max_size=2,
                               unique=True),
           shape=st.tuples(st.integers(1, 8), st.integers(1, 8)))
    def test_rows_equal_map_cells(self, seed, lower, electrodes, shape):
        rng = np.random.default_rng(seed)
        spec = random_device(rng)
        fixed = rng.uniform(-10.0, 10.0, spec.n_electrodes)
        grid_a, grid_b = (np.sort(rng.uniform(-10.0, 10.0, n)) for n in shape)
        pair = SubcircuitPair(lower)
        lut = build_lookup_map(spec, pair, *electrodes, grid_a, grid_b,
                               VoltageConfig(fixed))
        volts = np.tile(fixed, (grid_a.size * grid_b.size, 1))
        volts[:, electrodes[0] - 1] = np.repeat(grid_a, grid_b.size)
        volts[:, electrodes[1] - 1] = np.tile(grid_b, grid_a.size)
        for table, rows in zip((lut.eta, lut.leakage_in1, lut.leakage_in2),
                               pair_response(spec, pair, volts)):
            np.testing.assert_array_equal(rows.reshape(shape), table)


    @pytest.mark.parametrize("lower", [1, 5, 10])
    def test_rows_equal_single_rows_on_a_dense_device(self, lower):
        # a one-row stack and a many-row stack must sum each entry of H in
        # the same order, or the row's bits depend on its batch mates
        spec, pair = dense_sensitivity_device(), SubcircuitPair(lower)
        volts = np.random.default_rng(1).uniform(-10.0, 10.0, (40, 22))
        stacked = np.column_stack(pair_response(spec, pair, volts))
        alone = np.vstack([np.column_stack(pair_response(spec, pair, row[None]))
                           for row in volts])
        np.testing.assert_array_equal(stacked, alone)


class TestThreadedBuild:
    """The map's blocks split over the CPUs the process may use.  With
    `STACK_ROWS` = 64 the default 41x41 map has 27 blocks, and with
    `MAP_THREADS` = 4 one CPU builds them on the calling thread, four on it
    and three helpers."""

    GRID = default_grid()
    # SHA-256 of eta, leak_in1 and leak_in2 stacked, of the default device's
    # map on pair 1 over electrodes 1 and 4 at `default_grid`, as the serial
    # loop built it; captured with numpy 2.4 and OpenBLAS at one thread on
    # x86-64, like the `TestGoldenPairResponse` pins
    GOLDEN_SHA256 = "c0b18843a02cdbf9ca495c3bf55e9cbc433581b46e01f81afc2782f888fa9775"

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(evolution, "STACK_ROWS", 64)
        monkeypatch.setattr(calibration, "MAP_THREADS", 4)

    @staticmethod
    def on_cpus(monkeypatch, n):
        monkeypatch.setattr(calibration.os, "sched_getaffinity", lambda pid: set(range(n)))

    def build(self, grid=GRID):
        with mock.patch.object(calibration.threading, "Thread",
                               wraps=threading.Thread) as spy:
            lut = build_lookup_map(default_device(), SubcircuitPair(1), 1, 4, grid, grid)
        return lut, spy.call_count

    @staticmethod
    def digest(lut):
        tables = np.stack((lut.eta, lut.leakage_in1, lut.leakage_in2))
        return hashlib.sha256(tables.tobytes()).hexdigest()

    def test_tables_do_not_depend_on_the_cpu_count(self, monkeypatch):
        before = threading.active_count()
        maps = []
        for cpus, helpers in ((1, 0), (4, 3)):
            self.on_cpus(monkeypatch, cpus)
            lut, started = self.build()
            assert started == helpers
            assert threading.active_count() == before
            maps.append(lut)
        for name in ("eta", "leakage_in1", "leakage_in2"):
            np.testing.assert_array_equal(getattr(maps[0], name), getattr(maps[1], name))
        assert [self.digest(lut) for lut in maps] == [self.GOLDEN_SHA256] * 2

    def test_many_blocks_under_fast_thread_switching(self, monkeypatch):
        # 211 blocks of 8 cells on four threads switching every microsecond:
        # a lost or misplaced write would change the digest
        monkeypatch.setattr(evolution, "STACK_ROWS", 8)
        self.on_cpus(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            lut, started = self.build()
        finally:
            sys.setswitchinterval(interval)
        assert started == 3
        assert self.digest(lut) == self.GOLDEN_SHA256

    def test_cpus_past_map_threads_start_no_helper(self, monkeypatch):
        monkeypatch.setattr(calibration, "MAP_THREADS", 2)
        self.on_cpus(monkeypatch, 4)
        lut, started = self.build()
        assert started == 1
        assert self.digest(lut) == self.GOLDEN_SHA256

    def test_one_block_starts_no_thread(self, monkeypatch):
        self.on_cpus(monkeypatch, 4)
        lut, started = self.build(np.array([-1.0, 0.0, 1.0]))
        assert started == 0
        assert lut.eta.shape == (3, 3)

    @pytest.mark.parametrize("fixed,error", [
        (VoltageConfig(np.where(np.arange(22) == 6, 10.5, 0.0)), VoltageBoundError),
        (VoltageConfig(np.zeros(21)), DeviceSpecError)], ids=["over-limit", "short"])
    def test_fixed_voltages_checked_before_any_thread(self, monkeypatch, fixed, error):
        self.on_cpus(monkeypatch, 4)
        with mock.patch.object(calibration.threading, "Thread",
                               wraps=threading.Thread) as spy, \
                mock.patch.object(calibration, "pair_response") as response:
            with pytest.raises(error):
                build_lookup_map(default_device(), SubcircuitPair(1), 1, 4,
                                 self.GRID, self.GRID, fixed)
        assert spy.call_count == response.call_count == 0

    def test_error_of_the_lowest_failing_block_reaches_the_caller(self, monkeypatch):
        # blocks 9 and 6, told apart by their first cell's voltages, fall to
        # helpers 1 and 2 of four threads, and on a helper block 6 fails
        # only after block 9 has; a serial build stops at block 6
        first = {(self.GRID[k * 64 // 41], self.GRID[k * 64 % 41]): k for k in (9, 6)}
        real, nine_failed = calibration.pair_response, threading.Event()

        def pair_response(spec, pair, volts):
            k = first.get((volts[0, 0], volts[0, 3]))
            if k == 9:
                nine_failed.set()
            elif k == 6 and threading.current_thread() is not threading.main_thread():
                assert nine_failed.wait(10)
            if k is not None:
                raise RuntimeError(f"block {k}")
            return real(spec, pair, volts)

        monkeypatch.setattr(calibration, "pair_response", pair_response)
        before = threading.active_count()
        raised = []
        for cpus, helpers in ((1, 0), (4, 3)):
            self.on_cpus(monkeypatch, cpus)
            with mock.patch.object(calibration.threading, "Thread",
                                   wraps=threading.Thread) as spy:
                with pytest.raises(RuntimeError) as info:
                    build_lookup_map(default_device(), SubcircuitPair(1), 1, 4,
                                     self.GRID, self.GRID)
            assert spy.call_count == helpers
            assert threading.active_count() == before
            raised.append((type(info.value), str(info.value)))
        assert raised == [(RuntimeError, "block 6")] * 2

    def interrupted(self, monkeypatch, raise_in_block0):
        """Build on four threads with a Ctrl-C in the caller's block 0 or, if
        not `raise_in_block0`, in its first join.  Helper blocks wait until
        the caller has joined, so the failure is recorded before they end
        their first block.  Returns the blocks started, by number."""
        self.on_cpus(monkeypatch, 4)
        block = {(self.GRID[c // 41], self.GRID[c % 41]): c // 64 for c in range(0, 41 * 41, 64)}
        started, joined = [], threading.Event()
        real, real_thread = calibration.pair_response, threading.Thread

        def pair_response(spec, pair, volts):
            k = block[volts[0, 0], volts[0, 3]]
            started.append(k)
            if k == 0 and raise_in_block0:
                raise KeyboardInterrupt
            if k % 4:  # a helper's block
                assert joined.wait(10)
            return real(spec, pair, volts)

        class Thread(real_thread):
            def join(self, timeout=None):
                first = not joined.is_set()
                joined.set()
                if first and not raise_in_block0:
                    raise KeyboardInterrupt
                super().join(timeout)

        monkeypatch.setattr(calibration, "pair_response", pair_response)
        monkeypatch.setattr(calibration.threading, "Thread", Thread)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            build_lookup_map(default_device(), SubcircuitPair(1), 1, 4, self.GRID, self.GRID)
        assert threading.active_count() == before
        return set(started)

    def test_ctrl_c_in_the_callers_block_stops_the_helpers(self, monkeypatch):
        # each helper ends at most its first block, not its 6 or 7 of 27
        assert self.interrupted(monkeypatch, True) <= {0, 1, 2, 3}

    def test_ctrl_c_in_a_join_stops_the_helpers(self, monkeypatch):
        started = self.interrupted(monkeypatch, False)
        assert {k for k in started if k % 4} <= {1, 2, 3}
        assert {k for k in started if k % 4 == 0} == set(range(0, 27, 4))

    def test_helpers_run_in_the_callers_context_with_own_buffers(self, monkeypatch):
        self.on_cpus(monkeypatch, 4)
        seen = []
        real = calibration.pair_response

        def pair_response(spec, pair, volts):
            # a buffer shared with another thread would change under the call
            before = volts.copy()
            out = real(spec, pair, volts)
            seen.append((threading.current_thread(), np.geterr()["over"],
                         np.array_equal(volts, before)))
            return out

        monkeypatch.setattr(calibration, "pair_response", pair_response)
        with np.errstate(over="raise"):
            self.build()
        assert len(seen) == 27
        assert len({thread for thread, _, _ in seen}) == 4
        assert {(over, kept) for _, over, kept in seen} == {("raise", True)}


class TestGoldenPairResponse:
    """`pair_response` pinned bit for bit: `float.hex` of eta and both
    leakages at pairs 1, 5 and 10 of three devices, for five voltage rows
    stacked together and for each row alone.  Rows 1 and 3 are 0 V, where
    the X(x)X device's repeated spectrum sends them to `eigh_tridiagonal`.
    Captured with numpy 2.4 and OpenBLAS at one thread on x86-64; another
    LAPACK build may differ in the last bits."""

    DEVICES = {"default": default_device, "xx": make_xx_device,
               "random": lambda: random_device(np.random.default_rng(11))}

    # (device, lower guide), one (eta, leak_in1, leak_in2) per row
    CASES = [
        (('default', 1), (
            ('0x1.d063d51402cd9p-1', '0x1.0d589508a97a5p+6', '0x1.25a073351cf0ep+5'),
            ('0x1.ae6fa4c9a70e6p-2', '0x1.eb32bafeeb4dap+5', '0x1.fa8310d089e7ep+5'),
            ('0x1.f4e7da291bc48p-1', '0x1.d72759ada8dfcp+4', '0x1.0eea81b6c2b8dp+3'),
            ('0x1.ae6fa4c9a70e6p-2', '0x1.eb32bafeeb4dap+5', '0x1.fa8310d089e7ep+5'),
            ('0x1.8f928f4b1c563p-1', '0x1.d35f75313f286p+2', '0x1.62eb186fa2231p+5'),
        )),
        (('default', 5), (
            ('0x1.eb21a653910a2p-1', '0x1.b5f8df62b760ap+5', '0x1.89b097f1ec00ep+6'),
            ('0x1.480a859b4a327p-4', '0x1.5dd0e0438d2abp+6', '0x1.5d109220a365dp+6'),
            ('0x1.5dbb9c1a9ea64p-2', '0x1.6eeac933d3f8ep+4', '0x1.b3a9acebc7f5dp+5'),
            ('0x1.480a859b4a327p-4', '0x1.5dd0e0438d2abp+6', '0x1.5d109220a365dp+6'),
            ('0x1.622471621e802p-1', '0x1.5065d0335f396p+6', '0x1.83ae269c6e846p+6'),
        )),
        (('default', 10), (
            ('0x1.3b691f08b3b38p-4', '0x1.39075c779afd4p+5', '0x1.3a629d8d3e543p+5'),
            ('0x1.ae6fa4c9a6e22p-2', '0x1.fa8310d089de5p+5', '0x1.eb32bafeeb4e0p+5'),
            ('0x1.70d75c039ad89p-1', '0x1.211da3958bb0ep+6', '0x1.32817edc0dc25p+6'),
            ('0x1.ae6fa4c9a6e22p-2', '0x1.fa8310d089de5p+5', '0x1.eb32bafeeb4e0p+5'),
            ('0x1.4b8ee53ab7602p-3', '0x1.1b7af266ac637p+5', '0x1.64c24c77e2223p+4'),
        )),
        (('xx', 1), (
            ('0x1.fda2f4c16893ap-1', '0x1.149b57f2a5ed8p-6', '0x1.05f861c0cebffp+3'),
            ('0x1.377ce858a5d48p-108', '0x1.9000000000000p-45', '0x1.9000000000000p-45'),
            ('0x1.de4bf28c9ddf2p-2', '0x1.ad75d7ccd65d4p+2', '0x1.9606e67808a18p+4'),
            ('0x1.377ce858a5d48p-108', '0x1.9000000000000p-45', '0x1.9000000000000p-45'),
            ('0x1.f5643f4549683p-1', '0x1.0dc571e837fe6p+1', '0x1.929d07d0125cap+5'),
        )),
        (('xx', 5), (
            ('0x1.0b57edc82fb5cp-1', '0x1.3fb9b86397dafp+3', '0x1.00773953a405dp+5'),
            ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0'),
            ('0x1.f313808261e6dp-1', '0x1.586b28e439257p+6', '0x1.9d6ad9482c9c2p+5'),
            ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0'),
            ('0x1.90adc847ee5e6p-1', '0x1.557da6ae382a4p+6', '0x1.4428d91dda7cbp+4'),
        )),
        (('xx', 10), (
            ('0x1.862e47fd12abcp-2', '0x1.4d0dd1a0ded00p-7', '0x1.52802cc059e00p-5'),
            ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0'),
            ('0x1.4b54a485e9a28p-1', '0x1.c7e28794e0368p-2', '0x1.27bf9600d98e0p-4'),
            ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0'),
            ('0x1.72eeccf5e458ep-1', '0x1.237d57112da00p-4', '0x1.29221eb2d2d80p-6'),
        )),
        (('random', 1), (
            ('0x1.bd945dc702b2ep-2', '0x1.7bc6f39391cfcp+4', '0x1.2d7faa00b33aap+6'),
            ('0x1.ed6986ef686f3p-4', '0x1.29d61aec62da8p+6', '0x1.0483926a0c1a1p+6'),
            ('0x1.a0cc9dc230c8dp-2', '0x1.f9003b94bf647p+3', '0x1.b25fbe58d8067p+3'),
            ('0x1.ed6986ef686f3p-4', '0x1.29d61aec62da8p+6', '0x1.0483926a0c1a1p+6'),
            ('0x1.507bf2200e7f9p-1', '0x1.c148c19e527dbp+0', '0x1.f91b2f0a780a7p+3'),
        )),
        (('random', 5), (
            ('0x1.fc6f8b2d29191p-1', '0x1.7e64f0010c75bp+6', '0x1.a10bf94601970p+5'),
            ('0x1.63148f6dc58a0p-3', '0x1.45f926afe3d00p+6', '0x1.768f0872896c3p+5'),
            ('0x1.ca4dc1231c796p-1', '0x1.525a496d9b8ecp+1', '0x1.c88fb85278853p+3'),
            ('0x1.63148f6dc58a0p-3', '0x1.45f926afe3d00p+6', '0x1.768f0872896c3p+5'),
            ('0x1.f0bc373c7922cp-2', '0x1.1bea543249816p+6', '0x1.d15dafd5458a3p+5'),
        )),
        (('random', 10), (
            ('0x1.fa3f7175a3076p-1', '0x1.aa87350d38eaep+1', '0x1.95a8b33b027bap+4'),
            ('0x1.5d1fd53c2f6dbp-1', '0x1.4c94bcc6d81c2p+6', '0x1.e159f006b118bp+5'),
            ('0x1.b7cf0d1369353p-1', '0x1.3155ac8418535p+5', '0x1.0b284e184c79ep+4'),
            ('0x1.5d1fd53c2f6dbp-1', '0x1.4c94bcc6d81c2p+6', '0x1.e159f006b118bp+5'),
            ('0x1.c93b014af0fd6p-1', '0x1.7279edbb68d51p+4', '0x1.5d67703812930p+3'),
        )),
    ]

    @staticmethod
    def rows():
        volts = np.random.default_rng(5).uniform(-10.0, 10.0, (5, 22))
        volts[[1, 3]] = 0.0
        return volts

    @pytest.mark.parametrize("case,pins", CASES, ids=[f"{d}-pair{p}" for (d, p), _ in CASES])
    def test_rows_are_pinned(self, case, pins):
        name, lower = case
        spec, pair, volts = self.DEVICES[name](), SubcircuitPair(lower), self.rows()
        stacked = np.column_stack(pair_response(spec, pair, volts))
        alone = np.vstack([np.column_stack(pair_response(spec, pair, row[None]))
                           for row in volts])
        for got in (stacked, alone):
            assert [tuple(map(float.hex, row)) for row in got] == list(pins)


class TestSolveVoltage:
    def test_exact_cell_selected(self):
        lut = linear_eta_map()
        result = solve_voltage(lut, target_eta=0.6)
        assert result.v_a == pytest.approx(2.0)
        assert result.eta == pytest.approx(0.6)

    def test_tie_breaks_by_smaller_norm(self):
        lut = linear_eta_map()
        result = solve_voltage(lut, target_eta=0.5)
        assert (result.v_a, result.v_b) == (0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           target_eta=st.sampled_from([0.0, 0.25, 0.5, 0.625, 1.0]))
    def test_matches_cell_scan_under_ties(self, seed, shape, target_eta):
        # few distinct values and grids symmetric about 0 tie every key:
        # distance (0.25 and 0.75 around 0.5), mean leakage, and norm
        rng = np.random.default_rng(seed)
        grid_a, grid_b = (np.arange(n) - n // 2 + 0.0 for n in shape)
        eta = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], shape)
        leak1, leak2 = rng.choice([0.0, 1.0, 2.0], (2, *shape))
        lut = LookupMap(electrode_a=1, electrode_b=4, grid_a=grid_a,
                        grid_b=grid_b, eta=eta, leakage_in1=leak1,
                        leakage_in2=leak2, input_guides=(1, 2), fixed_voltages=FIXED)
        assert solve_voltage(lut, target_eta) == reference_solve(lut, target_eta)

    def test_full_ties_keep_grid_order(self):
        # the four corners tie on every key
        grid = np.array([-1.0, 0.0, 1.0])
        eta = np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.5]])
        leak = np.zeros((3, 3))
        lut = LookupMap(electrode_a=1, electrode_b=4, grid_a=grid, grid_b=grid,
                        eta=eta, leakage_in1=leak, leakage_in2=leak,
                        input_guides=(1, 2), fixed_voltages=FIXED)
        result = solve_voltage(lut, 0.5)
        assert (result.v_a, result.v_b) == (-1.0, -1.0)

    @pytest.mark.parametrize("target", [np.nan, np.inf, True])
    def test_non_finite_or_bool_target_refused(self, target):
        # NaN picked the map's first cell and True ranked against eta = 1
        with pytest.raises(ValueError, match=f"^target_eta must be a finite real, got {target}"):
            solve_voltage(linear_eta_map(), target)

    def test_target_outside_unit_interval_has_a_nearest_cell(self):
        assert solve_voltage(linear_eta_map(), 1.5).eta == 1.0

    def test_round_trip_within_grid_resolution(self, device):
        grid = np.linspace(-10, 10, 21)
        lut = build_lookup_map(device, SubcircuitPair(1), 1, 4, grid, grid)
        target = 0.8
        result = solve_voltage(lut, target)
        v = with_electrode(with_electrode(VoltageConfig.zeros(22), 1, result.v_a),
                           4, result.v_b)
        u = unitary(build_hamiltonian(device, v), device.coupling_length)
        eta = effective_reflectivity(u, SubcircuitPair(1))
        cell_variation = max(
            np.max(np.abs(np.diff(lut.eta, axis=0))),
            np.max(np.abs(np.diff(lut.eta, axis=1))),
        )
        assert abs(eta - target) <= cell_variation


class TestLeakageMonotonicity:
    def test_decoupling_beats_zero_voltage(self, device):
        # along the decoupling electrode axis the best cell never exceeds 0 V
        grid_b = default_grid()
        lut = build_lookup_map(device, SubcircuitPair(1), 1, 4,
                               np.array([0.0]), grid_b)
        zero_idx = int(np.argmin(np.abs(grid_b)))
        assert lut.leakage_in1.min() <= lut.leakage_in1[0, zero_idx]
        assert lut.leakage_in1.min() < lut.leakage_in1[0, zero_idx]


class TestGateVoltagesByLinearFit:
    def test_exact_linear_slice(self):
        lut = linear_eta_map()
        gates = gate_voltages_by_linear_fit(lut, fixed_v_b=0.0)
        voltages = {g.target_eta: g.voltage for g in gates}
        assert voltages[0.0] == pytest.approx(-10.0)
        assert voltages[0.5] == pytest.approx(0.0, abs=1e-12)
        assert voltages[1.0] == pytest.approx(10.0)
        assert not any(g.clamped for g in gates)

    def test_targets_and_compiler_gates_read_one_table(self, monkeypatch):
        # a gate added to subcircuits.GATE_ETAS is fitted and compiled alike
        monkeypatch.setitem(subcircuits.GATE_ETAS, "Y", 0.25)
        gates = gate_voltages_by_linear_fit(linear_eta_map(), fixed_v_b=0.0)
        assert [g.target_eta for g in gates] == [0.0, 0.5, 1.0, 0.25]
        assert gates[-1].voltage == pytest.approx(-5.0)
        np.testing.assert_array_equal(gate_target("Y"), coupler_split(0.25))

    def test_clamping_flag(self):
        grid = default_grid()
        eta = np.clip(0.02 * grid[:, None] + 0.5 + 0 * grid[None, :], 0, 1)
        zeros = np.zeros_like(eta)
        lut = LookupMap(electrode_a=1, electrode_b=4, grid_a=grid, grid_b=grid,
                        eta=eta, leakage_in1=zeros, leakage_in2=zeros,
                        input_guides=(1, 2), fixed_voltages=FIXED)
        gates = gate_voltages_by_linear_fit(lut, fixed_v_b=0.0)
        x_gate = next(g for g in gates if g.target_eta == 0.0)
        assert x_gate.clamped
        assert x_gate.voltage == -10.0

    def test_clamps_to_the_grids_own_ends(self, device):
        # an asymmetric grid clamped to +/- its larger end: eta = 1 came out
        # at -5.92 V, unflagged, on a map that starts at -2 V
        grid = uniform_grid(-2.0, 10.0, 0.5)
        lut = build_lookup_map(device, SubcircuitPair(1), 1, 4, grid, grid)
        gates = {g.target_eta: g for g in gate_voltages_by_linear_fit(lut, 0.0)}
        assert (gates[1.0].voltage, gates[1.0].clamped) == (-2.0, True)
        assert (gates[0.0].voltage, gates[0.0].clamped) == (10.0, True)
        assert -2.0 < gates[0.5].voltage < 10.0 and not gates[0.5].clamped

    @pytest.mark.parametrize("v_b", [np.nan, -np.inf, True])
    def test_non_finite_or_bool_v_b_refused(self, v_b):
        # NaN fitted the first grid_b column
        with pytest.raises(ValueError, match=f"^fixed_v_b must be a finite real, got {v_b}"):
            gate_voltages_by_linear_fit(linear_eta_map(), v_b)

    def test_flat_slice_rejected(self):
        grid = default_grid()
        eta = np.full((grid.size, grid.size), 0.5)
        zeros = np.zeros_like(eta)
        lut = LookupMap(electrode_a=1, electrode_b=4, grid_a=grid, grid_b=grid,
                        eta=eta, leakage_in1=zeros, leakage_in2=zeros,
                        input_guides=(1, 2), fixed_voltages=FIXED)
        with pytest.raises(FlatCurveError):
            gate_voltages_by_linear_fit(lut, fixed_v_b=0.0)


class TestMapExport:
    def test_csv_layout(self, tmp_path, device):
        grid = np.array([-1.0, 1.0])
        lut = build_lookup_map(device, SubcircuitPair(1), 1, 4, grid, grid)
        path = tmp_path / "map.csv"
        map_to_csv(lut, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "v_a,v_b,eta,leak_in1,leak_in2"
        assert len(lines) == 5
        first = [float(x) for x in lines[1].split(",")]
        assert first[:2] == [-1.0, -1.0]

    def test_csv_bytes_match_cell_writer(self, tmp_path):
        # -0.0, subnormals, integral values and full 17-digit mantissas
        lut = LookupMap(
            electrode_a=1, electrode_b=4,
            grid_a=np.array([-0.0, 5e-324, 3.0]),
            grid_b=np.array([-10.0, 1.0 / 3.0]),
            eta=np.array([[0.0, 1.0], [5e-324, 2.2250738585072014e-308],
                          [0.1, 0.49999999999999994]]),
            leakage_in1=np.array([[100.0, -0.0], [1e-300, 4e-320],
                                  [12.0, 99.99999999999999]]),
            leakage_in2=np.array([[2.0 / 3.0, 7.0], [0.0, 1e-9],
                                  [50.0, 3.141592653589793]]),
            input_guides=(1, 2), fixed_voltages=FIXED,
        )
        path = tmp_path / "map.csv"
        map_to_csv(lut, path)
        assert path.read_bytes() == reference_csv(lut).encode()

    def test_metadata(self, device):
        grid = np.array([-1.0, 1.0])
        lut = build_lookup_map(device, SubcircuitPair(1), 1, 4, grid, grid)
        meta = map_metadata(lut)
        assert meta["electrode_a"] == 1
        assert meta["input_guides"] == [1, 2]
        assert meta["grid_a_points"] == 2
