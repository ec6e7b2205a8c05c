import json
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwasim import compiler, evolution
from rwasim.compiler import (
    ElectrodeConfig,
    best_so_far,
    gate_target,
    minimize_box,
    objective,
    objective_with_gradient,
    optimize_parallel_gates,
    preset_config,
    random_base_device,
    sweep_chip_length,
    trace_to_csv,
)
from rwasim.csvio import write_json
from rwasim.device import (DeviceSpec, DeviceSpecError, VoltageBoundError,
                           VoltageConfig, default_device)
from rwasim.subcircuits import GATE_ETAS, SubcircuitPair, coupler_split

from conftest import (dense_sensitivity_device, kernel_block_metrics, make_xx_device,
                      spec_equal, with_electrode)
from scalar_reference import (
    full_u_evaluate,
    scalar_objective_with_gradient,
    sequential_restarts,
)

XX = (gate_target("X"), gate_target("X"))


def kernel_metrics(spec, config, targets, v):
    """(objective, per-pair (fidelity, crosstalk, leakage)) from the kernel
    at the active electrodes' voltages of v."""
    x = v.volts[config.indices(spec)]
    [value], _, means = objective_with_gradient(spec, config, targets)(x[None])
    return value, tuple(map(tuple, means[..., 0].T.tolist()))


class TestGateTarget:
    def test_target_is_the_coupler_split(self):
        for gate, eta in GATE_ETAS.items():
            target, split = gate_target(gate), coupler_split(eta)
            assert target.shape == split.shape == (2, 2)
            assert target.tobytes() == split.tobytes()
        # the H split is exactly one half, not sqrt(0.5) squared
        np.testing.assert_array_equal(gate_target("H"), np.full((2, 2), 0.5))

    def test_unknown_gate(self):
        with pytest.raises(KeyError, match="unknown gate"):
            gate_target("Y")


class TestPresets:
    def test_config_definitions(self):
        c1 = preset_config("config1")
        assert c1.active_electrodes == tuple(range(1, 9))
        assert tuple(p.guides for p in c1.pairs) == ((1, 2), (3, 4))
        c2 = preset_config("config2")
        assert c2.active_electrodes == (1, 2, 3, 4, 15, 16, 17, 18)
        assert tuple(p.guides for p in c2.pairs) == ((1, 2), (8, 9))
        c3 = preset_config("config3")
        assert c3.active_electrodes == tuple(range(1, 23))
        assert set(c2.active_electrodes) < set(c3.active_electrodes)

    def test_unknown_config(self):
        with pytest.raises(KeyError):
            preset_config("config4")

    def test_overlapping_pairs_rejected(self):
        config = ElectrodeConfig(name="bad", active_electrodes=(1, 2),
                                 pairs=(SubcircuitPair(1), SubcircuitPair(2)))
        with pytest.raises(ValueError, match="disjoint"):
            config.indices(default_device())

    def test_duplicate_electrodes_rejected(self):
        config = ElectrodeConfig(name="bad", active_electrodes=(1, 2, 1),
                                 pairs=(SubcircuitPair(1),))
        with pytest.raises(ValueError, match="duplicates"):
            config.indices(default_device())

    def test_pair_numbers_checked_before_disjointness(self):
        # construction read the string pair's guides and raised Python's
        # "can only concatenate str (not "int") to str" TypeError
        config = ElectrodeConfig("c", (1, 2), (SubcircuitPair("1"), SubcircuitPair(3)))
        with pytest.raises(IndexError, match=r"^pair 1 out of range 1\.\.10$"):
            config.indices(default_device())


class TestObjective:
    def test_exact_device_scores_zero(self):
        spec = make_xx_device()
        config = preset_config("config2")
        obj = objective(spec, VoltageConfig.zeros(22), config, XX)
        assert obj == pytest.approx(0.0, abs=1e-20)

    def test_evaluate_matches_closed_form(self):
        # Guides 1-2-3 form a uniform three-guide lattice (coupling k, beta 0)
        # and guide 4 is isolated.  With theta = k L / sqrt(2), input 1 ends
        # in (cos^4, sin^2(2 theta) / 2, sin^4) over guides 1..3, input 2 in
        # (sin^2(2 theta) / 2, cos^2(2 theta), sin^2(2 theta) / 2), and input 3
        # mirrors input 1.  config1 reads pairs (1,2) (target H) and (3,4)
        # (target I), so guide 3 is both crosstalk and leakage for pair a.
        length, theta = 24.0, 0.4
        coupling = np.zeros(10)
        coupling[:2] = math.sqrt(2.0) * theta / length
        spec = DeviceSpec(base_beta=np.zeros(11), base_coupling=coupling,
                          coupling_length=length)
        c4, s4 = math.cos(theta) ** 4, math.sin(theta) ** 4
        half_s2 = 0.5 * math.sin(2 * theta) ** 2
        c2 = math.cos(2 * theta) ** 2

        def h_fidelity(p_lower, p_upper):
            own = p_lower + p_upper
            return math.sqrt(0.5 * p_lower / own) + math.sqrt(0.5 * p_upper / own)

        fid_a = 0.5 * (h_fidelity(c4, half_s2) + h_fidelity(half_s2, c2))
        ct_a = 0.5 * (s4 + half_s2)
        leak_a = 0.5 * (s4 + half_s2)
        ct_b = 0.5 * (1.0 - c4)  # input 4 stays put
        leak_b = 0.5 * (1.0 - c4)
        expected = ((1 - fid_a) ** 2 + ct_a**2 + leak_a**2
                    + ct_b**2 + leak_b**2)

        targets = (gate_target("H"), gate_target("I"))
        obj, (m_a, m_b) = kernel_metrics(spec, preset_config("config1"), targets,
                                         VoltageConfig.zeros(22))
        # each pair's (fidelity, crosstalk, leakage)
        assert m_a == pytest.approx((fid_a, ct_a, leak_a), abs=1e-12)
        assert m_b == pytest.approx((1.0, ct_b, leak_b), abs=1e-12)
        assert obj == pytest.approx(expected, abs=1e-12)
        assert expected > 0.01  # far from the trivial zero objective

    def test_worst_case_all_leaked(self):
        # a symmetric permutation sending both pairs' power elsewhere: F = 0
        # by convention, leak = 1, ct = 0 -> objective 1+1+0+0+1+1 = 4
        perm = np.eye(11, dtype=complex)[[4, 5, 7, 8, 0, 1, 6, 2, 3, 9, 10]]
        obj, metrics = kernel_block_metrics(perm, XX)
        np.testing.assert_array_equal(metrics, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        assert obj == 4.0

    def test_unnormalized_target_rejected(self):
        bad = 2.0 * np.eye(2)
        with pytest.raises(ValueError, match="not normalized"):
            objective(make_xx_device(), VoltageConfig.zeros(22),
                      preset_config("config2"), (bad, bad))

    def test_wrong_voltage_count_rejected(self):
        for n in (21, 23):
            with pytest.raises(DeviceSpecError):
                objective(make_xx_device(), VoltageConfig.zeros(n),
                          preset_config("config2"), XX)

    def test_electrode_beyond_the_device_named(self):
        # numpy's "index 8 is out of bounds" came first: the voltages were
        # indexed before the kernel checked the electrodes
        with pytest.raises(IndexError, match=r"^electrode 9 out of range 1\.\.8$"):
            objective(DeviceSpec(n_electrodes=8), VoltageConfig.zeros(8),
                      preset_config("config3"), XX)

    def test_over_limit_voltage_names_the_electrode(self):
        # the kernel printed its whole batch, "voltages [[11.  0. ...]] exceed ..."
        config = preset_config("config2")  # active electrodes 1-4 and 15-18
        for electrode, volts in ((1, 11.0), (16, -10.5)):
            v = with_electrode(VoltageConfig.zeros(22), electrode, volts)
            with pytest.raises(VoltageBoundError, match=rf"^electrode {electrode} at "
                               rf"{volts} V exceeds limit \+/-10\.0 V$"):
                objective(make_xx_device(), v, config, XX)

    def test_inactive_electrodes_forced_to_zero(self):
        spec = make_xx_device()
        config = preset_config("config2")
        v = with_electrode(VoltageConfig.zeros(22), 10, 5.0)  # inactive in config2
        assert objective(spec, v, config, XX) == \
            objective(spec, VoltageConfig.zeros(22), config, XX)


GATES = st.sampled_from(["X", "H", "I"])


class TestObjectiveWithGradient:
    @settings(max_examples=60, deadline=None)
    @given(device_seed=st.one_of(st.none(), st.integers(0, 2**16)),
           config_name=st.sampled_from(["config1", "config2", "config3"]),
           gates=st.tuples(GATES, GATES),
           eps=st.sampled_from([0.0, compiler.SEARCH_EPS]),
           point_seed=st.integers(0, 2**32 - 1))
    def test_matches_objective_and_central_differences(
            self, device_seed, config_name, gates, eps, point_seed):
        # device_seed None is the decoupled X(x)X device, whose Hamiltonian
        # has repeated eigenvalues; eps > 0 is the search's sum (r^2 + eps r)
        spec = (make_xx_device() if device_seed is None
                else random_base_device(device_seed))
        config = preset_config(config_name)
        targets = tuple(gate_target(g) for g in gates)
        active = config.indices(spec)
        inner = spec.voltage_limit - 1e-3
        x = np.random.default_rng(point_seed).uniform(-inner, inner, len(active))

        def embed(y):
            volts = np.zeros(spec.n_electrodes)
            volts[active] = y
            return VoltageConfig(volts)

        def reference(y):
            value, metrics = full_u_evaluate(spec, embed(y), config, targets)
            return value + eps * sum((1.0 - fid) + ct + leak
                                     for fid, ct, leak in metrics)

        f = objective_with_gradient(spec, config, targets)
        [value], [grad], _ = f(x[None], eps)
        obj, metrics = kernel_metrics(spec, config, targets, embed(x))
        ref_obj, ref_metrics = full_u_evaluate(spec, embed(x), config, targets)
        assert objective(spec, embed(x), config, targets) == obj == f(x[None])[0][0]
        assert abs(obj - ref_obj) <= 1e-12
        assert abs(value - reference(x)) <= 1e-12
        for m, ref in zip(metrics, ref_metrics):
            assert np.max(np.abs(np.subtract(m, ref))) <= 1e-12
        h = 1e-5
        step = h * np.eye(len(active))
        central = np.array([(reference(x + e) - reference(x - e)) / (2 * h)
                            for e in step])
        assert np.max(np.abs(grad - central)) <= 1e-6 * np.max(np.abs(central))

    @settings(max_examples=40, deadline=None)
    @given(device_seed=st.integers(0, 2**16),
           config_name=st.sampled_from(["config1", "config2", "config3"]),
           gates=st.tuples(GATES, GATES),
           point_seed=st.integers(0, 2**32 - 1))
    def test_fidelity_rows_normalized(self, device_seed, config_name, gates,
                                      point_seed):
        # the kernel's fidelity skips distribution_fidelity's normalisation
        # check, so the rows it hands the Bhattacharyya sum must sum to 1
        spec = random_base_device(device_seed)
        config = preset_config(config_name)
        targets = tuple(gate_target(g) for g in gates)
        x = np.random.default_rng(point_seed).uniform(
            -spec.voltage_limit, spec.voltage_limit, len(config.active_electrodes))
        f = objective_with_gradient(spec, config, targets)
        with mock.patch.object(compiler, "_bhattacharyya",
                               wraps=compiler._bhattacharyya) as core:
            f(x[None])
        target_p, split = core.call_args.args
        assert target_p.shape == (4, 2)
        assert split.shape == (1, 4, 2)
        np.testing.assert_allclose(target_p.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(split.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(device_seed=st.one_of(st.none(), st.integers(0, 2**16)),
           config_name=st.sampled_from(["config1", "config2", "config3"]),
           gates=st.tuples(GATES, GATES),
           batch=st.sampled_from([1, 7, 64]),
           eps=st.sampled_from([0.0, compiler.SEARCH_EPS]),
           point_seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_scalar_reference(self, device_seed, config_name, gates,
                                            batch, eps, point_seed):
        # eps > 0 is the search's sum (r^2 + eps r), which every search
        # round runs
        spec = (make_xx_device() if device_seed is None
                else random_base_device(device_seed))
        config = preset_config(config_name)
        targets = tuple(gate_target(g) for g in gates)
        x = np.random.default_rng(point_seed).uniform(
            -spec.voltage_limit, spec.voltage_limit,
            (batch, len(config.active_electrodes)))
        values, grads, metrics = objective_with_gradient(spec, config, targets)(x, eps)
        assert values.shape == (batch,)
        assert metrics.shape == (3, 2, batch)
        assert grads.shape == x.shape
        scalar = scalar_objective_with_gradient(spec, config, targets)
        for row, value, grad in zip(x, values, grads):
            ref_value, ref_grad = scalar(row, eps)
            assert abs(value - ref_value) <= 1e-12
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(device_seed=st.one_of(st.none(), st.just("dense"), st.integers(0, 2**16)),
           config_name=st.sampled_from(["config1", "config2", "config3"]),
           gates=st.tuples(GATES, GATES),
           batch=st.sampled_from([7, 64, 256]),
           eps=st.sampled_from([0.0, compiler.SEARCH_EPS]),
           point_seed=st.integers(0, 2**32 - 1))
    # every electrode moves every guide and coupling of the dense device, so
    # the kernel's products with the sensitivities sum 22 terms a row
    @example(device_seed="dense", config_name="config3", gates=("X", "H"), batch=40,
             eps=compiler.SEARCH_EPS, point_seed=0)
    def test_rows_equal_single_point_calls(self, device_seed, config_name, gates,
                                           batch, eps, point_seed):
        # the lockstep's determinism rests on this: a restart's values do not
        # depend on which restarts share its round
        spec = (make_xx_device() if device_seed is None
                else dense_sensitivity_device() if device_seed == "dense"
                else random_base_device(device_seed))
        config = preset_config(config_name)
        f = objective_with_gradient(spec, config, tuple(gate_target(g) for g in gates))
        x = np.random.default_rng(point_seed).uniform(
            -spec.voltage_limit, spec.voltage_limit,
            (batch, len(config.active_electrodes)))
        values, grads, metrics = f(x, eps)
        for b in range(batch):
            value, grad, metric = f(x[b:b + 1], eps)
            assert value[0] == values[b]
            np.testing.assert_array_equal(grad[0], grads[b])
            np.testing.assert_array_equal(metric[..., 0], metrics[..., b])

    @pytest.mark.parametrize("eps", [0.0, compiler.SEARCH_EPS])
    @pytest.mark.parametrize("config_name", ["config1", "config2", "config3"])
    def test_gradient_defined_where_an_own_power_is_zero(self, config_name, eps):
        # at 0 V the X(x)X device swaps each pair, so the I target's own output
        # power is zero up to rounding; sqrt(t p) = sqrt(t) |u| has a cone there
        # and the gradient is its central difference, not one set by rounding
        spec, config = make_xx_device(), preset_config(config_name)
        for gates in ("IX", "XI", "II", "HI"):
            f = objective_with_gradient(spec, config,
                                        tuple(gate_target(g) for g in gates))
            n = len(config.active_electrodes)
            [_], [grad], _ = f(np.zeros((1, n)), eps)
            h = 1e-6
            central = np.array([(f(h * e[None], eps)[0][0] - f(-h * e[None], eps)[0][0])
                                / (2 * h) for e in np.eye(n)])
            np.testing.assert_allclose(grad, central, rtol=0, atol=1e-8,
                                       err_msg=gates)

    def test_zero_at_exact_solution(self):
        spec = make_xx_device()
        [value], [grad], _ = objective_with_gradient(spec, preset_config("config3"),
                                                     XX)(np.zeros((1, 22)))
        assert value == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_out_of_bounds_rejected(self):
        f = objective_with_gradient(make_xx_device(), preset_config("config2"), XX)
        with pytest.raises(VoltageBoundError):
            f(np.full((1, 8), 10.5))
        with pytest.raises(VoltageBoundError):
            f(np.full((1, 8), np.nan))
        with pytest.raises(VoltageBoundError):  # one bad row of a batch
            f(np.vstack([np.zeros(8), np.full(8, np.nan)]))


class TestOptimize:
    def test_finds_exact_solution(self):
        spec = make_xx_device()
        result = optimize_parallel_gates(spec, preset_config("config2"), XX,
                                         restarts=8, seed=1)
        assert result.objective <= 1e-6
        assert result.fidelities[0] > 0.999
        assert result.fidelities[1] > 0.999

    def test_trace_best_so_far_non_increasing(self):
        spec = make_xx_device()
        result = optimize_parallel_gates(spec, preset_config("config2"), XX,
                                         restarts=6, seed=3)
        running = best_so_far(result.restart_trace)
        assert np.all(np.diff(running) <= 0)
        assert result.restart_trace.size == 6

    def test_deterministic(self):
        spec = random_base_device(seed=5)
        a = optimize_parallel_gates(spec, preset_config("config2"), XX,
                                    restarts=3, seed=9)
        b = optimize_parallel_gates(spec, preset_config("config2"), XX,
                                    restarts=3, seed=9)
        np.testing.assert_array_equal(a.best_voltages.volts,
                                      b.best_voltages.volts)
        np.testing.assert_array_equal(a.restart_trace, b.restart_trace)
        assert a.objective == b.objective

    def test_voltages_bounded_and_inactive_zero(self):
        spec = random_base_device(seed=2)
        config = preset_config("config2")
        result = optimize_parallel_gates(spec, config, XX, restarts=3, seed=7)
        volts = result.best_voltages.volts
        assert np.all(np.abs(volts) <= 10.0)
        inactive = set(range(1, 23)) - set(config.active_electrodes)
        for e in inactive:
            assert volts[e - 1] == 0.0

    def test_recomputation_consistency(self):
        # the reported objective is the winning restart's own value, and the
        # reported metrics are the ones behind it, bit for bit
        for seed in (4, 11, 12, 13):
            for spec in (make_xx_device(), random_base_device(seed=seed)):
                for name in ("config1", "config2", "config3"):
                    config = preset_config(name)
                    result = optimize_parallel_gates(spec, config, XX, restarts=3,
                                                     seed=seed)
                    obj, (m1, m2) = kernel_metrics(spec, config, XX,
                                                   result.best_voltages)
                    assert result.objective == result.restart_trace.min() == obj
                    assert (result.fidelities, result.crosstalks,
                            result.leakages) == tuple(zip(m1, m2))

    def test_kernel_built_once_per_call(self):
        # the winner is scored by the closure its restarts ran
        with mock.patch.object(compiler, "objective_with_gradient",
                               wraps=compiler.objective_with_gradient) as build:
            optimize_parallel_gates(make_xx_device(), preset_config("config2"), XX,
                                    restarts=2, seed=0)
        assert build.call_count == 1

    def test_polish_takes_its_start_from_the_scoring_call(self, monkeypatch):
        # the kernel sees every restart once in the scoring call and the
        # winner once more, and a polished restart's counted first evaluation
        # is the scoring call's, not a kernel row of its own
        build, rows = compiler.objective_with_gradient, []

        def counted(*args):
            kernel = build(*args)

            def f(x, *eps):
                rows.append(len(x))
                return kernel(x, *eps)
            return f

        monkeypatch.setattr(compiler, "objective_with_gradient", counted)
        with mock.patch.object(compiler, "minimize_box",
                               wraps=compiler.minimize_box) as driver:
            result = optimize_parallel_gates(default_device(), preset_config("config2"),
                                             (gate_target("X"), gate_target("H")),
                                             restarts=20, seed=5)
        polished = sum(len(call.args[1]) for call in driver.call_args_list[1:])
        assert polished > 0
        assert sum(rows) == result.restart_nfev.sum() - polished + 20 + 1

    def test_polish_start_equals_its_evaluation(self):
        # a search end point lies in the box as the polish would clip it, so
        # the scoring call's (f, g) there are the bits the polish's own first
        # evaluation gives, and the polish ends where it would without them
        solver, polish = compiler.minimize_box, []

        def recorded(fun, x0, *args, start=None, **kwargs):
            if start is not None:
                polish.append((fun, x0, args, kwargs, start))
            return solver(fun, x0, *args, start=start, **kwargs)

        with mock.patch.object(compiler, "minimize_box", recorded):
            optimize_parallel_gates(default_device(), preset_config("config2"),
                                    (gate_target("H"), gate_target("H")),
                                    restarts=20, seed=5)
        assert polish
        for fun, x0, args, kwargs, start in polish:
            for got, want in zip(start, fun(x0)):
                np.testing.assert_array_equal(got, want)
            with_start = solver(fun, x0, *args, start=start, **kwargs)
            for got, want in zip(with_start, solver(fun, x0, *args, **kwargs)):
                np.testing.assert_array_equal(got, want)

    def test_abnormal_restart_kept_and_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(compiler, "MAX_ITERATIONS", 1)
        with caplog.at_level(logging.WARNING, logger="rwasim.compiler"):
            result = optimize_parallel_gates(make_xx_device(),
                                             preset_config("config2"), XX,
                                             restarts=2, seed=0)
        assert result.restart_status.tolist() == [1, 1]  # iteration limit
        assert result.restart_nit.tolist() == [1, 1]
        assert result.restart_reason == ("iteration limit reached",) * 2
        warnings = [r for r in caplog.records if r.name == "rwasim.compiler"]
        assert len(warnings) == 2
        message = warnings[0].getMessage()
        assert "status 1 after 1 iterations" in message
        assert message.endswith("(iteration limit reached)")

    def test_abnormal_stop_warning_names_line_search(self, monkeypatch, caplog):
        solver, calls = compiler.minimize_box, []

        def first_fails_line_search(*args, **kwargs):
            result = solver(*args, **kwargs)
            if calls:  # the polish, which takes only restarts that converged
                return result
            calls.append(result)
            return result._replace(stop=np.where(np.arange(len(result.stop)) == 0,
                                                 4, result.stop))

        monkeypatch.setattr(compiler, "minimize_box", first_fails_line_search)
        with caplog.at_level(logging.WARNING, logger="rwasim.compiler"):
            result = optimize_parallel_gates(make_xx_device(),
                                             preset_config("config2"), XX,
                                             restarts=2, seed=0)
        assert result.restart_status.tolist() == [2, 0]
        assert result.restart_reason[0] == "line search found no acceptable step"
        [warning] = [r for r in caplog.records if r.name == "rwasim.compiler"]
        assert warning.getMessage().endswith(
            "(line search found no acceptable step)")

    @pytest.mark.parametrize("config", ["config1", "config2", "config3"])
    def test_built_in_devices_take_a_step_in_every_restart(self, config):
        # far from refusing the compile, which takes every restart at 0
        # iterations (TestCompile::test_compile_that_takes_no_step_refused in
        # test_cli.py)
        for spec in [default_device(), make_xx_device()] + [
                random_base_device(seed) for seed in range(4)]:
            result = optimize_parallel_gates(spec, preset_config(config),
                                             (gate_target("X"), gate_target("H")),
                                             restarts=10)
            assert result.restart_nit.min() >= 1

    def test_converged_restarts_log_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, logger="rwasim.compiler"):
            result = optimize_parallel_gates(make_xx_device(),
                                             preset_config("config2"), XX,
                                             restarts=2, seed=0)
        assert result.restart_status.tolist() == [0, 0]
        assert np.all(result.restart_nfev > 0)
        assert not caplog.records

    def test_hits_match_sequential_restarts_in_aggregate(self):
        # the batched search reaches the exact solution about as often as
        # scipy's L-BFGS-B from the same starts, not always from the same ones
        spec, config = make_xx_device(), preset_config("config2")
        result = optimize_parallel_gates(spec, config, XX, restarts=80, seed=2)
        sequential = sequential_restarts(spec, config, XX, restarts=80, seed=2)
        hits = int(np.sum(result.restart_trace <= 1e-6))
        scipy_hits = sum(r.fun <= 1e-6 for r in sequential)
        assert scipy_hits >= 5
        assert hits >= 0.95 * scipy_hits
        assert result.restart_nfev.sum() <= sum(r.nfev for r in sequential)

    @staticmethod
    def blocked_calls(monkeypatch, spec, targets):
        """The rows of each `minimize_box` call and of each kernel call in a
        7-restart compile with `STACK_ROWS` = 3, which must end where the
        unblocked compile does."""
        config = preset_config("config2")
        whole = optimize_parallel_gates(spec, config, targets, restarts=7, seed=4)
        monkeypatch.setattr(evolution, "STACK_ROWS", 3)
        build, rows = compiler.objective_with_gradient, []

        def counted(*args):
            kernel = build(*args)

            def f(x, *eps):
                rows.append(len(x))
                return kernel(x, *eps)
            return f

        monkeypatch.setattr(compiler, "objective_with_gradient", counted)
        with mock.patch.object(compiler, "minimize_box",
                               wraps=compiler.minimize_box) as driver:
            blocked = optimize_parallel_gates(spec, config, targets, restarts=7,
                                              seed=4)
        np.testing.assert_array_equal(blocked.restart_status, whole.restart_status)
        np.testing.assert_allclose(blocked.restart_trace, whole.restart_trace,
                                   rtol=0, atol=1e-12)
        return [len(call.args[1]) for call in driver.call_args_list], rows

    def test_restart_blocks_bound_the_batch(self, monkeypatch):
        sizes, rows = self.blocked_calls(monkeypatch, make_xx_device(), XX)
        assert sizes[:3] == [3, 3, 1]  # the search; then the polish
        assert max(sizes) <= 3 and max(rows) <= 3

    def test_polish_blocks_bound_the_batch(self, monkeypatch):
        # no exact solution: the polish takes more restarts than a block holds
        sizes, rows = self.blocked_calls(monkeypatch, default_device(),
                                         (gate_target("X"), gate_target("H")))
        assert sizes[:3] == [3, 3, 1]
        assert sum(sizes[3:]) > 3
        assert max(sizes) <= 3 and max(rows) <= 3

    @pytest.mark.parametrize("spec, targets", [
        (make_xx_device(), XX),
        (default_device(), (gate_target("H"), gate_target("H"))),
    ], ids=["xx", "default"])
    def test_trace_scores_each_end_point(self, spec, targets):
        # restart_trace holds sum r^2, objective() at each restart's end point:
        # the search's, or the polish's where it ran
        config = preset_config("config2")
        solver, calls = compiler.minimize_box, []

        def recorded(fun, x0, *args, **kwargs):
            calls.append((np.array(x0), solver(fun, x0, *args, **kwargs)))
            return calls[-1][1]

        with mock.patch.object(compiler, "minimize_box", recorded):
            result = optimize_parallel_gates(spec, config, targets, restarts=20,
                                             seed=5)
        [(_, search), *polish] = calls
        ends = search.x.copy()
        for x0, run in polish:
            for start, end in zip(x0, run.x):
                [restart] = np.flatnonzero((search.x == start).all(axis=1))
                ends[restart] = end
        assert polish
        active = config.indices(spec)
        for restart, end in enumerate(ends):
            volts = np.zeros(spec.n_electrodes)
            volts[active] = end
            assert result.restart_trace[restart] == objective(
                spec, VoltageConfig(volts), config, targets)
        assert result.objective == result.restart_trace.min()

    def test_hits_at_least_the_plain_objective_search(self):
        # compile_xx's device, restart counts and seed derivation at pass 0,
        # workload seeds 1-12: a search on sum r^2 alone made 180 hits here,
        # the f_eps search run to ftol 1e-13 184, at SEARCH_FTOL 183, and
        # with the stall rule 183.  Held-out seeds 13-24 made 187 at
        # SEARCH_FTOL.  A hit stops on f_eps's quadratic bottom near sum r^2 =
        # 1e-16, so every winner stays far below the 1e-6 hit bar
        spec = make_xx_device()
        for seeds, least in ((range(1, 13), 181), (range(13, 25), 185)):
            hits, winners = 0, []
            for workload_seed in seeds:
                for k, (name, restarts) in enumerate((("config2", 50),
                                                      ("config3", 45))):
                    result = optimize_parallel_gates(spec, preset_config(name), XX,
                                                     restarts=restarts,
                                                     seed=(workload_seed << 32) | k)
                    hits += int(np.sum(result.restart_trace <= 1e-6))
                    winners.append(result.objective)
            assert hits >= least
            assert max(winners) <= 1e-12

    def test_search_stops_at_search_ftol_and_polish_at_1e_13(self):
        # the f_eps search only has to put each restart in its basin, so it
        # stops at the looser SEARCH_FTOL or once f_eps stalls above a floor;
        # the polish on sum r^2 keeps 1e-13 and no stall rule, and both stages
        # stop at GTOL = 1e-10
        solver, calls = compiler.minimize_box, []

        def recorded(fun, x0, *args, start=None, **kwargs):
            calls.append((start is not None, kwargs["ftol"], kwargs.get("stall")))
            return solver(fun, x0, *args, start=start, **kwargs)

        with mock.patch.object(compiler, "minimize_box", recorded):
            optimize_parallel_gates(default_device(), preset_config("config2"),
                                    (gate_target("H"), gate_target("H")),
                                    restarts=20, seed=5)
        [search, *polish] = calls
        assert search == (False, 1e-6, (5, 0.1, 0.01))
        assert polish and set(polish) == {(True, 1e-13, None)}
        assert (compiler.SEARCH_FTOL, compiler.GTOL) == (1e-6, 1e-10)

    def test_default_device_sweep_stops_converged(self, caplog):
        # restarts here stop at bound-constrained minima where no line search
        # can show a decrease above rounding: they converge, without a warning
        with caplog.at_level(logging.WARNING, logger="rwasim.compiler"):
            results = sweep_chip_length(default_device(), preset_config("config2"),
                                        (gate_target("X"), gate_target("H")),
                                        [12.0, 18.0, 24.0, 30.0, 36.0],
                                        restarts=100, seed=3)
        for _, result in results:
            assert not np.any(result.restart_status == 2)
        assert "no decrease above rounding" in {
            reason for _, result in results for reason in result.restart_reason}
        assert not caplog.records

    def test_invalid_restarts(self):
        with pytest.raises(ValueError):
            optimize_parallel_gates(make_xx_device(), preset_config("config2"),
                                    XX, restarts=0)


def rosen_rows(x):
    """Rosenbrock's function and gradient of each row, from row-wise
    arithmetic only, so that a row's values do not depend on the batch."""
    a, b = x[:, :-1], x[:, 1:]
    value = np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2, axis=1)
    grad = np.zeros(x.shape)
    grad[:, :-1] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
    grad[:, 1:] += 200.0 * (b - a * a)
    return value, grad


def box_quadratic(where, seed):
    """(f, x*, lower, upper): a strictly convex quadratic whose minimizer
    over the box [lower, upper]^n is x*, with entry i inside the box, on its
    lower bound or on its upper bound as where[i] is 0, -1 or 1, and the
    gradient there pointing out of the box at least 0.1 on each bound entry."""
    n = len(where)
    rng = np.random.default_rng(seed)
    lower, upper = -2.0, 3.0
    x_star = np.where(where < 0, lower, np.where(where > 0, upper,
                                                 rng.uniform(lower, upper, n)))
    g_star = -where * rng.uniform(0.1, 5.0, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * rng.uniform(0.5, 2.0, n)) @ q.T

    def f(x):
        e = x - x_star
        grad = e @ a + g_star
        return np.sum(e * (0.5 * (e @ a) + g_star), axis=1), grad

    return f, x_star, lower, upper


def uphill(x):
    """A gradient of the wrong sign: no step along -g lowers f."""
    return np.sum(x * x, axis=1), -2.0 * x


SHALLOW_MINIMUM = np.array([0.5, 1.0 - 1e-9, 1.0])


def shallow(x):
    """f = 1 + |x - c|^2, whose decrease within 1e-9 of c is below f's rounding."""
    e = x - SHALLOW_MINIMUM
    return 1.0 + np.sum(e * e, axis=1), 2.0 * e


def tilted(x):
    """A slope of 1e-5 with slight negative curvature."""
    return np.sum(1e-5 * x - 1e-9 * x * x, axis=1), 1e-5 - 2e-9 * x


def settling(x):
    """f = c + sum exp(-x) for c = x's last entry, whose gradient is zero: f
    settles at c, and from x = 0 minimize_box about halves f - c an
    iteration."""
    e = np.exp(-x[:, :-1])
    grads = np.zeros(x.shape)
    grads[:, :-1] = -e
    return x[:, -1] + np.sum(e, axis=1), grads


STALL = (5, 0.1, 0.01)


@st.composite
def box_quadratics(draw):
    n = draw(st.integers(1, 8))
    where = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
    return box_quadratic(np.array(where), draw(st.integers(0, 2**32 - 1)))


class TestMinimizeBox:
    @settings(max_examples=60, deadline=None)
    @given(problem=box_quadratics(), start_seed=st.integers(0, 2**32 - 1))
    def test_box_quadratic_reaches_projected_optimum(self, problem, start_seed):
        f, x_star, lower, upper = problem
        x0 = np.random.default_rng(start_seed).uniform(lower - 1, upper + 1,
                                                       (4, x_star.size))
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(compiler, "GTOL", 1e-12)
            result = minimize_box(f, x0, lower, upper, ftol=0.0)
        assert result.stop.tolist() == [0] * 4
        np.testing.assert_allclose(result.x, np.broadcast_to(x_star, x0.shape),
                                   rtol=0, atol=1e-10)

    def test_step_cut_at_a_bound_lands_on_it(self, monkeypatch):
        # found by a random search: rounding left the last row's first cut
        # step one ulp inside a bound, where the next step had no room and
        # the line search failed
        rng = np.random.default_rng(2471)
        where = rng.integers(-1, 2, rng.integers(1, 9))
        f, x_star, lower, upper = box_quadratic(where, rng.integers(0, 2**32))
        x0 = rng.uniform(lower - 1, upper + 1, (4, where.size))
        monkeypatch.setattr(compiler, "GTOL", 1e-12)
        result = minimize_box(f, x0, lower, upper, ftol=0.0)
        assert result.stop.tolist() == [0] * 4
        np.testing.assert_allclose(result.x, np.broadcast_to(x_star, x0.shape),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("upper", [2.0, 0.8])  # 0.8: minimum on the bound
    def test_rows_equal_single_row_runs(self, upper):
        x0 = np.random.default_rng(0).uniform(-1.5, upper + 0.5, (9, 5))
        batch = minimize_box(rosen_rows, x0, -1.5, upper, ftol=1e-13)
        assert len(set(batch.nfev.tolist())) > 1  # rows leave at different rounds
        for i, start in enumerate(x0):
            single = minimize_box(rosen_rows, start[None], -1.5, upper, ftol=1e-13)
            for got, want in zip(batch, single):
                np.testing.assert_array_equal(got[i], want[0])

    def test_rows_stopping_for_every_reason_equal_single_row_runs(self, monkeypatch):
        # rows that stop for each of STOP_REASONS in order, then a tilted row
        # and a shallow row started near its minimum.  The shallow row from
        # far holds a curvature pair when its line search first fails, so it
        # retries from the projected gradient (42 evaluations); from near it
        # holds none and stops (21), as the uphill row does.  The last
        # variable names the row's objective: its gradient is zero, so it
        # never moves.
        box, *_ = box_quadratic(np.array([0, -1, 1]), 3)
        rosen = np.random.default_rng(0).uniform(-1.0, 1.0, (30, 3))
        problems = [(box, [0.2, 0.3, -0.4]), (rosen_rows, rosen[9]),
                    (rosen_rows, rosen[26]), (rosen_rows, rosen[1]),
                    (uphill, [0.5, 0.5, 0.5]), (shallow, [-0.9, -0.8, 0.1]),
                    (tilted, [0.0, 0.0, 0.0]), (shallow, [0.5, 1.0, 1.5])]
        x0 = np.array([[*start, k / 10] for k, (_, start) in enumerate(problems)])

        def fun(x):
            values, grads = np.empty(len(x)), np.zeros(x.shape)
            for k, (f, _) in enumerate(problems):
                mine = x[:, -1] == k / 10
                if mine.any():
                    values[mine], grads[mine, :-1] = f(x[mine, :-1])
            return values, grads

        for name, value in (("MAX_ITERATIONS", 40), ("GTOL", 0.0), ("MAX_EVALUATIONS", 49)):
            monkeypatch.setattr(compiler, name, value)

        def solve(x):
            return minimize_box(fun, x, -1.0, 1.0, ftol=1e-13)

        batch = solve(x0)
        assert batch.stop.tolist() == [0, 1, 2, 3, 4, 5, 0, 5]
        assert batch.nfev[[4, 5, 7]].tolist() == [21, 42, 21]
        for i in range(len(x0)):
            for got, want in zip(batch, solve(x0[i:i + 1])):
                np.testing.assert_array_equal(got[i], want[0])

    def test_iteration_limit(self, monkeypatch):
        x0 = np.random.default_rng(1).uniform(-1.5, 2.0, (4, 5))
        monkeypatch.setattr(compiler, "MAX_ITERATIONS", 3)
        result = minimize_box(rosen_rows, x0, -1.5, 2.0, ftol=1e-13)
        assert result.nit.tolist() == [3] * 4
        assert compiler.STOP_STATUS[result.stop].tolist() == [1] * 4
        assert {compiler.STOP_REASONS[k] for k in result.stop} == {
            "iteration limit reached"}

    def test_evaluation_limit(self, monkeypatch):
        x0 = np.random.default_rng(1).uniform(-1.5, 2.0, (4, 5))
        monkeypatch.setattr(compiler, "MAX_EVALUATIONS", 6)
        result = minimize_box(rosen_rows, x0, -1.5, 2.0, ftol=1e-13)
        assert result.nfev.tolist() == [6] * 4
        assert compiler.STOP_STATUS[result.stop].tolist() == [1] * 4
        assert {compiler.STOP_REASONS[k] for k in result.stop} == {
            "evaluation limit reached"}

    def test_failed_line_search_stops_with_status_2(self):
        result = minimize_box(uphill, np.full((2, 3), 0.5), -1.0, 1.0, ftol=1e-13)
        assert compiler.STOP_STATUS[result.stop].tolist() == [2, 2]
        assert result.nit.tolist() == [0, 0]
        assert result.nfev.tolist() == [21, 21]  # the start and 20 trials
        np.testing.assert_array_equal(result.x, np.full((2, 3), 0.5))

    def test_flat_slope_lengthens_the_step(self):
        # a slope of 1e-5 with slight negative curvature: at the gradient's own
        # length a step would cover 1e-5, and the bound at -10 lies 1e6 away
        result = minimize_box(tilted, np.zeros((1, 1)), -10.0, 10.0, ftol=0.0)
        assert result.x.tolist() == [[-10.0]]
        assert compiler.STOP_STATUS[result.stop].tolist() == [0]
        assert result.nit[0] <= 20

    def test_no_decrease_above_rounding_stops_converged(self):
        # |x - c| = 1e-9 at the clipped start: the projected gradient is above
        # GTOL, yet no step can lower f by more than its rounding
        result = minimize_box(shallow, np.array([[0.5, 1.0, 1.5]]), -1.0, 1.0, ftol=0.0)
        assert [compiler.STOP_REASONS[k] for k in result.stop] == [
            "no decrease above rounding"]
        assert compiler.STOP_STATUS[result.stop].tolist() == [0]
        np.testing.assert_array_equal(result.x, [[0.5, 1.0, 1.0]])

    def test_stall_above_the_floor_stops_converged(self):
        # f - 1 about halves an iteration, so f falls by at most 0.1 f over 5
        # iterations once f - 1 is about 0.1 / (2^5 - 1): after 9, at 0.0031
        x0 = np.array([[0.0, 0.0, 1.0]])
        result = minimize_box(settling, x0, -1.0, 50.0, ftol=0.0, stall=STALL)
        plain = minimize_box(settling, x0, -1.0, 50.0, ftol=0.0)
        assert [compiler.STOP_REASONS[k] for k in result.stop] == [
            "f stalled over the window"]
        assert compiler.STOP_STATUS[result.stop].tolist() == [0]
        assert result.nit[0] == 9 < plain.nit[0]
        assert 1.0 < result.fun[0] <= 1.005

    def test_below_the_floor_never_stalls(self):
        # the same descent toward f = 0.001, under the 0.01 floor by the time
        # its relative fall shrinks: it runs as it would without the rule
        x0 = np.array([[0.0, 0.0, 0.001]])
        result = minimize_box(settling, x0, -1.0, 50.0, ftol=0.0, stall=STALL)
        plain = minimize_box(settling, x0, -1.0, 50.0, ftol=0.0)
        assert result.stop.tolist() == [0]
        assert result.nit[0] > 12
        for got, want in zip(result, plain):
            np.testing.assert_array_equal(got, want)

    def test_stalled_rows_equal_single_row_runs(self):
        # rows that stall, rows under the floor and Rosenbrock rows in one
        # batch: each ends as it does alone, bit for bit
        rng = np.random.default_rng(5)
        x0 = np.vstack((np.column_stack((rng.uniform(-1.0, 2.0, (6, 2)),
                                         [1.0, 0.5, 0.02, 0.001, 0.0, 3.0])),
                        np.column_stack((rng.uniform(-1.0, 1.0, (4, 2)), [-1.0] * 4))))

        def fun(x):  # Rosenbrock's where the last entry is -1
            values, grads = settling(x)
            rosen = x[:, -1] == -1.0
            if rosen.any():
                values[rosen], grads[rosen, :-1] = rosen_rows(x[rosen, :-1])
            return values, grads

        def solve(x):
            return minimize_box(fun, x, -1.0, 50.0, ftol=1e-13, stall=STALL)

        batch = solve(x0)
        assert {6, 0} <= set(batch.stop.tolist())
        assert len(set(batch.nfev.tolist())) > 1
        for i in range(len(x0)):
            for got, want in zip(batch, solve(x0[i:i + 1])):
                np.testing.assert_array_equal(got[i], want[0])

    def test_converged_start_takes_no_step(self):
        result = minimize_box(rosen_rows, np.ones((1, 4)), -2.0, 2.0, ftol=1e-13)
        assert (result.nit.tolist(), result.nfev.tolist(), result.stop.tolist()) == (
            [0], [1], [0])


class TestGoldenCompile:
    """`optimize_parallel_gates` pinned bit for bit, so that a change meant to
    leave the compiler's arithmetic alone is seen to: `float.hex` of the
    objective, the active electrodes' voltages and every restart's sum r^2,
    and each restart's exact status, stop reason (its `STOP_REASONS` index),
    evaluations and iterations.  The compile_xx device's cases are the
    benchmark's first pass at workload seeds 1 and 2.  Captured with numpy 2.4
    and OpenBLAS at one thread on x86-64; another BLAS build may differ in the
    last bits."""

    # (device, config, gates, restarts, seed), pins
    CASES = [
        (('xx', 'config2', 'XX', 50, (1 << 32) | 0), dict(
            objective='0x1.2057ce9bf7d06p-52',
            voltages=(
                '0x1.4000000000000p+3', '0x1.55f2320a28ed0p-12',
                '0x1.4000000000000p+3', '-0x1.9a61e492bca40p-10',
                '-0x1.4000000000000p+3', '-0x1.0bd847d4d1c1cp-11',
                '-0x1.4000000000000p+3', '-0x1.ee3f3d143aa00p-12'),
            trace=(
                '0x1.aba54cc0fcf57p-7', '0x1.abfc1720be9e6p-6',
                '0x1.ad5861c2b8e3cp-7', '0x1.ac4c201725761p-7',
                '0x1.1a589c78b0195p-4', '0x1.ae48b07615ff4p-7',
                '0x1.355a280cdd91ap-6', '0x1.1a78675813820p-3',
                '0x1.abe34388526aep-7', '0x1.1a756078c77c7p-4',
                '0x1.abea3a19f7723p-7', '0x1.c1efa4796bb47p-45',
                '0x1.3176b99bcac89p-5', '0x1.1a783af1dd917p-4',
                '0x1.4fcfa22b966fap-4', '0x1.67b2d44eee1fep-4',
                '0x1.02b9bbdf0b507p-1', '0x1.1a77ff5ff3685p-4',
                '0x1.1ae04adf601f7p-4', '0x1.3516bbf12f515p-6',
                '0x1.67ce840b0b0bap-4', '0x1.1a7a2abd01733p-4',
                '0x1.1a756f4213a7ep-4', '0x1.64767049cbe70p-4',
                '0x1.045c4e3f37266p-42', '0x1.34b50e076b65cp-6',
                '0x1.67ce838ba3509p-4', '0x1.ac436f7e3fb27p-7',
                '0x1.1a77b44e8e36dp-3', '0x1.abc6b152a943bp-6',
                '0x1.1a75d5e148843p-3', '0x1.abcfa4f5434b2p-7',
                '0x1.2057ce9bf7d06p-52', '0x1.abd9cbeb9faf1p-7',
                '0x1.ac559e64bcd33p-6', '0x1.abc09629d8b28p-6',
                '0x1.f3c0b752d42a3p-6', '0x1.b93eff8592d09p-41',
                '0x1.500f8787a76b8p-4', '0x1.055009db416e9p-5',
                '0x1.abc5220f15156p-7', '0x1.ab8ffdc311440p-7',
                '0x1.ac146a5c62b3bp-7', '0x1.ab563c55f0131p-6',
                '0x1.6a8989115bca9p-44', '0x1.1a76f0fa59ea0p-4',
                '0x1.33df6ae3e2b06p-6', '0x1.acfb29e545543p-7',
                '0x1.f5269328b831cp-7', '0x1.1a794feb814a2p-4'),
            status='00000000000000000000000000000000000000000000000000',
            reason='66666666661166666666166616166661066161666166166666',
            nfev=(
                16, 15, 14, 16, 13, 13, 16, 11, 14, 11, 16, 10, 16, 15, 14, 17, 15,
                13, 10, 13, 15, 27, 12, 13, 15, 12, 16, 12, 10, 16, 16, 17, 22, 14,
                14, 17, 14, 14, 13, 11, 13, 13, 11, 18, 13, 10, 13, 13, 14, 10),
            nit=(
                15, 14, 13, 14, 12, 12, 14, 10, 13, 10, 15, 9, 14, 13, 13, 14, 14,
                11, 9, 12, 14, 24, 11, 11, 14, 11, 14, 11, 9, 15, 15, 16, 20, 13,
                13, 15, 13, 13, 11, 10, 12, 12, 9, 16, 12, 9, 12, 12, 12, 9))),
        (('xx', 'config3', 'XX', 45, (1 << 32) | 1), dict(
            objective='0x1.5a4c25ccb68b2p-53',
            voltages=(
                '-0x1.a35159d621f07p+2', '-0x1.415283fd74aa8p-12',
                '-0x1.a35033ba7a08fp+2', '0x1.025a1ed146bacp-9',
                '0x1.4000000000000p+3', '0x1.33eb99bc75642p-1',
                '-0x1.9dc6deddd0942p+1', '-0x1.d77c93442ca88p+1',
                '-0x1.149d0de39f7acp+3', '0x1.0075380460439p+3',
                '0x1.3b904b55764efp+2', '0x1.9b1a4aaf3a3a3p-3',
                '-0x1.340943fdf1c5ap+3', '-0x1.16249dbc67d50p-11',
                '0x1.0516d2bb69e45p+3', '-0x1.7e8dbb7327d7cp-12',
                '0x1.051d82317e44ep+3', '0x1.7ce3cd9811614p-11',
                '-0x1.b2a7f23a31fc4p+2', '-0x1.b29864c890c18p+2',
                '0x1.859894375aa34p+2', '-0x1.05fcb1de306dap+3'),
            trace=(
                '0x1.098cf40053e1fp-5', '0x1.348d1c07337d5p-5',
                '0x1.1f974e9bb4001p-5', '0x1.1a78ed5ecb71ap-4',
                '0x1.8ba2678d55035p-49', '0x1.8679b611ebeb2p-7',
                '0x1.1ac4d882e7d0cp-4', '0x1.35419c3b44cecp-6',
                '0x1.9d721c99f5b46p-6', '0x1.3559f4ad06c9cp-6',
                '0x1.05999214eb455p-5', '0x1.2f3834f44a38ap-6',
                '0x1.2af6a27852f65p-12', '0x1.492572f89363bp-42',
                '0x1.af62668c510d6p-6', '0x1.ab935125c552dp-7',
                '0x1.05c7a75c0ea7fp-5', '0x1.67cd52e02efd2p-4',
                '0x1.a01abca792d57p-6', '0x1.1a94a20f53dd8p-4',
                '0x1.355a47790688fp-6', '0x1.1a6669993011bp-4',
                '0x1.6185fc8e15169p-4', '0x1.ac0c3d2b28887p-7',
                '0x1.16252d8ab2e2dp-5', '0x1.ff665e680033dp-7',
                '0x1.305c1fd6b7937p-49', '0x1.1a7d4a8923efbp-4',
                '0x1.ac055e5e4bb24p-6', '0x1.52c1940ef11edp-4',
                '0x1.34ee7a3b1a7edp-6', '0x1.67dca287093b6p-4',
                '0x1.0469379fac4d5p-5', '0x1.355a68fc66d58p-6',
                '0x1.be98709bb91b9p-6', '0x1.5a4c25ccb68b2p-53',
                '0x1.b4b96f26bad1ep-7', '0x1.3aa982280b772p-6',
                '0x1.506b48ecc09b7p-4', '0x1.355a43876d684p-6',
                '0x1.ac61373dd9ba4p-7', '0x1.1a601e3963727p-3',
                '0x1.abb5e1c7b2974p-7', '0x1.072e736b65ea6p-5',
                '0x1.1a77f66287c3fp-4'),
            status='000000000000000000000000000000000000000000000',
            reason='666616666666116666661666661666666660666666661',
            nfev=(
                18, 15, 15, 23, 20, 16, 12, 11, 15, 11, 19, 14, 22, 16, 14, 18, 13,
                11, 20, 13, 12, 11, 11, 17, 20, 12, 13, 11, 13, 15, 19, 16, 18, 11,
                16, 24, 19, 16, 16, 16, 15, 14, 17, 13, 11),
            nit=(
                17, 14, 13, 20, 18, 15, 11, 10, 14, 10, 18, 13, 20, 15, 13, 17, 12,
                10, 17, 12, 11, 9, 10, 14, 16, 11, 12, 10, 11, 13, 16, 15, 17, 10,
                15, 22, 18, 15, 15, 15, 14, 13, 16, 12, 10))),
        (('xx', 'config2', 'XX', 50, (2 << 32) | 0), dict(
            objective='0x1.6790175ed51dap-54',
            voltages=(
                '0x1.15877b151eb2ap+1', '0x1.bafa8e85eb5c8p-14',
                '0x1.156b970e86fc5p+1', '-0x1.b27df73399000p-13',
                '-0x1.4000000000000p+3', '0x1.57b86286380d4p-14',
                '-0x1.4000000000000p+3', '0x1.a104191e4aa00p-14'),
            trace=(
                '0x1.abab1b9afab3bp-7', '0x1.ab8300258cd3ep-6',
                '0x1.ac61d57e84d07p-6', '0x1.4ff6d62d0d9f2p-4',
                '0x1.abcddc12a0769p-7', '0x1.ac49547e00f47p-6',
                '0x1.727170195f6f6p-49', '0x1.abd4d57299fdfp-7',
                '0x1.abf39953e9c3ap-7', '0x1.1a77f63287864p-3',
                '0x1.ac2145bfbbed9p-7', '0x1.abb49229e21dap-6',
                '0x1.abfc9634327fdp-7', '0x1.abf105a52ead7p-7',
                '0x1.ac6c860318a29p-7', '0x1.197e0879d027ap-50',
                '0x1.abf1081fc5288p-7', '0x1.67ce8517bda62p-4',
                '0x1.abae8b6aab27bp-7', '0x1.aba3cc565cc45p-7',
                '0x1.5003bb9ea32b7p-4', '0x1.5000627b80407p-4',
                '0x1.50348e682fcf8p-4', '0x1.acbaea320200dp-7',
                '0x1.1a7654a9f3113p-4', '0x1.1a77ee52eb4acp-4',
                '0x1.ac0b681cf030cp-7', '0x1.059f76b0e3539p-5',
                '0x1.c83c7fe57da5ep-7', '0x1.8a6a68e0e169dp-54',
                '0x1.abbab45269adap-6', '0x1.1a779f150e3bdp-4',
                '0x1.50228682f0574p-4', '0x1.129c16e884293p-6',
                '0x1.6790175ed51dap-54', '0x1.67cd67d496375p-4',
                '0x1.1a76f041ef465p-4', '0x1.abd5935eadad0p-7',
                '0x1.4f834e9f5be84p-4', '0x1.5017122060d2fp-4',
                '0x1.35555c34de196p-5', '0x1.05a7cde7bd8c6p-5',
                '0x1.4f80b1405a2d3p-4', '0x1.330bc7c2b844bp-1',
                '0x1.5001fc9378515p-4', '0x1.abf035e810800p-7',
                '0x1.abc73d01919c2p-7', '0x1.4ff8b2942676cp-4',
                '0x1.67cc45cbd397ep-4', '0x1.758f98945fc3fp-40'),
            status='00000000000000000000000000000000000000000000000000',
            reason='66661616116661611166666666666066660611666666666661',
            nfev=(
                17, 19, 20, 20, 21, 14, 13, 15, 18, 16, 14, 11, 13, 17, 13, 10, 17,
                22, 14, 16, 15, 15, 12, 17, 13, 10, 14, 17, 16, 13, 17, 11, 12, 16,
                21, 13, 11, 15, 16, 20, 12, 12, 19, 11, 13, 19, 13, 16, 14, 9),
            nit=(
                15, 17, 18, 18, 19, 13, 11, 13, 17, 14, 13, 10, 12, 16, 11, 9, 15,
                19, 13, 15, 14, 13, 11, 16, 11, 9, 12, 16, 12, 11, 14, 10, 10, 14,
                19, 12, 10, 14, 15, 19, 11, 11, 16, 9, 11, 17, 12, 14, 11, 8))),
        (('xx', 'config3', 'XX', 45, (2 << 32) | 1), dict(
            objective='0x1.fdda42c34eb32p-55',
            voltages=(
                '0x1.68a2d163ba8d2p-2', '-0x1.2431928465e4cp-12',
                '0x1.687116fe8e801p-2', '0x1.44a88abcf73e4p-12',
                '-0x1.10eb86e7629dfp+1', '-0x1.02b4f43d3f141p+2',
                '-0x1.3290697e04838p+2', '-0x1.fd017b5772b57p+2',
                '-0x1.09d6939c4412dp+3', '0x1.32f097636777cp+3',
                '-0x1.92eef939b490ep-2', '-0x1.bea6be2199df4p+2',
                '0x1.1e3d481ec51fep+3', '-0x1.b71acb41f2328p-11',
                '-0x1.2bf766340ac65p+1', '0x1.362d985bb6630p-13',
                '-0x1.2bee5b445473ep+1', '-0x1.f5b9608e96a50p-12',
                '0x1.8b764c6157b89p+1', '0x1.8ccbc8f5c6ba3p+2',
                '0x1.2ecb98389e15ap+0', '0x1.63a501d20ba40p+2'),
            trace=(
                '0x1.abd90f0e765b8p-7', '0x1.5b6f9955f7ad2p-4',
                '0x1.9bfafb4751da4p-6', '0x1.1a7965ad9407dp-4',
                '0x1.50ff6902295c4p-4', '0x1.1aaa7ed030fb1p-4',
                '0x1.fdda42c34eb32p-55', '0x1.aeda488d0b7a0p-7',
                '0x1.29672c0894db2p-12', '0x1.f81fa2693c528p-7',
                '0x1.1a6726f71c319p-4', '0x1.1a77b83862589p-4',
                '0x1.ab1d4679526ecp-7', '0x1.355a3abdeb20bp-6',
                '0x1.33da08508eb9bp-6', '0x1.51b51f151e4f4p-47',
                '0x1.1a7f0d60f5f13p-4', '0x1.3a19037a05860p-6',
                '0x1.670ec92f683e0p-4', '0x1.00078b2929bafp-5',
                '0x1.b76f514a0634ep-7', '0x1.a9107eda2402bp-7',
                '0x1.1a7c637464de3p-4', '0x1.51ea6f5bc7a7fp-4',
                '0x1.1a77ec14a2a2fp-4', '0x1.355a37d99c97cp-6',
                '0x1.1a97b630f26e8p-4', '0x1.aa538c003e49fp-7',
                '0x1.ac20d2f520a97p-6', '0x1.aa8d7d52db497p-7',
                '0x1.d1952ff32ff43p-38', '0x1.1a7abd8f9f9aep-4',
                '0x1.5a0625b0236ecp-4', '0x1.3527f2bbb3898p-6',
                '0x1.15e7e27f7a792p-6', '0x1.67d1e483584fap-4',
                '0x1.1a791a60f08a2p-4', '0x1.07773f914e4e4p-39',
                '0x1.ab9d5c109bb0dp-7', '0x1.681aa7c858028p-4',
                '0x1.6293298d96f35p-4', '0x1.34f8b57b930d3p-6',
                '0x1.6fb28ed2c3381p-7', '0x1.77f2b63f7e5a0p-47',
                '0x1.0aa6b2683fbd2p-5'),
            status='000000000000000000000000000000000000000000000',
            reason='166666061666616166666666666666166666616666616',
            nfev=(
                13, 17, 16, 13, 14, 16, 15, 16, 23, 14, 12, 10, 29, 25, 16, 13, 14,
                19, 15, 14, 21, 21, 22, 18, 12, 13, 13, 17, 15, 21, 13, 13, 34, 14,
                13, 12, 14, 13, 21, 13, 14, 11, 12, 16, 12),
            nit=(
                12, 15, 15, 12, 12, 15, 12, 15, 22, 13, 11, 9, 25, 19, 14, 11, 13,
                17, 13, 13, 20, 18, 21, 16, 11, 12, 12, 16, 14, 19, 12, 12, 28, 13,
                12, 11, 13, 12, 17, 12, 11, 10, 11, 15, 11))),
        (('default', 'config2', 'XH', 20, 3), dict(
            objective='0x1.e06c42489af82p-6',
            voltages=(
                '-0x1.571de1526cf0cp+2', '0x1.fc0d8d85c89c7p+2',
                '-0x1.4000000000000p+3', '0x1.4000000000000p+3',
                '0x1.3d06f05a207cbp+3', '0x1.1fd7e48d0fafep+3',
                '-0x1.971e1ada4890ap+2', '0x1.62c69a75c87a7p-1'),
            trace=(
                '0x1.791efdf6d978bp-2', '0x1.4f6160a346044p-2',
                '0x1.4ed0d4b88b92ep-2', '0x1.3e057577e4c83p-2',
                '0x1.e06c42489af82p-6', '0x1.eb4bd26198209p-4',
                '0x1.448041d164423p-3', '0x1.6d5f29b20f45bp-3',
                '0x1.ef125ffe9f2f9p-4', '0x1.baa2524e000eep-3',
                '0x1.144955048e62ap-5', '0x1.b798c6609ab72p-4',
                '0x1.9d8f1ed1c3a23p-4', '0x1.75954935c3b9fp-4',
                '0x1.638c507793681p-4', '0x1.ffba812592f26p-5',
                '0x1.e06c4248abb31p-6', '0x1.144955048e4b0p-5',
                '0x1.485cea4b19fccp-5', '0x1.485cea4b19f4bp-5'),
            status='00000000000000000000',
            reason='66660101011010111110',
            nfev=(
                14, 12, 16, 14, 36, 38, 26, 32, 28, 25, 38, 31, 36, 30, 50, 26, 39,
                39, 41, 32),
            nit=(
                13, 11, 14, 12, 31, 29, 23, 29, 24, 22, 34, 27, 33, 28, 43, 24, 35,
                36, 39, 28))),
    ]

    @pytest.mark.parametrize("case,pins", CASES, ids=[
        f"{device}-{name}-{gates}-{seed:#x}" for (device, name, gates, _, seed), _ in CASES])
    def test_compile_is_pinned(self, case, pins):
        device, name, gates, restarts, seed = case
        spec = make_xx_device() if device == "xx" else default_device()
        config = preset_config(name)
        result = optimize_parallel_gates(spec, config, (gate_target(gates[0]),
                                                        gate_target(gates[1])),
                                         restarts=restarts, seed=seed)
        active = config.indices(spec)
        volts = result.best_voltages.volts
        assert not np.delete(volts, active).any()
        assert result.objective.hex() == pins["objective"]
        assert tuple(v.hex() for v in volts[active].tolist()) == pins["voltages"]
        assert tuple(v.hex() for v in result.restart_trace.tolist()) == pins["trace"]
        assert "".join(map(str, result.restart_status.tolist())) == pins["status"]
        assert result.restart_reason == tuple(compiler.STOP_REASONS[int(k)]
                                              for k in pins["reason"])
        assert tuple(result.restart_nfev.tolist()) == pins["nfev"]
        assert tuple(result.restart_nit.tolist()) == pins["nit"]


class TestSweepChipLength:
    def test_single_length_equals_direct_call(self):
        spec = make_xx_device()
        config = preset_config("config2")
        direct = optimize_parallel_gates(spec.with_length(30.0), config, XX,
                                         restarts=2, seed=6)
        [(length, swept)] = sweep_chip_length(spec, config, XX, [30.0],
                                              restarts=2, seed=6)
        assert length == 30.0
        assert swept.objective == direct.objective
        np.testing.assert_array_equal(swept.best_voltages.volts,
                                      direct.best_voltages.volts)

    def test_multiple_lengths_shape(self):
        spec = random_base_device(seed=8)
        results = sweep_chip_length(spec, preset_config("config2"), XX,
                                    [10.0, 100.0, 200.0], restarts=1, seed=1)
        assert [length for length, _ in results] == [10.0, 100.0, 200.0]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            sweep_chip_length(make_xx_device(), preset_config("config2"), XX,
                              [-1.0], restarts=1)

    def test_every_length_checked_before_any_compile(self):
        # [10, -1] used to run the 10 mm compile before it raised
        with mock.patch.object(compiler, "optimize_parallel_gates") as opt:
            with pytest.raises(DeviceSpecError, match="coupling_length"):
                sweep_chip_length(make_xx_device(), preset_config("config2"), XX,
                                  [10.0, -1.0], restarts=1)
        opt.assert_not_called()


class TestExport:
    def test_result_json(self, tmp_path):
        result = optimize_parallel_gates(make_xx_device(),
                                         preset_config("config2"), XX,
                                         restarts=2, seed=0)
        path = tmp_path / "result.json"
        write_json(path, result.to_dict())
        doc = json.loads(path.read_text())
        assert len(doc["best_voltages"]) == 22
        assert doc["objective"] == result.objective
        assert len(doc["restart_trace"]) == 2
        assert doc["restart_status"] == result.restart_status.tolist()
        assert doc["restart_nfev"] == result.restart_nfev.tolist()
        assert doc["restart_nit"] == result.restart_nit.tolist()
        assert doc["restart_reason"] == list(result.restart_reason)
        assert all(isinstance(n, int) and n > 0 for n in doc["restart_nit"])
        assert all(isinstance(n, int) and n > 0 for n in doc["restart_nfev"])

    def test_restart_arrays_read_only(self):
        # a write would change what to_dict reports; the counts stay integers
        result = optimize_parallel_gates(make_xx_device(),
                                         preset_config("config2"), XX,
                                         restarts=2, seed=0)
        for name, kind in (("restart_trace", "f"), ("restart_status", "i"),
                           ("restart_nfev", "i"), ("restart_nit", "i")):
            arr = getattr(result, name)
            assert arr.dtype.kind == kind, name
            with pytest.raises(ValueError):
                arr[0] = 7

    def test_trace_csv(self, tmp_path):
        trace = np.array([0.5, 0.2, 0.3])
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "restart,objective,best_so_far"
        assert lines[3].startswith("2,")
        assert float(lines[3].split(",")[2]) == 0.2


class TestRandomBaseDevice:
    def test_seeded_draw_ranges(self):
        spec = random_base_device(seed=0)
        assert np.all((spec.base_beta >= 3.0) & (spec.base_beta <= 3.2))
        assert np.all((spec.base_coupling >= 0.05) & (spec.base_coupling <= 0.15))
        assert spec_equal(random_base_device(seed=0), spec)
        assert not spec_equal(random_base_device(seed=1), spec)
