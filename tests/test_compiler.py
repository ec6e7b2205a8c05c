import json
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwasim import compiler, evolution
from rwasim.compiler import (
    ElectrodeConfig,
    GATE_ETAS,
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
from rwasim.subcircuits import SubcircuitPair, coupler_split

from conftest import make_xx_device, spec_equal, with_electrode
from scalar_reference import (
    full_u_evaluate,
    scalar_objective_with_gradient,
    sequential_restarts,
)

XX = (gate_target("X"), gate_target("X"))


def kernel_metrics(spec, config, targets, v):
    """(objective, per-pair (fidelity, crosstalk, leakage)) from the kernel
    at the active electrodes' voltages of v."""
    x = v.volts[np.array(config.active_electrodes) - 1]
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
        with pytest.raises(ValueError):
            ElectrodeConfig(name="bad", active_electrodes=(1, 2),
                            pairs=(SubcircuitPair(1), SubcircuitPair(2)))


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
        # permutation sending both pairs' power elsewhere: F = 0 by
        # convention, leak = 1, ct = 0 -> objective 1+1+0+0+1+1 = 4
        perm = np.roll(np.eye(11, dtype=complex), 4, axis=0)
        rows = np.array([[0, 1], [0, 1], [7, 8], [7, 8]])
        target_p = np.vstack([gate_target("X")] * 2)
        _, _, fid, ct, leak = compiler._input_terms(
            np.abs(perm[:, [0, 1, 7, 8]]) ** 2, rows, rows[[2, 3, 0, 1]], target_p)
        # per subcircuit, the mean over its two inputs
        fid, ct, leak = (0.5 * (t[0::2] + t[1::2]) for t in (fid, ct, leak))
        for s in (0, 1):
            assert fid[s] == 0.0
            assert leak[s] == pytest.approx(1.0)
        obj, _ = compiler._objective_value(np.array([fid, ct, leak]))
        assert obj == pytest.approx(4.0 + ct[0]**2 + ct[1]**2)

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
        active = np.array(config.active_electrodes) - 1
        inner = spec.voltage_limit - 1e-3
        x = np.random.default_rng(point_seed).uniform(-inner, inner, active.size)

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
        step = h * np.eye(active.size)
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
           point_seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_scalar_reference(self, device_seed, config_name, gates,
                                            batch, point_seed):
        spec = (make_xx_device() if device_seed is None
                else random_base_device(device_seed))
        config = preset_config(config_name)
        targets = tuple(gate_target(g) for g in gates)
        x = np.random.default_rng(point_seed).uniform(
            -spec.voltage_limit, spec.voltage_limit,
            (batch, len(config.active_electrodes)))
        values, grads, metrics = objective_with_gradient(spec, config, targets)(x)
        assert values.shape == (batch,)
        assert metrics.shape == (3, 2, batch)
        assert grads.shape == x.shape
        scalar = scalar_objective_with_gradient(spec, config, targets)
        for row, value, grad in zip(x, values, grads):
            ref_value, ref_grad = scalar(row)
            assert abs(value - ref_value) <= 1e-12
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(device_seed=st.one_of(st.none(), st.integers(0, 2**16)),
           config_name=st.sampled_from(["config1", "config2", "config3"]),
           gates=st.tuples(GATES, GATES),
           batch=st.sampled_from([7, 64, 256]),
           eps=st.sampled_from([0.0, compiler.SEARCH_EPS]),
           point_seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_single_point_calls(self, device_seed, config_name, gates,
                                           batch, eps, point_seed):
        # the lockstep's determinism rests on this: a restart's values do not
        # depend on which restarts share its round
        spec = (make_xx_device() if device_seed is None
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
        active = np.array(config.active_electrodes) - 1
        for restart, end in enumerate(ends):
            volts = np.zeros(spec.n_electrodes)
            volts[active] = end
            assert result.restart_trace[restart] == objective(
                spec, VoltageConfig(volts), config, targets)
        assert result.objective == result.restart_trace.min()

    def test_hits_at_least_the_plain_objective_search(self):
        # compile_xx's device, restart counts and seeds for workload seeds 1
        # and 2, first pass; a search on sum r^2 alone made 19 hits here
        spec = make_xx_device()
        hits = 0
        for workload_seed in (1, 2):
            for k, (name, restarts) in enumerate((("config2", 50), ("config3", 45))):
                result = optimize_parallel_gates(spec, preset_config(name), XX,
                                                 restarts=restarts,
                                                 seed=(workload_seed << 32) | k)
                hits += int(np.sum(result.restart_trace <= 1e-6))
        assert hits >= 19

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
        result = minimize_box(f, x0, lower, upper, maxiter=500, ftol=0.0,
                              gtol=1e-12)
        assert result.stop.tolist() == [0] * 4
        np.testing.assert_allclose(result.x, np.broadcast_to(x_star, x0.shape),
                                   rtol=0, atol=1e-10)

    def test_step_cut_at_a_bound_lands_on_it(self):
        # found by a random search: rounding left the last row's first cut
        # step one ulp inside a bound, where the next step had no room and
        # the line search failed
        rng = np.random.default_rng(2471)
        where = rng.integers(-1, 2, rng.integers(1, 9))
        f, x_star, lower, upper = box_quadratic(where, rng.integers(0, 2**32))
        x0 = rng.uniform(lower - 1, upper + 1, (4, where.size))
        result = minimize_box(f, x0, lower, upper, maxiter=500, ftol=0.0,
                              gtol=1e-12)
        assert result.stop.tolist() == [0] * 4
        np.testing.assert_allclose(result.x, np.broadcast_to(x_star, x0.shape),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("upper", [2.0, 0.8])  # 0.8: minimum on the bound
    def test_rows_equal_single_row_runs(self, upper):
        x0 = np.random.default_rng(0).uniform(-1.5, upper + 0.5, (9, 5))
        batch = minimize_box(rosen_rows, x0, -1.5, upper, maxiter=500,
                             ftol=1e-13, gtol=1e-10)
        assert len(set(batch.nfev.tolist())) > 1  # rows leave at different rounds
        for i, start in enumerate(x0):
            single = minimize_box(rosen_rows, start[None], -1.5, upper,
                                  maxiter=500, ftol=1e-13, gtol=1e-10)
            for got, want in zip(batch, single):
                np.testing.assert_array_equal(got[i], want[0])

    def test_rows_stopping_for_every_reason_equal_single_row_runs(self):
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

        def solve(x):
            return minimize_box(fun, x, -1.0, 1.0, maxiter=40, ftol=1e-13, gtol=0.0,
                                maxfun=49)

        batch = solve(x0)
        assert batch.stop.tolist() == [0, 1, 2, 3, 4, 5, 0, 5]
        assert batch.nfev[[4, 5, 7]].tolist() == [21, 42, 21]
        for i in range(len(x0)):
            for got, want in zip(batch, solve(x0[i:i + 1])):
                np.testing.assert_array_equal(got[i], want[0])

    def test_iteration_limit(self):
        x0 = np.random.default_rng(1).uniform(-1.5, 2.0, (4, 5))
        result = minimize_box(rosen_rows, x0, -1.5, 2.0, maxiter=3, ftol=1e-13,
                              gtol=1e-10)
        assert result.nit.tolist() == [3] * 4
        assert compiler.STOP_STATUS[result.stop].tolist() == [1] * 4
        assert {compiler.STOP_REASONS[k] for k in result.stop} == {
            "iteration limit reached"}

    def test_evaluation_limit(self):
        x0 = np.random.default_rng(1).uniform(-1.5, 2.0, (4, 5))
        result = minimize_box(rosen_rows, x0, -1.5, 2.0, maxiter=500, ftol=1e-13,
                              gtol=1e-10, maxfun=6)
        assert result.nfev.tolist() == [6] * 4
        assert compiler.STOP_STATUS[result.stop].tolist() == [1] * 4
        assert {compiler.STOP_REASONS[k] for k in result.stop} == {
            "evaluation limit reached"}

    def test_failed_line_search_stops_with_status_2(self):
        result = minimize_box(uphill, np.full((2, 3), 0.5), -1.0, 1.0,
                              maxiter=500, ftol=1e-13, gtol=1e-10)
        assert compiler.STOP_STATUS[result.stop].tolist() == [2, 2]
        assert result.nit.tolist() == [0, 0]
        assert result.nfev.tolist() == [21, 21]  # the start and 20 trials
        np.testing.assert_array_equal(result.x, np.full((2, 3), 0.5))

    def test_flat_slope_lengthens_the_step(self):
        # a slope of 1e-5 with slight negative curvature: at the gradient's own
        # length a step would cover 1e-5, and the bound at -10 lies 1e6 away
        result = minimize_box(tilted, np.zeros((1, 1)), -10.0, 10.0, maxiter=500,
                              ftol=0.0, gtol=1e-10)
        assert result.x.tolist() == [[-10.0]]
        assert compiler.STOP_STATUS[result.stop].tolist() == [0]
        assert result.nit[0] <= 20

    def test_no_decrease_above_rounding_stops_converged(self):
        # |x - c| = 1e-9 at the clipped start: the projected gradient is above
        # gtol, yet no step can lower f by more than its rounding
        result = minimize_box(shallow, np.array([[0.5, 1.0, 1.5]]), -1.0, 1.0,
                              maxiter=500, ftol=0.0, gtol=1e-10)
        assert [compiler.STOP_REASONS[k] for k in result.stop] == [
            "no decrease above rounding"]
        assert compiler.STOP_STATUS[result.stop].tolist() == [0]
        np.testing.assert_array_equal(result.x, [[0.5, 1.0, 1.0]])

    def test_converged_start_takes_no_step(self):
        result = minimize_box(rosen_rows, np.ones((1, 4)), -2.0, 2.0,
                              maxiter=500, ftol=1e-13, gtol=1e-10)
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
            objective='0x1.3000000000000p-102',
            voltages=(
                '0x1.054d08ed140efp+3', '-0x1.b07d701b89200p-29',
                '0x1.054d08c03cc90p+3', '0x1.64f6cfc13b934p-24', '0x1.3b07b5cbb7628p+3',
                '0x1.0fa3494911eb0p-24', '0x1.3b07b5dd6aa09p+3',
                '-0x1.652f0124c3b00p-25'),
            trace=(
                '0x1.abcec21a93aa8p-7', '0x1.abcec22594ea1p-6', '0x1.abcec25d5494ap-7',
                '0x1.abcec22f0ff66p-7', '0x1.1a77f631a07c3p-4', '0x1.abcec210a2df4p-7',
                '0x1.355a377b9379dp-6', '0x1.1a77f631a07bfp-3', '0x1.abcec02a30543p-7',
                '0x1.1a77f631a07bbp-4', '0x1.abcec1dec9426p-7', '0x1.0a00000000000p-98',
                '0x1.05a0ccd74d9b1p-5', '0x1.1a77f631a07c3p-4', '0x1.4ff1ce7214a66p-4',
                '0x1.4ff1ce74aba4bp-4', '0x1.4ff1ce7dc5ad6p-4', '0x1.1a77f631a07bfp-4',
                '0x1.1a77f631a07c3p-4', '0x1.abcec22430d7bp-7', '0x1.67ce84108558ep-4',
                '0x1.1a77f631a091cp-4', '0x1.1a77f631a07ccp-4', '0x1.4ff1ce7545b2ap-4',
                '0x1.3000000000000p-102', '0x1.355a377b936edp-6',
                '0x1.67ce84108558cp-4', '0x1.abcec233bd32ep-7', '0x1.1a77f631a07bfp-3',
                '0x1.abcec221121dcp-6', '0x1.1a77f631a07bfp-3', '0x1.abcec2eb0d6a0p-7',
                '0x1.4c00000000000p-98', '0x1.abcec2c936ec5p-7', '0x1.abcec316c78b9p-6',
                '0x1.abcec1fa49b22p-6', '0x1.abcec21cf6f14p-6',
                '0x1.e000000000000p-102', '0x1.4ff1ce769b4b8p-4',
                '0x1.05a0cc7908486p-5', '0x1.abcec218aa0c7p-7', '0x1.abcec21ebfea5p-7',
                '0x1.abcec23e9d26dp-7', '0x1.abcec215e963ap-6',
                '0x1.e000000000000p-100', '0x1.1a77f631a07e5p-4',
                '0x1.abcec1fc88ea8p-7', '0x1.abcec1d42f13cp-7', '0x1.abcec20b289bep-7',
                '0x1.1a77f631a07c3p-4'),
            status='00000000000000000000000000000000000000000000000000',
            reason='01111111111111111111010001110111111100111011011111',
            nfev=(
                23, 24, 21, 23, 22, 21, 21, 18, 20, 19, 23, 15, 37, 19, 23, 45, 35, 24,
                20, 45, 18, 35, 19, 33, 22, 21, 21, 20, 16, 23, 23, 22, 24, 18, 22, 24,
                35, 19, 19, 21, 19, 19, 19, 25, 19, 16, 43, 21, 26, 18),
            nit=(
                22, 22, 20, 21, 21, 20, 19, 17, 19, 18, 22, 14, 33, 17, 21, 34, 32, 21,
                19, 39, 17, 32, 18, 27, 20, 20, 18, 18, 15, 22, 21, 20, 23, 17, 21, 22,
                31, 17, 17, 20, 18, 18, 17, 23, 17, 15, 37, 20, 24, 17))),
        (('xx', 'config3', 'XX', 45, (1 << 32) | 1), dict(
            objective='0x1.6000000000000p-103',
            voltages=(
                '0x1.246f64e6a7c29p-1', '-0x1.41c13dbdc9e38p-26',
                '0x1.246f64e0d7d90p-1', '0x1.aa8a2d6f630f8p-25', '0x1.c364edb511580p+2',
                '-0x1.3b60f045866a3p+1', '-0x1.33d84496fd27fp+3',
                '-0x1.7c59c305091e5p+1', '0x1.25b01974cab54p+3', '0x1.bf86a1b4733cfp+2',
                '-0x1.be0c71ec02772p+0', '-0x1.f3cdacd336475p-4',
                '-0x1.c48ad18227430p+0', '-0x1.357de1f15ac64p-23',
                '0x1.182bf6c780fc2p+2', '-0x1.27025743fadfap-25',
                '0x1.182bf6bd5775bp+2', '0x1.84ba8b33d46e4p-25', '0x1.0512be2cc07d6p-1',
                '-0x1.00bc9516a1b5ep+3', '0x1.0ff4979c0a5ccp+3', '0x1.3cd063bb2355ep+3'),
            trace=(
                '0x1.abcec2c90dbedp-7', '0x1.355a377b936f2p-5', '0x1.abcebfdfa373fp-6',
                '0x1.1a77f631a07ccp-4', '0x1.9fd4000000000p-92',
                '0x1.2a3a85dfa0b06p-12', '0x1.1a77f631a07aep-4', '0x1.355a377b933cdp-6',
                '0x1.b5209730823ecp-7', '0x1.355a377b936edp-6', '0x1.05a0cc5f345dep-5',
                '0x1.abcec22bdaddcp-7', '0x1.2a3a88ab39654p-12',
                '0x1.1b80000000000p-97', '0x1.abcec0e43f554p-6', '0x1.abcebe21f864bp-7',
                '0x1.abcec59917003p-6', '0x1.67ce84108558bp-4', '0x1.b520972d359efp-7',
                '0x1.1a77f631a07bbp-4', '0x1.355a377b93719p-6', '0x1.1a77f631a07bbp-4',
                '0x1.1ba230b64f910p-4', '0x1.abcec3d6aecc8p-7', '0x1.05a0cc4506a0dp-5',
                '0x1.abcec22adc81ap-7', '0x1.6000000000000p-103',
                '0x1.1a77f631a07c3p-4', '0x1.abcec0ebb1309p-6', '0x1.4ff1ce752a648p-4',
                '0x1.355a377b936dcp-6', '0x1.67ce841085587p-4', '0x1.abcec2c349263p-6',
                '0x1.355a377b93722p-6', '0x1.abcec3218450ep-6', '0x1.0c3c900000000p-85',
                '0x1.b520989177116p-7', '0x1.3a03219c123f1p-6', '0x1.4ff1ce3c08866p-4',
                '0x1.355a377b93708p-6', '0x1.abcec054bc09ep-7', '0x1.1a77f631a07b6p-3',
                '0x1.abcec3898d600p-7', '0x1.05a0ccbd74e6ap-5', '0x1.1a77f631a10a9p-4'),
            status='000000000000000000000000000000000000000000000',
            reason='111111111111111111111111110010111011111111111',
            nfev=(
                54, 26, 44, 32, 25, 43, 26, 18, 44, 21, 28, 48, 33, 23, 29, 29, 66, 23,
                51, 23, 17, 20, 58, 26, 52, 32, 20, 19, 31, 32, 30, 24, 46, 19, 33, 30,
                41, 29, 31, 23, 32, 25, 29, 28, 18),
            nit=(
                52, 25, 40, 29, 23, 40, 24, 17, 40, 18, 27, 41, 31, 21, 27, 28, 55, 21,
                45, 22, 16, 18, 53, 23, 41, 29, 18, 18, 28, 28, 27, 23, 42, 18, 31, 28,
                37, 27, 29, 22, 30, 23, 28, 26, 17))),
        (('xx', 'config2', 'XX', 50, (2 << 32) | 0), dict(
            objective='0x1.a000000000000p-103',
            voltages=(
                '0x1.5e65152b7e70fp-4', '-0x1.e601b19b3a9c0p-29',
                '0x1.5e651c33ec75ap-4', '0x1.b8aee7010b1a0p-28',
                '-0x1.131e164d3b3ddp+3', '0x1.be02165ea7440p-29',
                '-0x1.131e164fa0735p+3', '-0x1.73b547e2b3240p-31'),
            trace=(
                '0x1.abcec079e13f1p-7', '0x1.abcec21f21170p-6', '0x1.abcec230f3cb2p-6',
                '0x1.4ff1ce74aedd2p-4', '0x1.abcec20774be2p-7', '0x1.abcebf65c6702p-6',
                '0x1.4d42000000000p-90', '0x1.abcec1cded4bdp-7', '0x1.abcec229ce177p-7',
                '0x1.1a77f631a07cap-3', '0x1.abcec2207d7c5p-7', '0x1.abcec21d55da7p-6',
                '0x1.abcec2ec9a5bep-7', '0x1.abcec1bafd823p-7', '0x1.abcec51c7ce7cp-7',
                '0x1.4800000000000p-101', '0x1.abcec28807a22p-7',
                '0x1.67ce8410855c0p-4', '0x1.abcec26cbb97ep-7', '0x1.abcec2508981ap-7',
                '0x1.4ff1ce59f7dd9p-4', '0x1.4ff1ce6e654b2p-4', '0x1.4ff1ce89916ddp-4',
                '0x1.abcec1eb3fd56p-7', '0x1.1a77f631a07c3p-4', '0x1.1a77f631a07bbp-4',
                '0x1.abcec22e04cd3p-7', '0x1.05a0cc85a607fp-5', '0x1.abcec22326744p-7',
                '0x1.a000000000000p-103', '0x1.abcec2a29cd9ep-6',
                '0x1.1a77f631a07bbp-4', '0x1.4ff1ce9ebd785p-4', '0x1.abcec220d2b60p-7',
                '0x1.6800000000000p-101', '0x1.4ff1ce771867cp-4',
                '0x1.1a77f631a07ccp-4', '0x1.abcec1f5b62acp-7', '0x1.4ff1ce6068885p-4',
                '0x1.4ff1ce759d6b8p-4', '0x1.355a377b936ffp-5', '0x1.05a0cc3bc8e6bp-5',
                '0x1.4ff1ce7611e9cp-4', '0x1.1a77f631a0804p-3', '0x1.4ff1ce1a311f3p-4',
                '0x1.abcec1e853a5cp-7', '0x1.abcec17eeac56p-7', '0x1.4ff1ce7515337p-4',
                '0x1.67ce841085576p-4', '0x1.d400000000000p-100'),
            status='00000000000000000000000000000000000000000000000000',
            reason='11111111111111101111111111110011100111101111111100',
            nfev=(
                23, 28, 27, 27, 27, 21, 16, 22, 24, 18, 21, 18, 19, 22, 19, 15, 23, 26,
                21, 25, 24, 24, 23, 23, 21, 15, 20, 22, 26, 17, 28, 21, 22, 30, 26, 47,
                17, 23, 24, 29, 18, 19, 27, 32, 20, 24, 19, 22, 20, 16),
            nit=(
                21, 26, 25, 25, 24, 20, 14, 20, 23, 16, 20, 17, 18, 21, 17, 13, 20, 23,
                20, 24, 23, 22, 22, 22, 19, 14, 18, 21, 22, 15, 24, 19, 20, 28, 23, 40,
                16, 21, 23, 27, 17, 18, 24, 29, 18, 22, 18, 20, 17, 14))),
        (('xx', 'config3', 'XX', 45, (2 << 32) | 1), dict(
            objective='0x1.0000000000000p-102',
            voltages=(
                '0x1.688a20c887d17p-2', '0x1.49e873144de58p-26', '0x1.688a22b54a65dp-2',
                '0x1.22bb084c48660p-25', '-0x1.10eb92d3e0777p+1',
                '-0x1.02b4f3e5cbfb8p+2', '-0x1.329069321bdbfp+2',
                '-0x1.fd017b08d7903p+2', '-0x1.09d6944019a8ap+3',
                '0x1.32f0985106b9ap+3', '-0x1.92edce6b4aab8p-2',
                '-0x1.bea6d71799467p+2', '0x1.1e3d07882c092p+3',
                '-0x1.18029e70370c4p-24', '-0x1.2bf256a4727bap+1',
                '0x1.226bc73e78074p-26', '-0x1.2bf2567406c28p+1',
                '0x1.f59536d3c1ff0p-26', '0x1.8b761070736b7p+1', '0x1.8ccbc52fa8464p+2',
                '0x1.2ecba2f233850p+0', '0x1.63a501d20ba40p+2'),
            trace=(
                '0x1.abcec14bbfe64p-7', '0x1.4ff1ce7a6e56bp-4', '0x1.b52094095aaafp-7',
                '0x1.1a77f631a07c3p-4', '0x1.4ff1ce4c92399p-4', '0x1.1a77f631a07ccp-4',
                '0x1.0000000000000p-102', '0x1.abcebf09b7dd8p-7',
                '0x1.2a3a89113f92ap-12', '0x1.abcec1ec854d2p-7', '0x1.1a77f631a07c8p-4',
                '0x1.1a77f631a07bbp-4', '0x1.abcec1eaa1336p-7', '0x1.355a377b936ffp-6',
                '0x1.abcec2be69fb8p-7', '0x1.2d00000000000p-98', '0x1.1a77f631a07c3p-4',
                '0x1.3a032199cd26bp-6', '0x1.4ff1cea47fa8fp-4', '0x1.3a0321bf97d3bp-6',
                '0x1.b5209815a7857p-7', '0x1.abcec278d6b5fp-7', '0x1.1a77f631a07d0p-4',
                '0x1.4ff1cea0e44c2p-4', '0x1.1a77f631a07c3p-4', '0x1.355a377b93708p-6',
                '0x1.1a77f631a07c3p-4', '0x1.abcec1ed9a304p-7', '0x1.abcec219d8f0cp-6',
                '0x1.abcec34331db9p-7', '0x1.4000000000000p-102',
                '0x1.1a77f631a07ccp-4', '0x1.4ff1ce6d734b2p-4', '0x1.355a377b936dcp-6',
                '0x1.abcec3ad1b846p-7', '0x1.67ce841085583p-4', '0x1.1a77f631a0818p-4',
                '0x1.9500000000000p-98', '0x1.abcec1719a059p-7', '0x1.67ce841085574p-4',
                '0x1.4ff1ce9143b76p-4', '0x1.355a377b936edp-6', '0x1.2a3acab8bee07p-12',
                '0x1.5a00000000000p-97', '0x1.b520976bb1200p-7'),
            status='000000000000000000000000000000000000000000000',
            reason='111111011111111111111111101111011111111110111',
            nfev=(
                20, 37, 41, 21, 25, 26, 19, 36, 31, 31, 23, 17, 40, 32, 44, 18, 22, 33,
                58, 53, 35, 34, 35, 32, 19, 18, 24, 32, 30, 41, 20, 21, 51, 24, 38, 19,
                24, 21, 32, 25, 32, 23, 44, 22, 58),
            nit=(
                19, 32, 39, 20, 23, 25, 16, 32, 29, 27, 22, 16, 36, 25, 38, 16, 21, 30,
                51, 48, 33, 31, 34, 29, 18, 17, 23, 30, 28, 39, 18, 20, 44, 22, 33, 18,
                22, 20, 28, 23, 28, 22, 39, 21, 53))),
        (('default', 'config2', 'XH', 20, 3), dict(
            objective='0x1.e06c4248ad4b8p-6',
            voltages=(
                '-0x1.571ddb5a80fb5p+2', '0x1.fc0d8c757f26ap+2',
                '-0x1.4000000000000p+3', '0x1.4000000000000p+3', '0x1.3d06ed0323e59p+3',
                '0x1.1fd7d61e9c02dp+3', '-0x1.971e95830ac61p+2', '0x1.62ca578e0a317p-1'),
            trace=(
                '0x1.5b4f8608492e8p-2', '0x1.144955048e3d4p-5', '0x1.38a554186294bp-2',
                '0x1.3d512f37ecfbap-2', '0x1.e06c4248ad51ep-6', '0x1.eb4bd261981ccp-4',
                '0x1.448041d164494p-3', '0x1.6d5f29b20f991p-3', '0x1.ef125ffe9f31ap-4',
                '0x1.baa2524e0012cp-3', '0x1.144955048e3d2p-5', '0x1.b798c6609ab55p-4',
                '0x1.9d8f1ed1c3a5cp-4', '0x1.75954935c3df3p-4', '0x1.638c507793574p-4',
                '0x1.ffba812592f68p-5', '0x1.e06c4248ad4b8p-6', '0x1.144955048e44cp-5',
                '0x1.485cea4b19f1fp-5', '0x1.485cea4b19edbp-5'),
            status='00000000000000000000',
            reason='11111101011001111111',
            nfev=(
                24, 73, 32, 29, 38, 40, 34, 43, 29, 36, 49, 32, 45, 44, 52, 38, 46, 50,
                49, 41),
            nit=(
                23, 68, 29, 26, 34, 33, 25, 39, 25, 34, 43, 28, 42, 40, 45, 35, 43, 48,
                47, 39))),
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
        active = np.array(config.active_electrodes) - 1
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
