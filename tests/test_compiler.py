import json
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwasim import compiler
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
from rwasim.device import DeviceSpec, DeviceSpecError, VoltageBoundError, VoltageConfig
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
        obj = compiler._objective_value(fid, ct, leak)
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
           point_seed=st.integers(0, 2**32 - 1))
    def test_matches_objective_and_central_differences(
            self, device_seed, config_name, gates, point_seed):
        # device_seed None is the decoupled X(x)X device, whose Hamiltonian
        # has repeated eigenvalues
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
            return full_u_evaluate(spec, embed(y), config, targets)[0]

        [value], [grad], _ = objective_with_gradient(spec, config, targets)(x[None])
        obj, metrics = kernel_metrics(spec, config, targets, embed(x))
        ref_obj, ref_metrics = full_u_evaluate(spec, embed(x), config, targets)
        assert objective(spec, embed(x), config, targets) == obj == value
        assert abs(obj - ref_obj) <= 1e-12
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
        solver = compiler.minimize_box

        def first_fails_line_search(*args, **kwargs):
            result = solver(*args, **kwargs)
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

    def test_restart_blocks_bound_the_batch(self, monkeypatch):
        spec, config = make_xx_device(), preset_config("config2")
        whole = optimize_parallel_gates(spec, config, XX, restarts=7, seed=4)
        monkeypatch.setattr(compiler, "LOCKSTEP_BLOCK", 3)
        with mock.patch.object(compiler, "minimize_box",
                               wraps=compiler.minimize_box) as driver:
            blocked = optimize_parallel_gates(spec, config, XX, restarts=7, seed=4)
        assert [len(call.args[1]) for call in driver.call_args_list] == [3, 3, 1]
        np.testing.assert_array_equal(blocked.restart_status, whole.restart_status)
        np.testing.assert_allclose(blocked.restart_trace, whole.restart_trace,
                                   rtol=0, atol=1e-12)

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
        # a gradient of the wrong sign: no step along -g lowers f
        def uphill(x):
            return np.sum(x * x, axis=1), -2.0 * x

        result = minimize_box(uphill, np.full((2, 3), 0.5), -1.0, 1.0,
                              maxiter=500, ftol=1e-13, gtol=1e-10)
        assert compiler.STOP_STATUS[result.stop].tolist() == [2, 2]
        assert result.nit.tolist() == [0, 0]
        assert result.nfev.tolist() == [21, 21]  # the start and 20 trials
        np.testing.assert_array_equal(result.x, np.full((2, 3), 0.5))

    def test_converged_start_takes_no_step(self):
        result = minimize_box(rosen_rows, np.ones((1, 4)), -2.0, 2.0,
                              maxiter=500, ftol=1e-13, gtol=1e-10)
        assert (result.nit.tolist(), result.nfev.tolist(), result.stop.tolist()) == (
            [0], [1], [0])


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
