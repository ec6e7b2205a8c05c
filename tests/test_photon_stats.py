import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rwasim.evolution import TransferUnitary, unitary
from rwasim.device import TridiagonalHamiltonian, VoltageConfig, build_hamiltonian
from rwasim.photon_stats import (
    DEFAULT_COHERENCE_SIGMA_MM,
    DegenerateSplittingError,
    DipFit,
    FitFailureError,
    HomScan,
    _grid_seeds,
    _initial_guess,
    dip_extrema,
    dip_jacobian,
    dip_model,
    fit_hom_dip,
    fit_hom_dips,
    ideal_visibility,
    reflectivity_from_powers,
    scan_to_csv,
    simulate_hom_scan,
    two_photon_coincidence,
    visibility_error,
)

from conftest import random_device
from scalar_reference import trf_dip_fit


def reference_fit(scan: HomScan) -> np.ndarray:
    """(a0, a1, a2, a3, a4) from scipy's trust-region fit with a
    finite-difference Jacobian, started from `_initial_guess`."""
    result = trf_dip_fit(scan, _initial_guess(scan))
    assert result.success, result.message
    return result.x


def fit_cost(fit: DipFit, scan: HomScan) -> float:
    return 0.5 * float(np.sum((fit.model(scan.delays) - scan.counts) ** 2))


def eta_coupler(eta: float) -> TransferUnitary:
    t, r = math.sqrt(eta), math.sqrt(1 - eta)
    return TransferUnitary(matrix=np.array([[t, 1j * r], [1j * r, t]]),
                           length=1.0)


class TestTwoPhotonCoincidence:
    def test_hom_bunching_at_balanced_coupler(self):
        p = two_photon_coincidence(eta_coupler(0.5), (1, 2), (1, 2))
        assert p == pytest.approx(0.0, abs=1e-15)

    def test_unbalanced_coupler_coincidence(self):
        p = two_photon_coincidence(eta_coupler(0.897), (1, 2), (1, 2))
        assert p == pytest.approx((2 * 0.897 - 1) ** 2, abs=1e-12)

    def test_distinguishable_balanced(self):
        p = two_photon_coincidence(eta_coupler(0.5), (1, 2), (1, 2),
                                   indistinguishable=False)
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_repeated_port_rejected(self):
        with pytest.raises(ValueError):
            two_photon_coincidence(eta_coupler(0.5), (1, 1), (1, 2))
        with pytest.raises(ValueError):
            two_photon_coincidence(eta_coupler(0.5), (1, 2), (2, 2))

    def test_indistinguishable_outputs_normalized(self):
        # coincidences over unordered pairs plus bunched terms sum to 1
        rng = np.random.default_rng(23)
        h = build_hamiltonian(random_device(rng),
                              VoltageConfig(rng.uniform(-10, 10, 22)))
        u = unitary(h, 24.0)
        n = u.n_guides
        total = 0.0
        for m in range(1, n + 1):
            for out in range(m + 1, n + 1):
                total += two_photon_coincidence(u, (1, 2), (m, out))
            # bunched: both photons exit guide m
            total += 2 * abs(u.matrix[m - 1, 0] * u.matrix[m - 1, 1]) ** 2
        assert total == pytest.approx(1.0, abs=1e-9)


class TestIdealVisibility:
    def test_balanced_is_unity(self):
        assert ideal_visibility(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_fully_reflective_no_interference(self):
        assert ideal_visibility(1.0) == 0.0

    def test_formula_value(self):
        assert ideal_visibility(0.897) == pytest.approx(0.22666, abs=1e-5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ideal_visibility(1.2)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 0.99))
    def test_matches_permanent_based_oracle(self, eta):
        u = eta_coupler(eta)
        p_ind = two_photon_coincidence(u, (1, 2), (1, 2), indistinguishable=True)
        p_dist = two_photon_coincidence(u, (1, 2), (1, 2), indistinguishable=False)
        assert ideal_visibility(eta) == pytest.approx(
            (p_dist - p_ind) / p_dist, abs=1e-12
        )


class TestReflectivityFromPowers:
    def test_balanced(self):
        assert reflectivity_from_powers(0.5, 0.5, 0.5, 0.5) == pytest.approx(0.5)

    def test_ratio_nine(self):
        assert reflectivity_from_powers(0.9, 0.1, 0.1, 0.9) == pytest.approx(
            0.9, abs=1e-12
        )

    def test_degenerate_splitting(self):
        with pytest.raises(DegenerateSplittingError):
            reflectivity_from_powers(0.5, 0.0, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_non_finite_or_negative_power_rejected(self, bad):
        # NaN passed a bare p < 0 check and came back as eta = NaN
        for i in range(4):
            powers = [0.5] * 4
            powers[i] = bad
            with pytest.raises(ValueError, match=f"P{(11, 12, 21, 22)[i]}"):
                reflectivity_from_powers(*powers)

    @pytest.mark.parametrize("powers,expected", [
        ((0.5, 1e-160, 1e-160, 0.5), 1.0),
        ((1e200, 1e200, 1e200, 1e200), 0.5),
        ((3e160, 1.0, 1.0, 3e160), 1.0),
        ((1e-170, 1e-170, 1e-170, 1e-170), 0.5),  # P12 P21 underflows to 0
    ])
    def test_powers_beyond_double_range(self, powers, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reflectivity_from_powers(*powers) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.001, 0.999))
    def test_inverts_the_coupler(self, eta):
        p = np.abs(eta_coupler(eta).matrix) ** 2
        recovered = reflectivity_from_powers(p[0, 0], p[1, 0], p[0, 1], p[1, 1])
        assert recovered == pytest.approx(eta, abs=1e-12)


class TestSimulateHomScan:
    def test_full_dip_at_center(self):
        scan = simulate_hom_scan(0.5, [0.0], baseline_rate=500.0)
        assert scan.counts[0] == pytest.approx(0.0, abs=1e-12)

    def test_eta_one_is_flat(self):
        delays = np.linspace(-1, 1, 21)
        scan = simulate_hom_scan(1.0, delays, baseline_rate=800.0)
        np.testing.assert_allclose(scan.counts, 800.0)

    def test_partial_dip_depth(self):
        scan = simulate_hom_scan(0.897, [0.0], baseline_rate=1000.0)
        assert scan.counts[0] == pytest.approx(1000 * (1 - 0.22666), abs=0.01)

    def test_seeded_noise_reproducible(self):
        delays = np.linspace(-1, 1, 41)
        a = simulate_hom_scan(0.6, delays, 1000.0, noise_seed=4)
        b = simulate_hom_scan(0.6, delays, 1000.0, noise_seed=4)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = simulate_hom_scan(0.6, delays, 1000.0, noise_seed=5)
        assert not np.array_equal(a.counts, c.counts)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            simulate_hom_scan(0.5, [0.0], baseline_rate=0.0)
        with pytest.raises(ValueError):
            simulate_hom_scan(0.5, [0.0], baseline_rate=10.0, coherence_width=0.0)


class TestFitHomDip:
    def make_scan(self, a0, a1, a2, a3, a4, n=81, span=1.0):
        x = np.linspace(a3 - span, a3 + span, n)
        return HomScan(delays=x, counts=dip_model(x, a0, a1, a2, a3, a4))

    def test_recovers_noiseless_parameters(self):
        truth = (12.0, 1000.0, 0.962, 0.05, 0.09)
        fit = fit_hom_dip(self.make_scan(*truth))
        assert fit.a2 == pytest.approx(0.962, abs=1e-6)
        assert fit.a3 == pytest.approx(0.05, abs=1e-6)
        assert fit.a4 == pytest.approx(0.09, abs=1e-6)

    def test_baseline_drift_deeper_than_dip(self):
        # the drift over the scan (2,738 counts) is larger than the dip
        # (about 1,300 counts), so the raw minimum sits at the left edge
        x = np.linspace(-0.6, 0.6, 121)
        scan = HomScan(delays=x, counts=dip_model(
            x, 2282.0, 1e4, 0.126, 0.121, DEFAULT_COHERENCE_SIGMA_MM))
        assert np.argmin(scan.counts) == 0
        fit = fit_hom_dip(scan)
        assert fit.a2 == pytest.approx(0.126, abs=1e-9)
        assert fit.a3 == pytest.approx(0.121, abs=1e-9)

    def test_flat_scan_zero_visibility(self):
        x = np.linspace(-1, 1, 41)
        fit = fit_hom_dip(HomScan(delays=x, counts=np.full(41, 500.0)))
        assert fit.a2 == pytest.approx(0.0, abs=1e-3)

    def test_fit_idempotent(self):
        fit1 = fit_hom_dip(self.make_scan(5.0, 900.0, 0.5, 0.0, 0.12))
        x = np.linspace(-1, 1, 81)
        scan2 = HomScan(delays=x, counts=fit1.model(x))
        fit2 = fit_hom_dip(scan2)
        for attr in ("a0", "a1", "a2", "a3", "a4"):
            assert getattr(fit2, attr) == pytest.approx(
                getattr(fit1, attr), abs=1e-6
            )

    def test_poisson_noise_recovery(self):
        # 1% relative noise at baseline 1e4
        x = np.linspace(-0.6, 0.6, 61)
        errors = []
        for seed in range(100):
            scan = simulate_hom_scan(0.5, x, baseline_rate=1e4, noise_seed=seed,
                                     overlap=0.5)
            errors.append(abs(fit_hom_dip(scan).a2 - 0.5))
        assert max(errors) < 0.02

    def test_too_few_points(self):
        x = np.linspace(-1, 1, 5)
        with pytest.raises(ValueError):
            fit_hom_dip(HomScan(delays=x, counts=np.full(5, 10.0)))

    def test_visibility_curve_matches_ideal(self):
        x = np.linspace(-0.5, 0.5, 101)
        for eta in np.linspace(0.5, 1.0, 6):
            scan = simulate_hom_scan(eta, x, baseline_rate=1000.0)
            fit = fit_hom_dip(scan)
            assert fit.a2 == pytest.approx(ideal_visibility(eta), abs=0.01)

    def test_flat_noisy_scan_fits_near_zero(self):
        # no dip under 1% noise: with a4 unbounded the fit ran off to
        # a4 >> span with a2 near 1 and hit the evaluation cap
        fit = fit_hom_dip(simulate_hom_scan(1.0, np.linspace(-0.6, 0.6, 121), 1e4,
                                            noise_seed=1))
        assert 0.0 <= fit.a2 <= 3 * fit.visibility_error

    def test_flat_valley_seed_converges(self):
        # scipy's trust-region fit crawled along the flat a3/a4 valley left at
        # a2 near 0 and raised at its 5,000-evaluation cap on this scan
        fit = fit_hom_dip(simulate_hom_scan(1.0, np.linspace(-0.6, 0.6, 121), 1e4,
                                            noise_seed=20))
        assert 0.0 <= fit.a2 <= 0.5

    @pytest.mark.parametrize("baseline", [1e3, 1e4])
    def test_eta_one_seeds_stay_inside_scan(self, baseline):
        # with a3 and a4 unbounded, 7 (1e3) and 5 (1e4) of these 40 fits hit
        # the evaluation cap and 2 more fitted a2 > 0.5
        x = np.linspace(-0.6, 0.6, 121)
        failures = 0
        for seed in range(40):
            try:
                fit = fit_hom_dip(simulate_hom_scan(1.0, x, baseline, noise_seed=seed))
            except FitFailureError:
                failures += 1
                continue
            assert fit.a2 <= 0.5, seed
            assert x[0] <= fit.a3 <= x[-1], seed
            assert 0.5 * np.diff(x).min() <= fit.a4 <= 0.5 * (x[-1] - x[0]), seed
        assert failures == 0

    def test_evaluation_cap_raises(self):
        # a noiseless full dip pins a2 on its bound 1, which takes more
        # than the one step max_iterations=1 allows
        scan = simulate_hom_scan(0.5, np.linspace(-0.6, 0.6, 121), 1e4)
        assert fit_hom_dip(scan).a2 == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(FitFailureError) as info:
            fit_hom_dip(scan, max_iterations=1)
        assert math.isfinite(info.value.residual_norm)
        assert info.value.residual_norm > 0


class TestDipJacobian:
    H = 1e-5  # central-difference step in a3 and a4, relative to a4
    RTOL = 1e-7  # of each column's largest entry

    @settings(max_examples=300, deadline=None)
    @given(a0=st.floats(-50, 50), a1=st.floats(10, 1e4),
           a2=st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 1)),
           a3=st.floats(-0.5, 0.5),
           log10_a4=st.floats(-8.8, 0.0))  # far below any scan's half step
    def test_matches_central_differences(self, a0, a1, a2, a3, log10_a4):
        a4 = 10.0**log10_a4
        # a wide grid plus points within four widths of the centre, so the
        # Gaussian columns are not all zero for the narrowest dips
        x = np.concatenate([np.linspace(-1, 1, 41),
                            a3 + a4 * np.linspace(-4, 4, 17)])
        p = np.array([a0, a1, a2, a3, a4])
        jac = dip_jacobian(x, *p)
        assert jac.shape == (x.size, 5)
        # the model is linear in a0..a2, where a unit step is exact up to
        # rounding; a3 and a4 act on the scale of a4
        steps = np.array([1.0, 1.0, 1.0, self.H * a4, self.H * a4])
        for j in range(5):
            hi, lo = p.copy(), p.copy()
            hi[j] += steps[j]
            lo[j] -= steps[j]
            fd = (dip_model(x, *hi) - dip_model(x, *lo)) / (hi[j] - lo[j])
            atol = self.RTOL * np.max(np.abs(fd))
            np.testing.assert_allclose(jac[:, j], fd, rtol=0, atol=atol,
                                       err_msg=f"column a{j}")


class TestFitMatchesReference:
    """`fit_hom_dip` with the exact Jacobian against `reference_fit`."""

    DELAYS = np.linspace(-0.6, 0.6, 121)
    BASELINE = 1e4  # 1% relative Poisson noise
    MIN_VISIBILITY = 0.05

    @settings(max_examples=150, deadline=None)
    @given(eta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)),
           seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
           center=st.floats(-0.2, 0.2),
           slope=st.floats(-200, 200))  # up to a 2.4% drift over the scan
    @example(eta=0.0, seed=None, center=0.0, slope=0.0)
    @example(eta=1.0, seed=None, center=0.0, slope=145.0)
    @example(eta=0.5, seed=None, center=0.0, slope=0.0)
    @example(eta=0.5, seed=3, center=0.1, slope=-50.0)
    def test_matches_finite_difference_fit(self, eta, seed, center, slope):
        # Flat scans (a2 -> 0) are noiseless. A dip shallower than five noise
        # widths is not resolved: the fit is ill-posed there, and with either
        # Jacobian it can end in the a4 >> span valley or hit the cap.
        v = ideal_visibility(eta)
        assume((v == 0.0 and seed is None) or v >= self.MIN_VISIBILITY)
        scan = simulate_hom_scan(eta, self.DELAYS, self.BASELINE, slope=slope,
                                 dip_center=center, noise_seed=seed)
        fit = fit_hom_dip(scan)
        ref = reference_fit(scan)
        # on flat sloped scans a2 is unresolved below about 3e-6
        assert fit.a2 == pytest.approx(ref[2], abs=1e-5)
        if ref[2] >= 0.01:  # a3 and a4 leave the model as a2 -> 0
            assert fit.a3 == pytest.approx(ref[3], abs=1e-6)
            assert fit.a4 == pytest.approx(ref[4], rel=1e-5)


class TestGlobalFit:
    """The grid-seeded fit against scipy's trust-region fit from each of its
    starts, and the batched fit against one fit per scan."""

    DELAYS = np.linspace(-0.6, 0.6, 121)
    BOUNDS = (np.array([-np.inf, -np.inf, 0.0, -0.6, 0.5 * np.diff(DELAYS).min()]),
              np.array([np.inf, np.inf, 1.0, 0.6, 0.6]))

    @pytest.mark.parametrize("baseline", [1e3, 1e4])
    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_cost_at_most_trust_region_from_either_start(self, eta, baseline):
        # seeds 0-9 of the 200-seed survey whose counts CHANGES.md records
        for seed in range(10):
            scan = simulate_hom_scan(eta, self.DELAYS, baseline, noise_seed=seed)
            fit = fit_hom_dip(scan)
            starts = (_initial_guess(scan),
                      _grid_seeds(self.DELAYS, scan.counts[None], *self.BOUNDS)[0, 0])
            trf = min(trf_dip_fit(scan, x0, exact_jacobian=True).cost for x0 in starts)
            assert fit_cost(fit, scan) <= (1 + 1e-9) * trf, seed
            if eta == 1.0:
                assert fit.a2 <= 0.5, seed

    @settings(max_examples=20, deadline=None)
    @given(etas=st.lists(st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0, 1)),
                         min_size=8, max_size=8),
           seed=st.integers(0, 2**32 - 1), baseline=st.sampled_from([1e3, 1e4]),
           slope=st.floats(-200, 200))
    def test_batch_rows_equal_single_fits(self, etas, seed, baseline, slope):
        scans = [simulate_hom_scan(eta, self.DELAYS, baseline, slope=slope,
                                   noise_seed=seed + i) for i, eta in enumerate(etas)]
        batch = fit_hom_dips(scans)
        assert batch == [fit_hom_dip(scan) for scan in scans]

    def test_fit_builds_no_scan(self, monkeypatch):
        # the fit used to rebuild, and so re-check, every scan it was given
        scan = simulate_hom_scan(0.5, self.DELAYS, 1e3, noise_seed=1)
        built = []
        monkeypatch.setattr(HomScan, "__post_init__", built.append)
        fit_hom_dip(scan)
        assert built == []

    def test_batch_needs_shared_delays(self):
        scans = [simulate_hom_scan(0.5, delays, 1e3) for delays in
                 (self.DELAYS, self.DELAYS + 0.01)]
        with pytest.raises(ValueError, match="share their delays"):
            fit_hom_dips(scans)


class TestDipExtrema:
    def test_fwhm_factor(self):
        fit = DipFit(a0=0.0, a1=100.0, a2=0.5, a3=0.0, a4=1.0)
        scan = HomScan(delays=np.linspace(-3, 3, 21),
                       counts=fit.model(np.linspace(-3, 3, 21)))
        alpha = 2 * math.sqrt(2 * math.log(2))
        assert alpha == pytest.approx(2.35482, abs=1e-5)
        n_max, _ = dip_extrema(fit, scan)
        expected = 0.5 * (fit.model(-alpha / 2) + fit.model(alpha / 2))
        assert n_max == pytest.approx(float(expected), abs=1e-12)

    def test_n_min_from_raw_data(self):
        fit = DipFit(a0=0.0, a1=100.0, a2=0.0, a3=0.0, a4=1.0)
        scan = HomScan(delays=np.linspace(-1, 1, 11), counts=np.full(11, 100.0))
        _, n_min = dip_extrema(fit, scan)
        assert n_min == 100.0


class TestVisibilityError:
    def test_reference_value(self):
        assert visibility_error(100.0, 4.0) == pytest.approx(
            0.04 * math.sqrt(0.26), abs=1e-9
        )
        assert visibility_error(100.0, 4.0) == pytest.approx(0.020396, abs=1e-6)

    def test_zero_minimum_limit(self):
        assert visibility_error(100.0, 0.0) == 0.0

    def test_equal_counts(self):
        assert visibility_error(100.0, 100.0) == pytest.approx(
            math.sqrt(0.02), abs=1e-12
        )

    def test_non_positive_max_rejected(self):
        with pytest.raises(ValueError):
            visibility_error(0.0, 1.0)


class TestScanCsv:
    def test_round_trip(self, tmp_path):
        scan = simulate_hom_scan(0.7, np.linspace(-1, 1, 21), 500.0, noise_seed=1)
        path = tmp_path / "scan.csv"
        scan_to_csv(scan, path)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(loaded[:, 0], scan.delays)
        np.testing.assert_array_equal(loaded[:, 1], scan.counts)


class TestHomScanValidation:
    def test_delays_must_increase(self):
        with pytest.raises(ValueError):
            HomScan(delays=np.array([0.0, 0.0, 1.0]), counts=np.zeros(3))

    def test_counts_non_negative(self):
        with pytest.raises(ValueError):
            HomScan(delays=np.array([0.0, 1.0]), counts=np.array([1.0, -2.0]))

    @pytest.mark.parametrize("delays,counts", [
        ([0.0, 1.0], [1.0, np.nan]), ([0.0, 1.0], [1.0, np.inf]), ([np.nan], [1.0]),
    ])
    def test_non_finite_rejected(self, delays, counts):
        # a NaN count used to fail only inside the fit, as a scipy bounds error
        with pytest.raises(ValueError, match="finite"):
            HomScan(delays=np.array(delays), counts=np.array(counts))
