import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rwasim.evolution import TransferUnitary, unitary
from rwasim.device import TridiagonalHamiltonian, VoltageConfig, build_hamiltonian
from rwasim import photon_stats
from rwasim.photon_stats import (
    _SEED_TABLES_KEPT,
    DEFAULT_COHERENCE_SIGMA_MM,
    DipFit,
    FitFailureError,
    HomScan,
    _grid_seeds,
    _initial_guess,
    _seed_tables,
    dip_extrema,
    dip_jacobian,
    dip_model,
    fit_bounds,
    fit_hom_dip,
    fit_hom_dips,
    ideal_visibility,
    least_squares,
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
    curve = dip_model(scan.delays, fit.a0, fit.a1, fit.a2, fit.a3, fit.a4)
    return 0.5 * float(np.sum((curve - scan.counts) ** 2))


def eta_coupler(eta: float) -> TransferUnitary:
    t, r = math.sqrt(eta), math.sqrt(1 - eta)
    return TransferUnitary(matrix=np.array([[t, 1j * r], [1j * r, t]]))


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

    def test_guide_out_of_range_rejected(self):
        with pytest.raises(IndexError, match="guide 3 out of range 1..2"):
            two_photon_coincidence(eta_coupler(0.5), (1, 2), (1, 3))

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

    @pytest.mark.parametrize("overlap", [-0.1, 1.1])
    def test_overlap_outside_unit_interval_rejected(self, overlap):
        with pytest.raises(ValueError, match="overlap must be in"):
            simulate_hom_scan(0.5, [0.0], 10.0, overlap=overlap)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(baseline_rate=np.inf), "baseline_rate"),
        (dict(slope=np.nan), "slope"), (dict(slope=-np.inf), "slope"),
        (dict(dip_center=np.nan), "dip_center"),
        (dict(dip_center=np.inf), "dip_center"),
        (dict(coherence_width=np.inf), "coherence_width"),
        (dict(coherence_width=np.nan), "coherence_width"),
        # finite, but 2 width^2 overflows or vanishes
        (dict(coherence_width=1e300), "coherence_width"),
        (dict(coherence_width=1.5e154), "coherence_width"),
        (dict(coherence_width=1e-300), "coherence_width"),
        # finite, but 2 width^2 is subnormal and the exponent overflows
        (dict(coherence_width=1e-160), "coherence_width"),
        (dict(dip_center=1e200), "coherence_width"),
        # a finite mean above the Poisson draw's limit, and an overflowing one
        (dict(baseline_rate=1e308, slope=1e308), "baseline_rate and slope"),
        (dict(baseline_rate=1e19), "baseline_rate and slope"),
        (dict(baseline_rate=1e308, slope=1.7e308), "baseline_rate and slope"),
    ])
    def test_non_finite_parameters_rejected(self, kwargs, name):
        # these used to give a flat or all-zero scan, an OverflowError from
        # dip_model or numpy's "lam value too large" from the Poisson draw
        kwargs = dict(dict(baseline_rate=1e3), **kwargs)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            simulate_hom_scan(0.5, np.linspace(-0.6, 0.6, 121), noise_seed=0, **kwargs)


    def test_negative_noise_seed_is_not_blamed_on_the_rate(self):
        with pytest.raises(ValueError, match="non-negative"):
            simulate_hom_scan(0.5, np.linspace(-0.6, 0.6, 121), 1e3, noise_seed=-1)


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
        scan2 = HomScan(delays=x, counts=dip_model(
            x, fit1.a0, fit1.a1, fit1.a2, fit1.a3, fit1.a4))
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
        lower, upper = fit_bounds(x)
        failures = 0
        for seed in range(40):
            try:
                fit = fit_hom_dip(simulate_hom_scan(1.0, x, baseline, noise_seed=seed))
            except FitFailureError:
                failures += 1
                continue
            assert fit.a2 <= 0.5, seed
            assert lower[3] <= fit.a3 <= upper[3], seed
            assert lower[4] <= fit.a4 <= upper[4], seed
        assert failures == 0

    @pytest.mark.parametrize("counts,got", [(0.0, "got 0 for scan 1"),
                                            (1e300, "got inf for scan 1")])
    def test_counts_need_a_positive_finite_sum_of_squares(self, counts, got):
        # an all-zero scan fitted a perfect dip, a2 = 1 +/- 0, and counts
        # whose squares overflow ended in "residual norm nan" after numpy's
        # overflow warnings, which pytest raises
        x = np.linspace(-0.6, 0.6, 121)
        good = simulate_hom_scan(0.5, x, 1e4)
        bad = HomScan(delays=x, counts=np.full(x.size, counts))
        with pytest.raises(ValueError, match=f"^counts must .* {got}$"):
            fit_hom_dips([good, bad])
        with pytest.raises(ValueError, match="for scan 0"):
            fit_hom_dip(bad)

    @pytest.mark.parametrize("baseline", [5e152, 1e153, 1.3e153])
    def test_counts_that_could_overflow_the_normal_matrix_refused(self, baseline):
        # these noiseless scans have a finite sum of squared counts, but J^T J
        # overflowed in least_squares ("overflow encountered in matmul",
        # which pytest raises) before the fit ended unconverged
        scan = simulate_hom_scan(0.5, np.linspace(-0.6, 0.6, 121), baseline)
        with pytest.raises(ValueError, match=r"^counts must .* w = 0\.005 mm and"
                                             r" the largest count c = \S+; got inf"
                                             r" for scan 0$"):
            fit_hom_dip(scan)

    def test_counts_below_the_normal_matrix_bound_fit(self):
        # n (c / w)^2 finite: c below w sqrt(max / n), about 6.09e150 here
        x = np.linspace(-0.6, 0.6, 121)
        bound = fit_bounds(x)[0][4] * math.sqrt(np.finfo(float).max / x.size)
        fit = fit_hom_dip(simulate_hom_scan(0.5, x, 0.99 * bound))
        assert fit.a2 == pytest.approx(1.0, abs=1e-6)
        assert fit.a1 == pytest.approx(0.99 * bound, rel=1e-9)

    def test_evaluation_cap_raises(self, monkeypatch):
        # a noiseless full dip pins a2 on its bound 1, which takes more
        # than the one step MAX_FIT_ITERATIONS = 1 allows
        scan = simulate_hom_scan(0.5, np.linspace(-0.6, 0.6, 121), 1e4)
        assert fit_hom_dip(scan).a2 == pytest.approx(1.0, abs=1e-9)
        monkeypatch.setattr(photon_stats, "MAX_FIT_ITERATIONS", 1)
        with pytest.raises(FitFailureError) as info:
            fit_hom_dip(scan)
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

    @pytest.mark.parametrize("baseline", [1e3, 1e4])
    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_cost_at_most_trust_region_from_either_start(self, eta, baseline):
        # seeds 0-9 of the 200-seed survey whose counts CHANGES.md records
        for seed in range(10):
            scan = simulate_hom_scan(eta, self.DELAYS, baseline, noise_seed=seed)
            fit = fit_hom_dip(scan)
            starts = (_initial_guess(scan),
                      _grid_seeds(self.DELAYS, scan.counts[None])[0, 0])
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


def golden_scan(eta, points, half_span, baseline, slope, seed):
    return simulate_hom_scan(eta, np.linspace(-half_span, half_span, points), baseline,
                             slope=slope, noise_seed=seed)


def hexes(fit: DipFit) -> tuple:
    return tuple(float(v).hex() for v in fit.to_dict().values())


class TestGoldenFits:
    """`fit_hom_dip(scan).to_dict()` pinned bit for bit, in `to_dict` order,
    so that a change meant to leave the fit's arithmetic alone is seen to.
    Captured with numpy 2.4 and OpenBLAS at one thread on x86-64; another
    BLAS build may differ in the last bits."""

    # (eta, points, half span in mm, baseline, slope, noise seed), to_dict
    CASES = [
        ((0.0, 121, 0.6, 1e4, 0.0, 1),
         ('-0x1.92d3ded1d54c5p+5', '0x1.384393a068093p+13', '0x1.7ffed1233494dp-7',
          '0x1.864b4cd79554fp-4', '0x1.7f35f36fb3fa9p-7', '0x1.7ffed1233494dp-7',
          '0x1.c95b0616edab8p-7')),
        ((0.3, 121, 0.6, 1e4, 0.0, 2),
         ('-0x1.1fecf4cab7d3ep+4', '0x1.38667a052a9d5p+13', '0x1.70e46e110c482p-1',
          '-0x1.d6a9539ef27c7p-12', '0x1.6e7dd590b524ap-4', '0x1.70e46e110c482p-1',
          '0x1.476fa5fdaff2ep-7')),
        ((0.5, 121, 0.6, 1e4, 0.0, 3),
         ('0x1.f14d973e885c5p+0', '0x1.38d1623a79674p+13', '0x1.ffcefeb0d1384p-1',
          '0x1.ddb82ed71bfd3p-13', '0x1.6eaa8afd53d5fp-4', '0x1.ffcefeb0d1384p-1',
          '0x0.0p+0')),
        ((0.9, 121, 0.6, 1e4, 0.0, 4),
         ('-0x1.826f366a03f66p+4', '0x1.38c8028a7e0e4p+13', '0x1.c1633bf169f6bp-3',
          '-0x1.bbb007ef3b49bp-11', '0x1.6a1a5aabbd3ddp-4', '0x1.c1633bf169f6bp-3',
          '0x1.b7da5ff93e1a8p-7')),
        ((1.0, 121, 0.6, 1e4, 0.0, 5),
         ('-0x1.61473eb3b253ep+4', '0x1.388924853ad66p+13', '0x1.4c7d1fff84df6p-6',
          '-0x1.5860ca29db77cp-12', '0x1.7ae94612b778bp-7', '0x1.4c7d1fff84df6p-6',
          '0x1.cbeff00b0bb3dp-7')),
        ((0.5, 121, 0.6, 1e3, 0.0, 6),
         ('-0x1.537ff60b905bep+2', '0x1.f2d0756f0fa5cp+9', '0x1.fd579621dbcbfp-1',
          '0x1.4fa25883b9442p-14', '0x1.6ef90b81fdca1p-4', '0x1.fd579621dbcbfp-1',
          '0x0.0p+0')),
        ((1.0, 121, 0.6, 1e3, 0.0, 7),
         ('0x1.bc871b641e947p+2', '0x1.f5a3e4df86261p+9', '0x1.01a7634cd8687p-5',
          '0x1.03313d219989dp-1', '0x1.f9568cc40e448p-5', '0x1.01a7634cd8687p-5',
          '0x1.56dd38fdf615ep-5')),
        ((0.3, 121, 0.6, 1e4, 150.0, 8),
         ('0x1.3bdf0dc29a3cep+7', '0x1.38166cfe66e7cp+13', '0x1.7124f43971b70p-1',
          '0x1.e58eedc99a149p-12', '0x1.6d2ae70a0e790p-4', '0x1.7124f43971b70p-1',
          '0x1.49046483564d3p-7')),
        ((0.5, 51, 0.5, 1e4, 0.0, 9),
         ('-0x1.c85d00539b48ep+3', '0x1.394870c7ae9b1p+13', '0x1.ff90b301d5ec2p-1',
          '0x1.803d88ee15599p-14', '0x1.6e24d4b15bda4p-4', '0x1.ff90b301d5ec2p-1',
          '0x0.0p+0')),
        ((0.9, 51, 0.5, 1e3, 0.0, 10),
         ('-0x1.2f977917ad47cp+4', '0x1.f1b42e3346088p+9', '0x1.b80d04e569c7ep-3',
          '-0x1.62630b011202dp-10', '0x1.6e6013d43c9bep-4', '0x1.b80d04e569c7ep-3',
          '0x1.5de2ab515d497p-5')),
        ((1.0, 51, 0.5, 1e4, 0.0, 11),
         ('0x1.b2eb64c18de85p+3', '0x1.37f39ee52d2e2p+13', '0x1.373656a0f482ep-6',
          '0x1.0000000000000p-1', '0x1.d7cb4f2b9429cp-7', '0x1.373656a0f482ep-6',
          '0x1.cb2ef6091fa84p-7')),
        ((0.0, 51, 0.5, 1e3, -100.0, 12),
         ('-0x1.5f556281d44e6p+4', '0x1.01822b3552affp+10', '0x1.1dfde62423e75p-4',
          '0x1.511a58d9fc3cfp-2', '0x1.867188d3f100cp-3', '0x1.1dfde62423e75p-4',
          '0x1.55b3b8d92719ep-5')),
    ]
    # fit_hom_dips on eta 0.1, 0.5, 0.7, 0.95 and 1.0 (121 delays over
    # +/-0.6 mm, baseline 1e4, noise seeds 20-24)
    BATCH_ETAS = (0.1, 0.5, 0.7, 0.95, 1.0)
    BATCH = [
        ('0x1.a8594a196cd34p+5', '0x1.390368ab75ea2p+13', '0x1.c9432f37821fbp-3',
         '0x1.ca1364a6394bep-11', '0x1.7542155e424aep-4', '0x1.c9432f37821fbp-3',
         '0x1.ba8d2646f9e03p-7'),
        ('-0x1.758acdc8d11c2p+5', '0x1.389e99b1baf6ep+13', '0x1.0000000000000p+0',
         '-0x1.1fe021d7813fcp-14', '0x1.6d57cb264c234p-4', '0x1.0000000000000p+0',
         '0x0.0p+0'),
        ('-0x1.948865f80fd17p+4', '0x1.37f5dd5db8a2ep+13', '0x1.7234ca2af41bfp-1',
         '0x1.8524e498b6f48p-12', '0x1.70c3140474193p-4', '0x1.7234ca2af41bfp-1',
         '0x1.45c3f4ecff1efp-7'),
        ('-0x1.7c8a09cdf7eb0p+3', '0x1.3890e811f80d1p+13', '0x1.9b38372b1e7b2p-4',
         '0x1.eab651ceb46c7p-9', '0x1.789152ae209b1p-4', '0x1.9b38372b1e7b2p-4',
         '0x1.c303e917f6e08p-7'),
        ('-0x1.1f1c34d69dfb9p+4', '0x1.385e6d0572254p+13', '0x1.e93ccc94890e5p-6',
         '0x1.bc6eb27ff2b20p-4', '0x1.47ae147ae1400p-8', '0x1.e93ccc94890e5p-6',
         '0x1.cdb940b87c53bp-7'),
    ]

    @pytest.mark.parametrize("case,expected", CASES)
    def test_fit_is_pinned(self, case, expected):
        assert hexes(fit_hom_dip(golden_scan(*case))) == expected

    def test_batch_is_pinned(self):
        scans = [golden_scan(eta, 121, 0.6, 1e4, 0.0, 20 + i)
                 for i, eta in enumerate(self.BATCH_ETAS)]
        assert [hexes(fit) for fit in fit_hom_dips(scans)] == self.BATCH


class TestSeedTableCache:
    """`_seed_tables` keeps what the seed grid needs of each delay grid."""

    A = np.linspace(-0.6, 0.6, 121)
    B = np.linspace(-0.5, 0.5, 51)
    C = A.copy()
    C[30] = np.nextafter(A[30], 1.0)  # A but for the last bit of one delay

    def test_alternating_grids_fit_as_after_a_clear(self):
        scans = {name: simulate_hom_scan(0.7, x, 1e3, noise_seed=3)
                 for name, x in (("A", self.A), ("B", self.B), ("C", self.C))}
        fresh, seeds = {}, {}
        for name, scan in scans.items():
            _seed_tables.cache_clear()
            fresh[name] = hexes(fit_hom_dip(scan))
            seeds[name] = _grid_seeds(scan.delays, scan.counts[None]).tobytes()
        assert seeds["A"] != seeds["C"]
        _seed_tables.cache_clear()
        for name in "ABACACBCA":
            scan = scans[name]
            assert hexes(fit_hom_dip(scan)) == fresh[name], name
            seed = _grid_seeds(scan.delays, scan.counts[None]).tobytes()
            assert seed == seeds[name], name
        assert _seed_tables.cache_info().currsize == 3

    def test_tables_are_read_only(self):
        tables = _seed_tables(self.A.tobytes())
        assert len(tables) == 6
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0.0

    def test_cache_stays_within_its_bound(self):
        _seed_tables.cache_clear()
        assert _seed_tables.cache_info().maxsize == _SEED_TABLES_KEPT
        for k in range(3 * _SEED_TABLES_KEPT):
            x = np.linspace(-0.6, 0.6, 21 + k)
            fit_hom_dip(simulate_hom_scan(0.5, x, 1e3, noise_seed=k))
            assert _seed_tables.cache_info().currsize <= _SEED_TABLES_KEPT
        assert _seed_tables.cache_info().currsize == _SEED_TABLES_KEPT


class TestLeastSquaresBuffers:
    """`least_squares` trades its two Jacobian buffers when every row keeps
    its step and copies the kept rows otherwise; either way a row's result
    is that of its own single-row run."""

    DELAYS = np.linspace(-0.6, 0.6, 121)

    def test_swap_and_copy_rounds_match_single_rows(self, monkeypatch):
        x = self.DELAYS
        lower, upper = fit_bounds(x)
        scan = simulate_hom_scan(0.9, x, 1e4, noise_seed=1)
        y = scan.counts[None]
        starts = np.concatenate((_grid_seeds(x, y)[0],
                                 np.clip(_initial_guess(scan), lower, upper)[None]))
        buffers, copies = [], []
        jacobian = photon_stats.dip_jacobian
        copyto = np.copyto

        def recording_jacobian(*args, out):
            buffers.append(out.__array_interface__["data"][0])
            return jacobian(*args, out=out)

        def recording_copyto(dst, src, **kwargs):
            copies.append(kwargs["where"].ravel().copy())
            return copyto(dst, src, **kwargs)

        monkeypatch.setattr(photon_stats, "dip_jacobian", recording_jacobian)
        monkeypatch.setattr(np, "copyto", recording_copyto)
        batch = least_squares(x, y.repeat(3, axis=0), starts)
        # a trial lands in the other buffer only after a round that swapped
        trials = buffers[1:]
        assert sum(a != b for a, b in zip(trials, trials[1:])) > 0
        # copyto runs only in rounds where some rows kept their step and some not
        assert copies and all(0 < keep.sum() < keep.size for keep in copies)
        monkeypatch.undo()
        for i in range(3):
            single = least_squares(x, y, starts[i:i + 1])
            assert batch.x[i].tobytes() == single.x[0].tobytes(), i
            assert batch.cost[i].tobytes() == single.cost[0].tobytes(), i
            assert batch.converged[i] == single.converged[0], i


class TestDipExtrema:
    def test_fwhm_factor(self):
        fit = DipFit(a0=0.0, a1=100.0, a2=0.5, a3=0.0, a4=1.0)
        params = fit.a0, fit.a1, fit.a2, fit.a3, fit.a4
        scan = HomScan(delays=np.linspace(-3, 3, 21),
                       counts=dip_model(np.linspace(-3, 3, 21), *params))
        alpha = 2 * math.sqrt(2 * math.log(2))
        assert alpha == pytest.approx(2.35482, abs=1e-5)
        n_max, _ = dip_extrema(fit, scan)
        expected = 0.5 * (dip_model(-alpha / 2, *params)
                          + dip_model(alpha / 2, *params))
        assert n_max == pytest.approx(float(expected), abs=1e-12)

    def test_fit_error_is_visibility_error_of_dip_extrema(self):
        # one owner of N_max and N_min: the fit's error and the CLI sweep's
        # table read the same pair; the noiseless eta = 0.5 scan has N_min 0
        delays = np.linspace(-0.6, 0.6, 121)
        scans = [simulate_hom_scan(eta, delays, baseline, slope=slope, noise_seed=seed)
                 for eta, baseline, slope, seed in (
                     (0.5, 1e3, 0.0, None), (0.1, 1e2, 0.0, 1), (0.3, 1e3, 50.0, 2),
                     (0.7, 1e4, -80.0, 3), (0.9, 1e2, 0.0, 4), (1.0, 1e3, 0.0, 5))]
        fits = fit_hom_dips(scans)
        assert fits[0].visibility_error == 0.0
        for fit, scan in zip(fits, scans):
            assert fit.visibility_error == visibility_error(*dip_extrema(fit, scan))

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

    def test_negative_min_rejected(self):
        with pytest.raises(ValueError, match="N_min must be non-negative"):
            visibility_error(100.0, -1.0)


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

    def test_delays_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            HomScan(delays=np.zeros((2, 2)), counts=np.zeros((2, 2)))

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
