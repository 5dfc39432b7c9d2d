"""Monte Carlo harness: plan validation, determinism, curve structure, and
statistical sanity of the ROC protocol at reduced scale."""

from dataclasses import replace

import numpy as np
import pytest

import cyclosense as cs
from cyclosense.harness import STREAM_NOISE_FIT, derived_seed, _statistic_task, worker_pool


class TestPlanValidation:
    def test_desk_plan_is_valid(self):
        plan = cs.desk_plan()
        assert plan.alpha0_bin == 2730
        assert plan.scd_cfg.smoothing_length == 1301

    def test_full_plan_scales_noise_windows(self):
        assert cs.full_plan().noise_windows_l == 10000

    def test_pf_grid_must_increase(self, mini_plan):
        with pytest.raises(ValueError):
            replace(mini_plan, pf_grid=(0.1, 0.05))
        with pytest.raises(ValueError):
            replace(mini_plan, pf_grid=(0.0, 0.5))

    def test_minimum_trial_counts(self, mini_plan):
        with pytest.raises(ValueError):
            replace(mini_plan, noise_windows_l=50)
        with pytest.raises(ValueError):
            replace(mini_plan, signal_windows_m=99)

    def test_signal_must_cover_two_windows(self, mini_plan):
        short = cs.SignalSpec(1.0e6, 1.0e4, 3.0e6, 1024)
        with pytest.raises(ValueError, match="two analysis windows"):
            replace(mini_plan, signal_spec=short)

    def test_master_seed_nonnegative(self, mini_plan):
        with pytest.raises(ValueError):
            replace(mini_plan, master_seed=-1)


class TestSeedFanOut:
    def test_derived_seeds_are_stable_and_distinct(self):
        a = derived_seed(42, 0, 7)
        assert a == derived_seed(42, 0, 7)
        assert a != derived_seed(42, 0, 8)
        assert a != derived_seed(42, 1, 7)
        assert a != derived_seed(43, 0, 7)


class TestCollect:
    def test_values_positive_finite(self, mini_plan):
        samples = cs.collect_noise_profile(mini_plan)
        assert samples.shape == (mini_plan.noise_windows_l,)
        assert np.all(np.isfinite(samples)) and np.all(samples > 0)

    def test_determinism(self, mini_plan):
        assert np.array_equal(cs.collect_noise_profile(mini_plan),
                              cs.collect_noise_profile(mini_plan))

    def test_first_value_matches_direct_single_window_computation(self, mini_plan):
        samples = cs.collect_noise_profile(mini_plan)
        seed = derived_seed(mini_plan.master_seed, STREAM_NOISE_FIT, 0)
        window = cs.generate_awgn(mini_plan.scd_cfg.window_length_k,
                                  cs.NoiseSpec(1.0, seed),
                                  mini_plan.signal_spec.sample_rate_hz)
        column = replace(mini_plan.scd_cfg, alpha_grid=(mini_plan.alpha0_bin,))
        direct = cs.alpha_profile(cs.estimate_scd(window, column)).maxima[0]
        assert samples[0] == direct

    def test_parallel_equals_serial(self, mini_plan):
        assert np.array_equal(cs.collect_noise_profile(mini_plan, jobs=1),
                              cs.collect_noise_profile(mini_plan, jobs=2))


class TestFitAndHistogram:
    def test_counts_and_ks(self, mini_plan):
        samples = cs.collect_noise_profile(mini_plan)
        report = cs.fit_and_histogram(samples)
        assert report.bin_counts.sum() == samples.size
        # independent KS computation
        xs = np.sort(samples)
        n = xs.size
        model = cs.cdf(xs, report.fitted)
        expected = max(np.max(np.arange(1, n + 1) / n - model),
                       np.max(model - np.arange(n) / n))
        assert report.ks_statistic == pytest.approx(expected, abs=1e-15)

    def test_synthetic_gev_recovery(self):
        truth = cs.GevParams(0.1, 3.0, 0.5)
        samples = cs.sample_gev(truth, 10000, seed=77)
        report = cs.fit_and_histogram(samples, bins=40)
        assert report.bin_edges.size == 41
        assert abs(report.fitted.kappa - truth.kappa) <= 0.05
        assert abs(report.fitted.mu - truth.mu) <= 0.05
        assert abs(report.fitted.sigma - truth.sigma) <= 0.05

    def test_degenerate_samples_surface_fit_error(self):
        with pytest.raises(cs.DegenerateDataError):
            cs.fit_and_histogram(np.full(150, 2.0))

    def test_requires_hundred_samples(self):
        with pytest.raises(ValueError):
            cs.fit_and_histogram(np.arange(50.0))

    def test_sturges_default_bins(self, mini_plan):
        samples = cs.collect_noise_profile(mini_plan)
        report = cs.fit_and_histogram(samples)
        assert report.bin_counts.size == int(np.ceil(np.log2(samples.size))) + 1


@pytest.fixture(scope="module")
def curves(mini_plan):
    return cs.run_roc(mini_plan)


class TestRunRoc:
    def test_one_pair_per_snr(self, curves, mini_plan):
        assert len(curves) == len(mini_plan.snr_db_list)
        for theoretical, empirical in curves:
            assert theoretical.kind == "theoretical"
            assert empirical.kind == "empirical"
            assert len(theoretical.points) == len(mini_plan.pf_grid)
            assert len(empirical.points) == len(mini_plan.pf_grid)

    def test_theoretical_pf_coordinates_are_presets(self, curves, mini_plan):
        for theoretical, _ in curves:
            assert tuple(pf for pf, _ in theoretical.points) == mini_plan.pf_grid

    def test_pd_nondecreasing_in_pf(self, curves, mini_plan):
        slack = 2.0 / np.sqrt(mini_plan.signal_windows_m)
        for theoretical, empirical in curves:
            for curve in (theoretical, empirical):
                pds = [pd for _, pd in curve.points]
                assert all(b >= a - slack for a, b in zip(pds, pds[1:]))

    def test_pd_dominates_pf(self, curves, mini_plan):
        slack = 2.0 / np.sqrt(mini_plan.signal_windows_m)
        for _, empirical in curves:
            for pf, pd in empirical.points:
                assert pd >= pf - slack

    def test_empirical_pf_calibrated(self, curves, mini_plan):
        for _, empirical in curves:
            for preset, (pf_emp, _) in zip(mini_plan.pf_grid, empirical.points):
                bound = 3.0 * np.sqrt(preset * (1 - preset) / mini_plan.noise_windows_l)
                assert abs(pf_emp - preset) <= bound

    def test_high_snr_saturates(self, curves, mini_plan):
        idx = mini_plan.snr_db_list.index(0.0)
        theoretical, empirical = curves[idx]
        assert all(pd >= 0.99 for _, pd in theoretical.points)
        assert all(pd >= 0.99 for _, pd in empirical.points)

    def test_pure_function_of_plan(self, curves, mini_plan):
        again = cs.run_roc(mini_plan)
        assert again == curves

    def test_worker_count_does_not_change_results(self, curves, mini_plan):
        assert cs.run_roc(mini_plan, jobs=2) == curves

    def test_one_shared_pool_matches_serial(self, curves, mini_plan):
        with worker_pool(2) as pool:
            noise = cs.collect_noise_profile(mini_plan, jobs=2, pool=pool)
            shared = cs.run_roc(mini_plan, jobs=2, pool=pool)
        assert np.array_equal(noise, cs.collect_noise_profile(mini_plan))
        assert shared == curves

    def test_rejects_zero_jobs(self, mini_plan):
        with pytest.raises(ValueError):
            cs.collect_noise_profile(mini_plan, jobs=0)

    def test_injected_fit_matches_internal(self, curves, mini_plan):
        fit = cs.fit_gev_mle(cs.collect_noise_profile(mini_plan))
        assert cs.run_roc(mini_plan, noise_fit=fit) == curves


class TestRocCurveInvariants:
    def test_pf_must_ascend(self):
        with pytest.raises(ValueError):
            cs.RocCurve(((0.2, 0.5), (0.1, 0.6)), "empirical", -10.0)

    def test_probabilities_bounded(self):
        with pytest.raises(ValueError):
            cs.RocCurve(((0.1, 1.2),), "theoretical", -10.0)

    def test_kind_restricted(self):
        with pytest.raises(ValueError):
            cs.RocCurve(((0.1, 0.5),), "simulated", -10.0)


class TestH1Statistics:
    def test_h1_batches_differ_but_are_deterministic(self, mini_plan):
        a0 = [_statistic_task((mini_plan, "h1", 0, 0, i)) for i in range(5)]
        b0 = [_statistic_task((mini_plan, "h1", 0, 1, i)) for i in range(5)]
        assert a0 == [_statistic_task((mini_plan, "h1", 0, 0, i)) for i in range(5)]
        assert a0 != b0
