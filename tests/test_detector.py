"""Feature detector: statistic wiring, threshold resolution, tail probability."""

import numpy as np
import pytest

import cyclosense as cs
from cyclosense.detector import statistic_at_alpha0

FS = 3.0e6
K = 1024
A0 = cs.snap_alpha_to_even_bin(2.0e6, FS, K)


def scd_cfg():
    return cs.ScdConfig(K, 301, (A0,))


def noise_window(seed):
    return cs.SampleBuffer(np.random.default_rng(seed).standard_normal(K), FS)


def gumbel_model(mu=0.09, sigma=0.04):
    return cs.GevParams(0.0, mu, sigma)


class TestDetectorConfig:
    def test_requires_exactly_one_threshold_source(self):
        with pytest.raises(ValueError):
            cs.DetectorConfig(scd_cfg(), A0)
        with pytest.raises(ValueError):
            cs.DetectorConfig(scd_cfg(), A0, threshold=0.1, preset_pf=0.05,
                              noise_model=gumbel_model())

    def test_preset_pf_needs_noise_model(self):
        with pytest.raises(ValueError):
            cs.DetectorConfig(scd_cfg(), A0, preset_pf=0.05)

    def test_alpha_must_be_even_and_in_range(self):
        with pytest.raises(ValueError):
            cs.DetectorConfig(scd_cfg(), A0 + 1, threshold=0.1)
        with pytest.raises(ValueError):
            cs.DetectorConfig(scd_cfg(), K + 2, threshold=0.1)

    def test_threshold_resolution_from_pf(self):
        model = gumbel_model()
        cfg = cs.DetectorConfig(scd_cfg(), A0, preset_pf=0.05, noise_model=model)
        assert cfg.resolve_threshold() == cs.threshold_for_pf(0.05, model)


class TestDetect:
    def test_zero_window_is_unoccupied(self):
        window = cs.SampleBuffer(np.zeros(K), FS)
        decision = cs.detect(window, cs.DetectorConfig(scd_cfg(), A0, threshold=1e-6))
        assert decision.statistic_T == 0.0
        assert not decision.occupied

    def test_matches_manual_scd_composition(self):
        window = noise_window(3)
        decision = cs.detect(window, cs.DetectorConfig(scd_cfg(), A0, threshold=0.1),
                             window_index=9)
        manual = cs.alpha_profile(
            cs.estimate_scd(window, cs.ScdConfig(K, 301, (A0,)))
        ).maxima[0]
        assert decision.statistic_T == manual
        assert decision.window_index == 9
        assert decision.alpha0_bin == A0

    def test_statistic_is_the_kernel_value(self):
        window = noise_window(7)
        statistic = statistic_at_alpha0(window, scd_cfg(), A0)
        assert type(statistic) is float
        assert statistic == cs.alpha_maxima(window.samples, scd_cfg(), (A0,))[0]
        assert statistic == cs.detect(window, cs.DetectorConfig(scd_cfg(), A0,
                                                                threshold=0.1)).statistic_T

    def test_statistic_is_pure(self):
        window = noise_window(4)
        cfg = cs.DetectorConfig(scd_cfg(), A0, threshold=0.5)
        assert cs.detect(window, cfg).statistic_T == cs.detect(window, cfg).statistic_T

    def test_threshold_monotonicity(self):
        window = noise_window(5)
        t = cs.detect(window, cs.DetectorConfig(scd_cfg(), A0, threshold=0.0)).statistic_T
        low = cs.detect(window, cs.DetectorConfig(scd_cfg(), A0, threshold=t * 0.9))
        high = cs.detect(window, cs.DetectorConfig(scd_cfg(), A0, threshold=t * 1.1))
        assert low.occupied and not high.occupied

    def test_tie_decides_unoccupied(self):
        window = noise_window(6)
        t = cs.detect(window, cs.DetectorConfig(scd_cfg(), A0, threshold=0.0)).statistic_T
        decision = cs.detect(window, cs.DetectorConfig(scd_cfg(), A0, threshold=t))
        assert not decision.occupied

    def test_degenerate_minus_inf_threshold_always_occupied(self):
        # Pd = Pf = 1 when the threshold is forced to -inf
        hits = [
            cs.detect(noise_window(s), cs.DetectorConfig(scd_cfg(), A0, threshold=-np.inf)).occupied
            for s in range(20)
        ]
        assert all(hits)

    def test_strong_am_detected_at_one_percent_pf(self, mini_plan):
        # SNR 0 dB against a noise model fitted on collected samples
        samples = cs.collect_noise_profile(mini_plan)
        fit = cs.fit_gev_mle(samples)
        cfg = cs.DetectorConfig(mini_plan.scd_cfg, mini_plan.alpha0_bin,
                                preset_pf=0.01, noise_model=fit.params)
        spec = cs.SignalSpec(1.0e6, 1.0e4, FS, K)
        hits = 0
        trials = 200
        for i in range(trials):
            signal = cs.generate_am(spec, seed=1000 + i)
            mixed = cs.mix_at_snr(signal, noise_window(2000 + i), 0.0)
            hits += cs.detect(mixed, cfg).occupied
        assert hits >= 0.99 * trials

    def test_noise_only_false_alarm_rate_tracks_preset(self, mini_plan):
        samples = cs.collect_noise_profile(mini_plan)
        fit = cs.fit_gev_mle(samples)
        cfg = cs.DetectorConfig(mini_plan.scd_cfg, mini_plan.alpha0_bin,
                                preset_pf=0.2, noise_model=fit.params)
        trials = 300
        hits = sum(cs.detect(noise_window(5000 + i), cfg).occupied for i in range(trials))
        rate = hits / trials
        assert abs(rate - 0.2) <= 3.0 * np.sqrt(0.2 * 0.8 / trials)


class TestDecisionInvariant:
    def test_occupied_flag_must_match_comparison(self):
        with pytest.raises(ValueError):
            cs.Decision(statistic_T=1.0, threshold=2.0, occupied=True,
                        window_index=0, alpha0_bin=A0)


class TestTheoreticalPf:
    def test_at_location_parameter(self):
        assert cs.theoretical_pf(0.09, gumbel_model(mu=0.09)) == pytest.approx(
            1.0 - np.exp(-1.0), rel=1e-12)

    def test_round_trip_with_threshold(self):
        model = cs.GevParams(0.12, 0.05, 0.02)
        lam = cs.threshold_for_pf(0.05, model)
        assert cs.theoretical_pf(lam, model) == pytest.approx(0.05, abs=1e-10)

    def test_infinite_threshold_limit(self):
        assert cs.theoretical_pf(np.inf, gumbel_model()) == 0.0

    def test_statistic_threshold_inverse_pair(self):
        model = cs.GevParams(-0.2, 1.0, 0.3)
        for pf in (0.01, 0.1, 0.5, 0.9):
            lam = cs.threshold_for_pf(pf, model)
            assert cs.theoretical_pf(lam, model) == pytest.approx(pf, abs=1e-10)
