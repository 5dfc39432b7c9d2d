"""Detection statistic of one window at the feature cyclic frequency."""

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


class TestDetect:
    def test_alpha_must_be_even_and_in_range(self):
        with pytest.raises(ValueError):
            statistic_at_alpha0(noise_window(0), scd_cfg(), A0 + 1)
        with pytest.raises(ValueError):
            statistic_at_alpha0(noise_window(0), scd_cfg(), K + 2)

    def test_zero_window_is_unoccupied(self, counts_above):
        statistic = statistic_at_alpha0(cs.SampleBuffer(np.zeros(K), FS), scd_cfg(), A0)
        assert statistic == 0.0
        assert counts_above([statistic], [1e-6]) == [0]

    def test_matches_manual_scd_composition(self):
        window = noise_window(3)
        scd = cs.estimate_scd(window, cs.ScdConfig(K, 301, (A0,)))
        manual = np.max(np.abs(scd.values[scd.valid_mask[:, 0], 0]))
        assert statistic_at_alpha0(window, scd_cfg(), A0) == manual

    def test_statistic_is_the_kernel_value(self):
        window = noise_window(7)
        statistic = statistic_at_alpha0(window, scd_cfg(), A0)
        assert type(statistic) is float
        assert statistic == cs.alpha_maxima(window.samples, scd_cfg())[0]
        # the config's own grid does not change the tested column
        assert statistic_at_alpha0(window, cs.ScdConfig(K, 301, (0, -A0)), A0) == statistic

    def test_statistic_is_pure(self):
        window = noise_window(4)
        assert statistic_at_alpha0(window, scd_cfg(), A0) == statistic_at_alpha0(
            window, scd_cfg(), A0)

    def test_strong_am_detected_at_one_percent_pf(self, mini_plan):
        # SNR 0 dB against a noise model fitted on collected samples
        samples = cs.collect_noise_profile(mini_plan)
        fit = cs.fit_gev_mle(samples)
        threshold = cs.threshold_for_pf(0.01, fit.params)
        spec = cs.SignalSpec(1.0e6, 1.0e4, FS, K)
        hits = 0
        trials = 200
        for i in range(trials):
            signal = cs.generate_am(spec, seed=1000 + i)
            mixed = cs.mix_at_snr(signal, noise_window(2000 + i), 0.0)
            hits += statistic_at_alpha0(mixed, mini_plan.scd_cfg, mini_plan.alpha0_bin) > threshold
        assert hits >= 0.99 * trials

    def test_noise_only_false_alarm_rate_tracks_preset(self, mini_plan):
        samples = cs.collect_noise_profile(mini_plan)
        fit = cs.fit_gev_mle(samples)
        threshold = cs.threshold_for_pf(0.2, fit.params)
        trials = 300
        hits = sum(
            statistic_at_alpha0(noise_window(5000 + i), mini_plan.scd_cfg,
                                mini_plan.alpha0_bin) > threshold
            for i in range(trials)
        )
        rate = hits / trials
        assert abs(rate - 0.2) <= 3.0 * np.sqrt(0.2 * 0.8 / trials)

