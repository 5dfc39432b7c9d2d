"""Detection statistic, the strict exceedance rule and the Pf of a threshold."""

import numpy as np
import pytest

import cyclosense as cs
from cyclosense import harness
from cyclosense.detector import statistic_at_alpha0
from cyclosense.harness import WindowRecord, exceedances

FS = 3.0e6
K = 1024
A0 = cs.snap_alpha_to_even_bin(2.0e6, FS, K)


def scd_cfg():
    return cs.ScdConfig(K, 301, (A0,))


def noise_window(seed):
    return cs.SampleBuffer(np.random.default_rng(seed).standard_normal(K), FS)


def gumbel_model(mu=0.09, sigma=0.04):
    return cs.GevParams(0.0, mu, sigma)


def pf_of_threshold(threshold, model):
    """False-alarm probability of a threshold under the noise model."""
    return 1.0 - cs.cdf(threshold, model)


@pytest.fixture
def counts_above(monkeypatch):
    """counts_above(statistics, thresholds): exceedances' H0 counts for a
    record whose every batch holds the statistics, with the pf grid standing
    in for the thresholds; the H1 counts of both batches must match them."""
    monkeypatch.setattr(harness, "threshold_for_pf", lambda pf, params: pf)

    def counts(statistics, thresholds):
        batch = np.asarray(statistics, dtype=np.float64)
        record = WindowRecord(batch, batch, np.stack([batch, batch])[None])
        found, h0, h1 = exceedances(record, gumbel_model(), thresholds)
        assert found.tolist() == list(thresholds)
        assert h1.tolist() == [[h0.tolist()] * 2]
        return h0.tolist()

    return counts


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

    def test_threshold_monotonicity(self, counts_above):
        t = statistic_at_alpha0(noise_window(5), scd_cfg(), A0)
        assert counts_above([t], [t * 0.9, t * 1.1]) == [1, 0]

    def test_tie_decides_unoccupied(self, counts_above):
        t = statistic_at_alpha0(noise_window(6), scd_cfg(), A0)
        assert counts_above([t], [t]) == [0]

    def test_degenerate_minus_inf_threshold_always_occupied(self, counts_above):
        # Pd = Pf = 1 when the threshold is forced to -inf
        statistics = [statistic_at_alpha0(noise_window(s), scd_cfg(), A0) for s in range(20)]
        assert counts_above(statistics, [-np.inf]) == [20]

    def test_counts_per_snr_batch_and_pf(self):
        rng = np.random.default_rng(8)
        record = WindowRecord(rng.gumbel(0.09, 0.04, 50), rng.gumbel(0.09, 0.04, 60),
                              rng.gumbel(0.12, 0.04, (3, 2, 40)))
        model, pfs = gumbel_model(), (0.01, 0.1, 0.3, 0.5)
        thresholds, h0, h1 = exceedances(record, model, pfs)
        assert thresholds.tolist() == [cs.threshold_for_pf(pf, model) for pf in pfs]
        assert h0.shape == (4,) and h1.shape == (3, 2, 4)  # (snr, batch, pf)
        assert h0.tolist() == [sum(t > lam for t in record.h0) for lam in thresholds]
        for snr, batch in np.ndindex(3, 2):
            assert h1[snr, batch].tolist() == [sum(t > lam for t in record.h1[snr, batch])
                                               for lam in thresholds]

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


class TestTheoreticalPf:
    def test_at_location_parameter(self):
        assert pf_of_threshold(0.09, gumbel_model(mu=0.09)) == pytest.approx(
            1.0 - np.exp(-1.0), rel=1e-12)

    def test_round_trip_with_threshold(self):
        model = cs.GevParams(0.12, 0.05, 0.02)
        lam = cs.threshold_for_pf(0.05, model)
        assert pf_of_threshold(lam, model) == pytest.approx(0.05, abs=1e-10)

    def test_infinite_threshold_limit(self):
        assert pf_of_threshold(np.inf, gumbel_model()) == 0.0

    def test_statistic_threshold_inverse_pair(self):
        model = cs.GevParams(-0.2, 1.0, 0.3)
        for pf in (0.01, 0.1, 0.5, 0.9):
            lam = cs.threshold_for_pf(pf, model)
            assert pf_of_threshold(lam, model) == pytest.approx(pf, abs=1e-10)
