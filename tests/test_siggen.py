"""Signal generation: spectral placement, power contracts, determinism."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import cyclosense as cs
from cyclosense import NoiseSpec, SampleBuffer, SignalSpec, generate_am, generate_awgn, mix_at_snr
from cyclosense import siggen

FC, BW, FS = 1.0e6, 1.0e4, 3.0e6


def table_spec(n=4096, index=0.5):
    return SignalSpec(FC, BW, FS, n, "am", index)


class TestSignalSpec:
    def test_nyquist_violation_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            SignalSpec(1.6e6, BW, FS, 4096)

    def test_bandwidth_must_stay_below_carrier(self):
        with pytest.raises(ValueError):
            SignalSpec(FC, 1.2e6, FS, 4096)

    @pytest.mark.parametrize("index", [-0.1, 1.5])
    def test_modulation_index_bounds(self, index):
        with pytest.raises(ValueError):
            SignalSpec(FC, BW, FS, 4096, "am", index)

    def test_unknown_modulation(self):
        with pytest.raises(ValueError):
            SignalSpec(FC, BW, FS, 4096, "fm")

    @pytest.mark.parametrize("value", [np.inf, np.nan, "3e6"])
    @pytest.mark.parametrize("field", ["sample_rate_hz", "carrier_freq_hz",
                                       "baseband_bandwidth_hz"])
    def test_rejects_non_finite_rate_or_frequency(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            replace(table_spec(), **{field: value})


class TestSampleBuffer:
    def test_immutable_after_creation(self):
        buf = SampleBuffer(np.arange(4.0), FS)
        with pytest.raises(ValueError):
            buf.samples[0] = 9.0

    def test_power_is_mean_square(self):
        buf = SampleBuffer(np.array([1.0, -1.0, 2.0, 0.0]), FS)
        assert buf.power == pytest.approx(1.5)

    def test_public_constructor_copies_its_input(self):
        arr = np.arange(4.0)
        buf = SampleBuffer(arr, FS)
        arr[0] = 9.0
        assert buf.samples[0] == 0.0 and not np.shares_memory(buf.samples, arr)

    @pytest.mark.parametrize("samples, rate", [(np.array([1.0, np.inf]), FS),
                                               (np.array([np.nan, 1.0]), FS),
                                               (np.zeros((2, 2)), FS),
                                               (np.array([]), FS),
                                               (np.arange(1.0, 5.0) * (1 + 5j), FS),
                                               (np.ones(4), 0.0),
                                               (np.ones(4), np.inf),
                                               (np.ones(4), np.nan),
                                               pytest.param(np.ones(4), 10**400,
                                                            id="rate-beyond-float"),
                                               (np.ones(4), "1")])
    def test_rejects_bad_samples_or_rate(self, samples, rate):
        with pytest.raises(ValueError):
            SampleBuffer(samples, rate)


class TestGenerateAm:
    def test_dft_peak_at_carrier(self):
        # carrier at 1 MHz with fs=3 MHz puts the peak near bin n/3
        buf = generate_am(table_spec(), seed=7)
        spectrum = np.abs(np.fft.rfft(buf.samples))
        peak_hz = np.argmax(spectrum) * FS / len(buf)
        assert abs(peak_hz - FC) <= BW

    def test_zero_index_gives_exact_cosine(self):
        n = 4096
        buf = generate_am(table_spec(index=0.0), seed=3)
        expected = np.cos(2.0 * np.pi * FC / FS * np.arange(n))
        assert np.array_equal(buf.samples, expected)

    def test_pure_carrier_power_is_half(self):
        buf = generate_am(table_spec(index=0.0), seed=0)
        assert buf.power == pytest.approx(0.5, rel=0.01)

    def test_carrier_cache_is_read_only_fresh_cosine(self):
        carrier, _ = siggen._am_tables(table_spec(), 4096)
        assert not carrier.flags.writeable
        assert np.array_equal(carrier, np.cos(2.0 * np.pi * FC / FS * np.arange(4096)))
        assert siggen._am_tables(table_spec(), 4096)[0] is carrier
        assert not np.shares_memory(generate_am(table_spec(index=0.0), 3).samples, carrier)

    @pytest.mark.parametrize("spec", [table_spec(), SignalSpec(100.0, 10.0, 4096.0, 4096),
                                      SignalSpec(100.0, 10.0, 4095.0, 4095),
                                      SignalSpec(20.0, 9.5, 64.0, 64)])
    def test_stop_bin_is_first_bin_above_bandwidth(self, spec):
        freqs = np.fft.rfftfreq(spec.duration_samples, d=1.0 / spec.sample_rate_hz)
        first_above = np.flatnonzero(freqs > spec.baseband_bandwidth_hz)[0]
        assert siggen._am_tables(spec, spec.duration_samples)[1] == first_above

    @pytest.mark.parametrize("n", [64, 4095, 4096])
    def test_tables_take_the_row_length_not_the_duration(self, n):
        spec = table_spec(n=3 * 4096)
        carrier, stop_bin = siggen._am_tables(spec, n)
        assert np.array_equal(carrier, np.cos(2.0 * np.pi * FC / FS * np.arange(n)))
        assert stop_bin == siggen._am_tables(replace(spec, duration_samples=n), n)[1]

    def test_rows_shorter_than_the_spec_equal_a_spec_of_their_length_bit_for_bit(self):
        # the harness passes its plan's full-length spec with K-sample rows
        plan = cs.desk_plan()
        spec, k, seeds = plan.signal_spec, plan.scd_cfg.window_length_k, (3, 7, 11)
        assert spec.duration_samples > k
        rows = np.array([np.random.default_rng(seed).standard_normal(k) for seed in seeds])
        siggen._am_rows(spec, rows)
        for row, seed in zip(rows, seeds):
            alone = generate_am(replace(spec, duration_samples=k), seed).samples
            assert row.tobytes() == alone.tobytes()

    def test_seed_determinism(self):
        a = generate_am(table_spec(), seed=11)
        b = generate_am(table_spec(), seed=11)
        c = generate_am(table_spec(), seed=12)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", float("inf"), float("nan")])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
            generate_am(table_spec(), seed)
        with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
            NoiseSpec(1.0, seed)

    def test_peak_normalized_message_respects_index(self):
        # envelope deviation is capped by the modulation index, so no overmodulation
        buf = generate_am(table_spec(index=1.0), seed=5)
        assert np.max(np.abs(buf.samples)) <= 2.0 + 1e-12
        buf_half = generate_am(table_spec(index=0.5), seed=5)
        assert np.max(np.abs(buf_half.samples)) <= 1.5 + 1e-12


class TestGenerateAwgn:
    def test_large_sample_moments(self):
        buf = generate_awgn(10**6, NoiseSpec(1.0, 1))
        assert abs(np.mean(buf.samples)) <= 0.004      # 3 sigma CLT bound, n=1e6
        assert np.var(buf.samples) == pytest.approx(1.0, rel=0.01)

    def test_single_sample(self):
        buf = generate_awgn(1, NoiseSpec(1.0, 2))
        assert len(buf) == 1 and np.isfinite(buf.samples[0])

    def test_determinism(self):
        a = generate_awgn(4096, NoiseSpec(2.0, 5))
        b = generate_awgn(4096, NoiseSpec(2.0, 5))
        assert np.array_equal(a.samples, b.samples)

    def test_variance_scaling(self):
        buf = generate_awgn(10**5, NoiseSpec(4.0, 9))
        assert np.var(buf.samples) == pytest.approx(4.0, rel=0.05)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            generate_awgn(0, NoiseSpec(1.0, 0))
        with pytest.raises(ValueError):
            NoiseSpec(0.0, 0)


class TestMixAtSnr:
    def test_identity_gain_at_matched_power(self, rng):
        s = SampleBuffer(rng.standard_normal(4096), FS)
        n = SampleBuffer(rng.standard_normal(4096), FS)
        snr_match = 10.0 * np.log10(s.power / n.power)
        out = mix_at_snr(s, n, snr_match)
        np.testing.assert_allclose(out.samples, s.samples + n.samples, rtol=1e-12, atol=1e-12)

    def test_component_power_at_minus_10db(self, rng):
        s = generate_am(table_spec(), seed=1)
        n = SampleBuffer(rng.standard_normal(4096), FS)
        out = mix_at_snr(s, n, -10.0)
        scaled = out.samples - n.samples
        ratio = np.mean(scaled**2) / n.power
        assert ratio == pytest.approx(0.1, rel=1e-3)

    def test_power_contract_within_005_db(self, rng):
        s = generate_am(table_spec(), seed=2)
        n = SampleBuffer(rng.standard_normal(4096), FS)
        out = mix_at_snr(s, n, -7.3)
        scaled = out.samples - n.samples
        measured_db = 10.0 * np.log10(np.mean(scaled**2) / n.power)
        assert abs(measured_db - (-7.3)) <= 0.05

    def test_high_snr_is_nearly_noiseless(self, rng):
        s = generate_am(table_spec(), seed=4)
        n = SampleBuffer(rng.standard_normal(4096), FS)
        out = mix_at_snr(s, n, 100.0)
        residual = out.samples - out.samples[0] / s.samples[0] * s.samples
        assert np.mean(residual**2) / out.power < 1e-9

    @pytest.mark.parametrize("snr_db", [4000.0, np.float64(4000.0)], ids=["float", "float64"])
    def test_overflowing_power_ratio_is_value_error(self, rng, snr_db):
        s = generate_am(table_spec(), seed=4)
        n = SampleBuffer(rng.standard_normal(4096), FS)
        with pytest.raises(ValueError, match="overflows"):
            mix_at_snr(s, n, snr_db)

    def test_rejects_degenerate_inputs(self, rng):
        s = SampleBuffer(rng.standard_normal(16), FS)
        with pytest.raises(ValueError):
            mix_at_snr(s, SampleBuffer(rng.standard_normal(8), FS), 0.0)
        with pytest.raises(ValueError):
            mix_at_snr(s, SampleBuffer(rng.standard_normal(16), FS), np.inf)
        # a gain that overflows to inf is caught by the mixed buffer's check
        with pytest.raises(ValueError, match="samples must all be finite"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            mix_at_snr(SampleBuffer(np.full(16, 1e-160), FS),
                       SampleBuffer(rng.standard_normal(16), FS), 3000.0)


# Python reads True and False as 1 and 0, which each of these would take
@pytest.mark.parametrize("make", [
    lambda flag: cs.ScdConfig(4096, flag, (2730,)),
    lambda flag: replace(cs.desk_plan(), master_seed=flag),
    lambda flag: NoiseSpec(1.0, flag),
    lambda flag: cs.sample_gev(cs.GevParams(0.0, 0.0, 1.0), 1, flag),
    lambda flag: cs.sample_gev(cs.GevParams(0.0, 0.0, 1.0), flag, 1),
    lambda flag: SignalSpec(FC, BW, FS, flag),
    lambda flag: generate_am(SignalSpec(FC, BW, FS, 64), flag),
], ids=["scd-smoothing-length", "plan-master-seed", "noise-seed", "gev-seed", "gev-count",
        "signal-duration", "am-seed"])
@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=repr)
def test_true_and_false_are_not_integers(make, flag):
    with pytest.raises(ValueError, match=rf"must be an integer of at least \d+, got {flag!r}"):
        make(flag)


# each whole-number field with its lower bound; alpha offsets take any whole number
INTEGERS = {
    "length": (lambda v: generate_awgn(v, NoiseSpec(1.0, 0)), 1),
    "window_length_k": (lambda v: cs.ScdConfig(v, 1, (0,)), 2),
    "smoothing_length": (lambda v: cs.ScdConfig(64, v, (0,)), 1),
    "duration_samples": (lambda v: SignalSpec(FC, BW, FS, v), 1),
    "n": (lambda v: cs.sample_gev(cs.GevParams(0.0, 0.0, 1.0), v, 1), 1),
    "alpha bin offset": (lambda v: cs.ScdConfig(64, 1, (v,)), None),
}


@pytest.mark.parametrize("name", INTEGERS)
@pytest.mark.parametrize("value", ["8", 2.5, np.inf], ids=repr)
def test_integers_are_checked_by_one_rule(name, value):
    make, low = INTEGERS[name]
    bound = "" if low is None else f" of at least {low}"
    with pytest.raises(ValueError, match=f"^{name} must be an integer{bound}, got {value!r}$"):
        make(value)


POSITIVES = {
    "variance": lambda v: NoiseSpec(v, 1),
    "sample_rate_hz": lambda v: SampleBuffer(np.ones(4), v),
    "sigma": lambda v: cs.GevParams(0.0, 0.0, v),
}


@pytest.mark.parametrize("name", POSITIVES)
@pytest.mark.parametrize("value", [0.0, -1, np.inf, np.nan, 10**400, "1", True],
                         ids=["zero", "negative", "inf", "nan", "beyond-float", "string", "true"])
def test_positive_reals_are_checked_by_one_rule(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
        POSITIVES[name](value)


ONES = SampleBuffer(np.ones(8), FS)
# each real field: its maker, the name and rule its ValueError gives, a value
# inside its interval and one outside (None where any finite value is inside)
REALS = {
    "signal-sample_rate_hz": (lambda v: SignalSpec(1000.0, 10.0, v, 64), "sample_rate_hz",
                              "positive and finite", 3000.0, 0.0),
    "carrier_freq_hz": (lambda v: SignalSpec(v, 10.0, 3000.0, 64), "carrier_freq_hz",
                        "positive and finite", 1000.0, -1.0),
    "baseband_bandwidth_hz": (lambda v: SignalSpec(1000.0, v, 3000.0, 64), "baseband_bandwidth_hz",
                              "positive and finite", 10.0, 0.0),
    "modulation_index": (lambda v: SignalSpec(1000.0, 10.0, 3000.0, 64, "am", v),
                         "modulation_index", "in [0, 1]", 0.5, 1.5),
    "buffer-sample_rate_hz": (lambda v: SampleBuffer(np.ones(4), v), "sample_rate_hz",
                              "positive and finite", 1.0, -1.0),
    "variance": (lambda v: NoiseSpec(v, 1), "variance", "positive and finite", 1.0, 0.0),
    "kappa": (lambda v: cs.GevParams(v, 0.0, 1.0), "kappa", "finite", 0.1, None),
    "mu": (lambda v: cs.GevParams(0.0, v, 1.0), "mu", "finite", 0.1, None),
    "sigma": (lambda v: cs.GevParams(0.0, 0.0, v), "sigma", "positive and finite", 0.5, -0.5),
    "threshold-pf": (lambda v: cs.threshold_for_pf(v, cs.GevParams(0.0, 0.0, 1.0)), "pf",
                     "in (0, 1)", 0.1, 1.0),
    "mix-snr_db": (lambda v: mix_at_snr(ONES, ONES, v), "snr_db", "finite", -10.0, None),
    "pf_grid-entry": (lambda v: replace(cs.desk_plan(), pf_grid=(v,)), "pf_grid entry",
                      "in (0, 1)", 0.1, 0.0),
    "snr_db_list-entry": (lambda v: replace(cs.desk_plan(), snr_db_list=(v,)),
                          "snr_db_list entry", "finite", -10.0, None),
    "roc-pf": (lambda v: cs.RocCurve(((v, 0.5),), -10.0), "pf", "in [0, 1]", 0.1, -0.1),
    "roc-pd": (lambda v: cs.RocCurve(((0.1, v),), -10.0), "pd", "in [0, 1]", 0.5, 1.5),
    "roc-snr_db": (lambda v: cs.RocCurve(((0.1, 0.5),), v), "snr_db", "finite", -10.0, None),
    "snap-alpha_hz": (lambda v: cs.snap_alpha_to_even_bin(v, 3000.0, 4096), "alpha_hz", "finite",
                      2000.0, None),
    "snap-sample_rate_hz": (lambda v: cs.snap_alpha_to_even_bin(2000.0, v, 4096),
                            "sample_rate_hz", "positive and finite", 3000.0, 0.0),
}
BAD_REALS = {"string": "1", "true": True, "none": None, "complex": 1j, "nan": np.nan,
             "inf": np.inf, "-inf": -np.inf, "beyond-float": 10**400, "below-float": -10**400}


@pytest.mark.parametrize("field, value", [
    *(pytest.param(field, value, id=f"{field}-{kind}")
      for field in REALS for kind, value in BAD_REALS.items()),
    *(pytest.param(field, outside, id=f"{field}-outside")
      for field, (*_, outside) in REALS.items() if outside is not None)])
def test_reals_are_checked_by_one_rule(field, value):
    make, name, rule, _, _ = REALS[field]
    message = re.escape(f"{name} must be {rule}, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(value)


@pytest.mark.parametrize("field", REALS)
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_reals_take_every_numpy_float_without_a_warning(field, dtype):
    make, _, _, inside, _ = REALS[field]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make(dtype(inside))
