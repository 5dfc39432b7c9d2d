"""Per-stage micro-benchmarks of one desk-plan analysis window.

    PYTHONPATH=src python -m pytest benches -q --benchmark-columns=min,median,iqr,rounds

One benchmark per stage of the statistic path (seed derivation, AWGN and AM
synthesis, the SNR mix, taper + real FFT + mirror, the cyclic product at the
feature bin, the running-sum smoother, the max reduction), then whole noise
and H1 windows as the Monte Carlo harness runs them. Inputs are built once
outside the timed call. The directory is not in the test suite's `testpaths`.
"""

from dataclasses import replace

import numpy as np
import pytest

from cyclosense import harness, scd, siggen

PLAN = harness.desk_plan(3)
CFG = PLAN.scd_cfg
K = CFG.window_length_k
FS = PLAN.signal_spec.sample_rate_hz
A0 = PLAN.alpha0_bin
SEED = harness.derived_seed(PLAN.master_seed, harness.STREAM_NOISE_FIT, 0)
WINDOW_SPEC = replace(PLAN.signal_spec, duration_samples=K)
HALF = A0 // 2
LO, HI = abs(HALF), K - 1 - abs(HALF)
SCALE = scd._periodogram_scale(CFG.taper, K)


def cyclic_product_of(spectrum):
    """Scaled cyclic periodogram at the feature bin, before smoothing."""
    return spectrum[LO + HALF:HI + HALF + 1] * np.conj(spectrum[LO - HALF:HI - HALF + 1]) / SCALE


@pytest.fixture(scope="module")
def samples():
    return siggen.generate_awgn(K, siggen.NoiseSpec(1.0, SEED), FS).samples


@pytest.fixture(scope="module")
def spectrum(samples):
    return scd._spectrum(samples, CFG)


@pytest.fixture(scope="module")
def cyclic_product(spectrum):
    return cyclic_product_of(spectrum)


def test_derived_seed(benchmark):
    benchmark(harness.derived_seed, PLAN.master_seed, harness.STREAM_H1_TRIAL, 0, 0, 7, 1)


def test_awgn(benchmark):
    benchmark(siggen.generate_awgn, K, siggen.NoiseSpec(1.0, SEED), FS)


def test_am(benchmark):
    benchmark(siggen.generate_am, WINDOW_SPEC, SEED)


def test_mix(benchmark, samples):
    signal = siggen.generate_am(WINDOW_SPEC, SEED)
    noise = siggen.SampleBuffer(samples, FS)
    benchmark(siggen.mix_at_snr, signal, noise, -10.0)


def test_taper_real_fft_mirror(benchmark, samples):
    benchmark(scd._spectrum, samples, CFG)


def test_cyclic_product(benchmark, spectrum):
    benchmark(cyclic_product_of, spectrum)


def test_smoother(benchmark, cyclic_product):
    benchmark(scd._smoothed, cyclic_product, CFG.smoothing_length)


def test_max_reduction(benchmark, cyclic_product):
    smoothed = scd._smoothed(cyclic_product, CFG.smoothing_length)
    benchmark(lambda: np.max(np.abs(smoothed)))


def test_kernel(benchmark, samples):
    benchmark(scd.alpha_maxima, samples, CFG, (A0,))


def test_noise_window(benchmark):
    benchmark(harness._statistic_task, (PLAN, "noise", 0, 0, 7))


def test_h1_window(benchmark):
    benchmark(harness._statistic_task, (PLAN, "h1", 1, 0, 7))
