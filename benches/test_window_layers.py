"""Per-stage micro-benchmarks of one desk-plan analysis window.

    PYTHONPATH=src python -m pytest benches -q --benchmark-columns=min,median,iqr,rounds

One benchmark per stage of the statistic path (seed derivation, AWGN and AM
synthesis, the SNR mix, taper + real FFT, the cyclic product at the feature
bin, the running-sum smoother, the max reduction), then whole noise and H1
windows as the Monte Carlo harness runs them. Inputs are built once outside
the timed call. The directory is not in the test suite's `testpaths`.

The whole-window benchmarks time one block of harness.BLOCK_WINDOWS windows,
the harness's unit of work; divide by BLOCK_WINDOWS for one window, which
`--benchmark-json` also records as `per_window_us`, beside the block's
minor page faults per window (`minor_faults_per_window`), which rise when
the row buffers stop being allocated once per block. The seed stage has
three figures: the scalar `derived_seed` reference, one H1 block's
vectorized fan-out (its seeds and PCG64 state words, recorded per window the
same way), and the Generator each drawn seed is built into. The FFT has two:
one window alone, and one call over the harness.ROWS windows of a sub-block
(`per_window_us` again).
"""

import resource
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
CELLS = K - abs(A0)
SCALE = scd._periodogram_scale(CFG.taper, K)


def cyclic_product_of(half, pair):
    """Scaled cyclic periodogram at the feature bin of one window, before
    smoothing, gathered from its rfft half into pair as the kernel does."""
    shift, lo = A0 // 2, abs(A0) // 2
    upper = scd._centered_bins(half, lo + shift - K // 2, pair[0])
    lower = scd._centered_bins(half, lo - shift - K // 2, pair[1])
    np.conjugate(lower, out=lower)
    np.multiply(upper, lower, out=upper)
    upper /= SCALE
    return upper[0]


@pytest.fixture(scope="module")
def samples():
    return siggen.generate_awgn(K, siggen.NoiseSpec(1.0, SEED), FS).samples


@pytest.fixture(scope="module")
def half(samples):
    return scd._half_spectra(samples[None], CFG)


@pytest.fixture(scope="module")
def cyclic_product(half):
    return cyclic_product_of(half, np.empty((2, 1, CELLS), complex)).copy()


def test_derived_seed(benchmark):
    benchmark(harness.derived_seed, PLAN.master_seed, harness.STREAM_H1_TRIAL, 0, 0, 7, 1)


def h1_block_states():
    """Signal and noise seeds of one H1 block, and their PCG64 state words."""
    indices = np.arange(harness.BLOCK_WINDOWS, dtype=np.uint64)
    return harness._pcg64_states(harness._derived_seeds(
        PLAN.master_seed, harness.STREAM_H1_TRIAL, 0, 0, indices[:, None], np.arange(2)))


def test_block_seed_fan_out(benchmark):
    benchmark(h1_block_states)
    benchmark.extra_info["per_window_us"] = benchmark.stats.stats.min / harness.BLOCK_WINDOWS * 1e6


def test_generator_from_state_words(benchmark):
    benchmark(harness._generator, h1_block_states()[7, 1])


def test_awgn(benchmark):
    benchmark(siggen.generate_awgn, K, siggen.NoiseSpec(1.0, SEED), FS)


def test_am(benchmark):
    benchmark(siggen.generate_am, WINDOW_SPEC, SEED)


def test_mix(benchmark, samples):
    signal = siggen.generate_am(WINDOW_SPEC, SEED)
    noise = siggen.SampleBuffer(samples, FS)
    benchmark(siggen.mix_at_snr, signal, noise, -10.0)


def test_rfft(benchmark, samples):
    benchmark(np.fft.rfft, samples)


def test_rfft_rows(benchmark):
    rows = np.random.default_rng(SEED).standard_normal((harness.ROWS, K))
    benchmark(np.fft.rfft, rows, axis=-1)
    benchmark.extra_info["per_window_us"] = benchmark.stats.stats.min / harness.ROWS * 1e6


def test_taper_real_fft(benchmark, samples):
    benchmark(scd._half_spectra, samples[None], CFG)


def test_cyclic_product(benchmark, half):
    benchmark(cyclic_product_of, half, np.empty((2, 1, CELLS), complex))


def test_smoother(benchmark, cyclic_product):
    benchmark(scd._smoothed, cyclic_product, CFG.smoothing_length)


def test_max_reduction(benchmark, cyclic_product):
    smoothed = scd._smoothed(cyclic_product, CFG.smoothing_length)
    benchmark(lambda: np.max(np.abs(smoothed)))


def test_kernel(benchmark, samples):
    benchmark(scd.alpha_maxima, samples, CFG, (A0,))


def benchmark_block(benchmark, kind, snr_index):
    """One block of windows as the harness runs it, each window's share, and
    the block's minor page faults per window."""
    task = (PLAN, kind, snr_index, 0, 0, harness.BLOCK_WINDOWS)
    runs = faults = 0

    def run():
        nonlocal runs, faults
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        harness._block_task(task)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        runs += 1

    benchmark(run)
    benchmark.extra_info["per_window_us"] = benchmark.stats.stats.min / harness.BLOCK_WINDOWS * 1e6
    benchmark.extra_info["minor_faults_per_window"] = faults / (runs * harness.BLOCK_WINDOWS)


def test_noise_window(benchmark):
    benchmark_block(benchmark, "noise", 0)


def test_h1_window(benchmark):
    benchmark_block(benchmark, "h1", 1)
