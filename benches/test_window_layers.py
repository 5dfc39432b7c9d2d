"""Per-stage micro-benchmarks of the desk plan's analysis windows.

    PYTHONPATH=src python -m pytest benches -q --benchmark-columns=min,median,iqr,rounds

One benchmark per stage of the statistic path, each timing the call that
harness._block_task makes on one sub-block of harness.ROWS windows, in the
kernel's own scd._KernelBuffers, which hold the feature column's config:
the noise draws (a Generator from each window's PCG64 state words, then
standard_normal into the row), AM synthesis (siggen._am_rows with the
plan's full-length spec, its spectra in the kernel's half buffer), the SNR
mix (siggen._mix_rows), taper + real FFT (scd._half_spectra into the half
buffer, tapering the rows in place), the kernel's strip step at the feature
bin (scd._smoothed_strips: the gathered, multiplied and scaled cyclic
product, smoothed), the running-sum smoother alone on that strip
(scd._smoothed, its input the strip of a smoothing-length-1 kernel of its
own), the abs + max reduction of its valid runs, and the whole kernel
(scd._maxima). A step that writes its input in place gets
a fresh copy of it before each round, outside the timed call. Each records
its minimum time per window as `per_window_us` in `--benchmark-json`. The
directory is not in the test suite's `testpaths`.

The seed stage has three figures: the scalar `derived_seed` reference, one
H1 block's vectorized fan-out (its seeds and PCG64 state words, recorded
per window the same way), and the Generator each drawn seed is built into.
The FFT alone has two: one window, and one call over a sub-block's rows.
The whole-window benchmarks time one block of harness.BLOCK_WINDOWS
windows, the harness's unit of work, beside the block's minor page faults
per window (`minor_faults_per_window`), which rise when the row buffers
stop being allocated once per block.
"""

import resource
from dataclasses import replace

import numpy as np
import pytest

from cyclosense import harness, scd, siggen

PLAN = harness.desk_plan(3)
A0 = PLAN.alpha0_bin
CFG = replace(PLAN.scd_cfg, alpha_grid=(A0,))  # the one column _block_task computes
K = CFG.window_length_k
ROWS = harness.ROWS
SNR_DB = -10.0
# rounds of each benchmark that needs a fresh input per round
ROUNDS = 300


def noise_states():
    """PCG64 state words of the noise-fit stream's first ROWS windows."""
    indices = np.arange(ROWS, dtype=np.uint64)
    return harness._pcg64_states(harness._derived_seeds(
        PLAN.master_seed, harness.STREAM_NOISE_FIT, indices))


def h1_block_states():
    """Signal and noise seeds of one H1 block, and their PCG64 state words."""
    indices = np.arange(harness.BLOCK_WINDOWS, dtype=np.uint64)
    return harness._pcg64_states(harness._derived_seeds(
        PLAN.master_seed, harness.STREAM_H1_TRIAL, 0, 0, indices[:, None], np.arange(2)))


def draw(rows, states):
    """The block's draws: each row's standard normals from its state words."""
    for row, words in zip(rows, states):
        harness._generator(words).standard_normal(row.size, out=row)
    return rows


@pytest.fixture(scope="module")
def normals():
    return draw(np.empty((ROWS, K)), noise_states())


@pytest.fixture(scope="module")
def h1_draws():
    """The signal and the noise draws of the H1 block's first ROWS windows."""
    states = h1_block_states()[:ROWS]
    return draw(np.empty((ROWS, K)), states[:, 0]), draw(np.empty((ROWS, K)), states[:, 1])


@pytest.fixture
def work():
    return scd._KernelBuffers(ROWS, CFG)


@pytest.fixture
def half(normals, work):
    return scd._half_spectra(normals.copy(), work)


def record_per_window(benchmark, windows=ROWS):
    """Record the minimum time per window; with --benchmark-disable the
    function runs once, untimed, and there is nothing to record."""
    if benchmark.stats is not None:
        benchmark.extra_info["per_window_us"] = benchmark.stats.stats.min / windows * 1e6


def in_place(benchmark, target, fresh, *args, into=None):
    """Time target(copy, *args), copy a copy of fresh made before each round
    in into (a new array by default), for a target that writes its first
    argument in place."""
    copy = np.empty_like(fresh) if into is None else into

    def setup():
        copy[...] = fresh
        return (copy, *args), {}

    benchmark.pedantic(target, setup=setup, rounds=ROUNDS, warmup_rounds=1)
    record_per_window(benchmark)


def test_derived_seed(benchmark):
    benchmark(harness.derived_seed, PLAN.master_seed, harness.STREAM_H1_TRIAL, 0, 0, 7, 1)


def test_block_seed_fan_out(benchmark):
    benchmark(h1_block_states)
    record_per_window(benchmark, harness.BLOCK_WINDOWS)


def test_generator_from_state_words(benchmark):
    benchmark(harness._generator, h1_block_states()[7, 1])


def test_awgn(benchmark):
    benchmark(draw, np.empty((ROWS, K)), noise_states())
    record_per_window(benchmark)


def test_am(benchmark, h1_draws, work):
    in_place(benchmark, lambda rows: siggen._am_rows(PLAN.signal_spec, rows, work.half),
             h1_draws[0])


def test_mix(benchmark, h1_draws):
    signal, noise = h1_draws
    in_place(benchmark, siggen._mix_rows, siggen._am_rows(PLAN.signal_spec, signal.copy()),
             noise, SNR_DB)


def test_rfft(benchmark, normals):
    benchmark(np.fft.rfft, normals[0])


def test_rfft_rows(benchmark, normals):
    benchmark(np.fft.rfft, normals, axis=-1)
    record_per_window(benchmark)


def test_taper_real_fft(benchmark, normals, work):
    in_place(benchmark, lambda rows: scd._half_spectra(rows, work, tapered=rows), normals)


def feature_run(half, work):
    """The valid run of the feature column, the kernel's one strip: a
    (ROWS, K - |A0|) view into work."""
    [(_, [run])] = scd._smoothed_strips(half, work)
    return run


def test_smoothed_strip(benchmark, half, work):
    benchmark(feature_run, half, work)
    record_per_window(benchmark)


def test_smoother(benchmark, half, work):
    # the cyclic product as the kernel's (ROWS, 1, K - |A0|) strip: the run of
    # a kernel at smoothing length 1, equal to the product up to the rounding
    # of one running-sum difference
    unsmoothed = scd._KernelBuffers(ROWS, replace(CFG, smoothing_length=1))
    product = feature_run(half, unsmoothed)[:, None].copy()
    # as the kernel calls it: the strip is its own running-sum buffer
    in_place(benchmark, scd._smoothed, product, CFG.smoothing_length, work.products,
             work.smoothed, into=work.products)


def test_max_reduction(benchmark, half, work):
    column = feature_run(half, work)
    magnitudes, maxima = work.magnitudes[:, :column.shape[1]], np.empty(ROWS)
    benchmark(lambda: np.max(np.abs(column, out=magnitudes), axis=-1, out=maxima))
    record_per_window(benchmark)


def test_kernel(benchmark, normals, work):
    in_place(benchmark, lambda rows: scd._maxima(rows, work, tapered=rows), normals)


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
    record_per_window(benchmark, harness.BLOCK_WINDOWS)
    benchmark.extra_info["minor_faults_per_window"] = faults / (runs * harness.BLOCK_WINDOWS)


def test_noise_window(benchmark):
    benchmark_block(benchmark, "noise", 0)


def test_h1_window(benchmark):
    benchmark_block(benchmark, "h1", 1)
