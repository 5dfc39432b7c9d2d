"""SCD estimator checks against independent oracles.

The alpha=0 column must reproduce an ordinary smoothed periodogram computed
through a different code path (scipy periodogram plus a cumulative-sum moving
average), the real-FFT spectrum must match the complex FFT, and the second
moment of an alpha != 0 cell of white Gaussian noise must match its exact
Isserlis-theorem value; the remaining tests pin symmetry, scaling, the
per-alpha maxima and the AM cyclic feature.
"""

import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import signal as sp_signal

import cyclosense as cs
from cyclosense import harness, io
from cyclosense.scd import (TAPERS, _centered_bins, _half_spectra, _KernelBuffers, _maxima,
                            _smoothed, _smoothed_strips, taper_coefficients)

FS = 3.0e6


def noise_window(k, seed=0, fs=FS):
    return cs.SampleBuffer(np.random.default_rng(seed).standard_normal(k), fs)


def smoothed_periodogram_oracle(x, fs, k, smoothing_length):
    """Independent smoothed PSD path: scipy two-sided density periodogram
    scaled back to |X|^2/(K*U), then windowed sums via cumulative sums."""
    taper = taper_coefficients("hamming", k)
    _, pxx = sp_signal.periodogram(
        x, fs=fs, window=taper, nfft=k, detrend=False,
        return_onesided=False, scaling="density",
    )
    raw = np.fft.fftshift(pxx) * fs
    half = (smoothing_length - 1) // 2
    csum = np.concatenate([[0.0], np.cumsum(raw)])
    return np.array([
        (csum[min(i + half + 1, k)] - csum[max(i - half, 0)]) / smoothing_length
        for i in range(k)
    ])


def centered_spectrum(x, cfg):
    """Bins -K/2 .. K/2-1 of one window, gathered from its rfft half as the
    cyclic columns are."""
    k = cfg.window_length_k
    half = _half_spectra(x[None], _KernelBuffers(1, cfg))
    return _centered_bins(half, -k // 2, np.empty((1, k), complex))[0]


def valid_maxima(scd):
    """Per-column maximum of |values| over the valid_mask cells of a matrix."""
    return np.array([np.max(np.abs(scd.values[scd.valid_mask[:, c], c]))
                     for c in range(scd.values.shape[1])])


def convolved_oracle(column, smoothing_length):
    """The direct O(n*L) convolution form of the centered moving average:
    fixed 1/L normalization, implicit zeros past both ends."""
    full = np.convolve(column, np.ones(smoothing_length) / smoothing_length, mode="full")
    half = (smoothing_length - 1) // 2
    return full[half:half + column.size]


class TestSmoother:
    # K=1024: lengths 1, 3, 301 and K-1; columns down to 2 cells, so that
    # every cell of the shorter columns has an edge-truncated window
    @pytest.mark.parametrize("smoothing_length", [1, 3, 301, 1023])
    @pytest.mark.parametrize("size", [2, 3, 150, 1022, 1024])
    def test_matches_direct_convolution(self, rng, smoothing_length, size):
        column = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        got = _smoothed(column, smoothing_length, np.empty_like(column), np.empty_like(column))
        want = convolved_oracle(column, smoothing_length)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_nonnegative_column_matches_cellwise(self, rng):
        column = rng.standard_normal(1366) ** 2 + 1.0
        got = _smoothed(column, 1301, np.empty_like(column), np.empty_like(column))
        np.testing.assert_allclose(got, convolved_oracle(column, 1301), rtol=1e-12)


def divided_smoothed(column, smoothing_length, sums=None, out=None):
    """Reference for _smoothed: the same running sums, divided by the length
    as a complex array."""
    sums = np.cumsum(column, axis=-1, out=sums)
    n, lead = sums.shape[-1], smoothing_length // 2
    first_lower, last_inner = min(lead + 1, n), max(n - lead, 0)
    if out is None:
        out = np.empty_like(sums)
    out[..., :last_inner] = sums[..., lead:]
    out[..., last_inner:] = sums[..., n - 1:]
    out[..., first_lower:] -= sums[..., :n - first_lower]
    out /= smoothing_length
    return out


def divided_smoothed_column(half, a, cfg):
    """Reference for the kernel's column a: the same product, divided by K * U
    (U the taper's mean square) as a complex array, then divided_smoothed."""
    k, rows = cfg.window_length_k, len(half)
    shift, lo = a // 2, abs(a) // 2
    n = k - 2 * lo
    upper = _centered_bins(half, lo + shift - k // 2, np.empty((rows, n), complex))
    lower = _centered_bins(half, lo - shift - k // 2, np.empty((rows, n), complex))
    np.conjugate(lower, out=lower)
    np.multiply(upper, lower, out=upper)
    taper = taper_coefficients(cfg.taper, k)
    upper /= k * float(np.mean(taper * taper))
    return divided_smoothed(upper, cfg.smoothing_length, sums=upper, out=lower)


def complex_rows(seed, rows, cells, magnitude):
    """rows x cells complex values whose parts have magnitudes in
    [magnitude, 2*magnitude], so no part is zero (the sign of a zero part is
    the one thing the reciprocal product may round differently)."""
    rng = np.random.default_rng(seed)
    parts = rng.uniform(1.0, 2.0, (rows, cells, 2)) * rng.choice([-1.0, 1.0], (rows, cells, 2))
    return (parts * magnitude).view(np.complex128)[..., 0]


SEEDS = st.integers(0, 2**32 - 1)
MAGNITUDES = st.sampled_from([1e-150, 1e150]) | st.floats(1e-150, 1e150)


@settings(deadline=None, derandomize=True, database=None)
@given(data=st.data(), cells=st.integers(1, 300), magnitude=MAGNITUDES)
def test_smoother_equals_complex_division_bit_for_bit(data, cells, magnitude):
    smoothing_length = 2 * data.draw(st.integers(0, cells + 1)) + 1
    column = complex_rows(data.draw(SEEDS), data.draw(st.integers(1, 4)), cells, magnitude)
    want = divided_smoothed(column, smoothing_length)
    got = _smoothed(column, smoothing_length, np.empty_like(column), np.empty_like(column))
    assert got.tobytes() == want.tobytes()


@settings(deadline=None, derandomize=True, database=None)
@given(data=st.data(), k=st.sampled_from([4, 16, 256, 4096]),
       magnitude=st.sampled_from([1e-75, 1e75]) | st.floats(1e-75, 1e75))
def test_kernel_column_equals_complex_division_bit_for_bit(data, k, magnitude):
    smoothing_length, taper = data.draw(st.integers(1, k - 2)), data.draw(st.sampled_from(TAPERS))
    a = 2 * data.draw(st.integers(1 - k // 2, k // 2 - 1))
    cfg = cs.ScdConfig(k, smoothing_length, (a,), taper)
    half = complex_rows(data.draw(SEEDS), data.draw(st.integers(1, 4)), k // 2 + 1, magnitude)
    [(_, [got])] = _smoothed_strips(half, _KernelBuffers(len(half), cfg))
    assert got.tobytes() == divided_smoothed_column(half, a, cfg).tobytes()


class TestSpectrum:
    @pytest.mark.parametrize("taper", TAPERS)
    @pytest.mark.parametrize("k", [2, 4, 1024, 4096])
    def test_matches_shifted_complex_fft(self, rng, taper, k):
        x = rng.standard_normal(k)
        want = np.fft.fftshift(np.fft.fft(taper_coefficients(taper, k) * x))
        got = centered_spectrum(x, cs.ScdConfig(k, 1, (0,), taper))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("taper", TAPERS)
    def test_lower_half_is_conjugate_mirror_of_upper_half(self, rng, taper):
        # centered bin i holds X(i - K/2), so X(-m) = conj X(m) pairs bin i
        # with bin K - i for 0 < i < K/2
        k = 1024
        spectrum = centered_spectrum(rng.standard_normal(k), cs.ScdConfig(k, 1, (0,), taper))
        assert np.array_equal(spectrum[1:k // 2], np.conj(spectrum[k - 1:k // 2:-1]))


@st.composite
def windows_and_configs(draw):
    """A real window of K samples, bounded away from under- and overflow,
    and a config with columns 0, a and -a for an even a != 0."""
    k = draw(st.sampled_from([4, 16, 64, 256]))
    a = 2 * draw(st.integers(1, k // 2 - 1))
    cfg = cs.ScdConfig(k, draw(st.integers(1, k - 2)), (0, a, -a), draw(st.sampled_from(TAPERS)))
    value = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
    return draw(hnp.arrays(np.float64, k, elements=value)), cfg


# Rounding errors scale with the window's power, which the alpha = 0 column
# measures, so both properties are checked relative to the largest |S| of
# the whole matrix, not of the alpha != 0 column, which may be near zero.
@settings(deadline=None, derandomize=True, database=None)
@given(windows_and_configs())
def test_negative_alpha_column_is_the_conjugate(case):
    x, cfg = case
    values = cs.estimate_scd(cs.SampleBuffer(x, FS), cfg).values
    assert np.max(np.abs(values[:, 2] - np.conj(values[:, 1]))) <= 1e-12 * np.max(np.abs(values))


@settings(deadline=None, derandomize=True, database=None)
@given(windows_and_configs(), st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3))
def test_scaling_the_window_scales_the_scd_by_its_square(case, c):
    x, cfg = case
    base = cs.estimate_scd(cs.SampleBuffer(x, FS), cfg).values
    scaled = cs.estimate_scd(cs.SampleBuffer(c * x, FS), cfg).values
    assert np.max(np.abs(scaled - c * c * base)) <= 1e-12 * np.max(np.abs(scaled))


@st.composite
def window_rows_and_config(draw):
    """1-20 windows of K samples as rows, and a config whose grid holds 1-4
    alpha bins among 0, +-2, +-(K-4), +-(K-2) and the even offsets in between."""
    k = draw(st.sampled_from([16, 256, 1024, 4096]))
    edges = st.sampled_from([0, 2, -2, k - 4, 4 - k, k - 2, 2 - k])
    inner = st.integers(1 - k // 2, k // 2 - 1).map(lambda h: 2 * h)
    bins = tuple(draw(st.lists(edges | inner, min_size=1, max_size=4, unique=True)))
    cfg = cs.ScdConfig(k, draw(st.integers(1, k - 2)), bins, draw(st.sampled_from(TAPERS)))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        (draw(st.integers(1, 20)), k))
    return rows, cfg


# numpy reuses a temporary of 16,384 or more complex cells as the output of
# a product with the operands swapped, which changes its rounding; a row
# kernel that let this happen would differ from one-window calls from 12
# rows of the desk feature column's 1,366 cells, or 4 rows of 4,096 cells at
# alpha = 0, and the examples cross both
@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(window_rows_and_config())
@example((np.random.default_rng(1).standard_normal((20, 4096)),
          cs.ScdConfig(4096, 1301, (2730, 0, -4094))))
@example((np.random.default_rng(2).standard_normal((13, 4096)),
          cs.ScdConfig(4096, 1301, (-2730, 4094), "rectangular")))
# more columns than one strip holds, of both signs and many lengths
@example((np.random.default_rng(3).standard_normal((5, 1024)),
          cs.ScdConfig(1024, 301, tuple(range(-1000, 1001, 100)))))
def test_rows_of_windows_equal_one_window_calls_bit_for_bit(case):
    rows, cfg = case
    maxima = _maxima(rows, _KernelBuffers(len(rows), cfg))
    assert maxima.shape == (len(rows), len(cfg.alpha_grid))
    alone = np.array([cs.alpha_maxima(window, cfg) for window in rows])
    assert maxima.tobytes() == alone.tobytes()


def one_column_values(window, cfg):
    """estimate_scd's values computed one one-column kernel call per column,
    so that no strip holds a pad, each stored into its column of a C-order
    matrix."""
    k = cfg.window_length_k
    values = np.zeros((k, len(cfg.alpha_grid)), dtype=np.complex128)
    for col, a in enumerate(cfg.alpha_grid):
        work = _KernelBuffers(1, replace(cfg, alpha_grid=(a,)))
        [(_, [run])] = _smoothed_strips(_half_spectra(window.samples[None], work), work)
        lo = abs(a) // 2
        values[lo:k - lo, col] = run[0]
    return values


WINDOW_KINDS = ("normal", "zero", "negative zero", "constant", "sparse")


def strip_window(kind, k, seed):
    """A window of K samples: white noise, all +0.0 or all -0.0, one constant,
    or zeros but for a few noise samples."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.standard_normal(k)
    if kind in ("zero", "negative zero"):
        return np.full(k, 0.0 if kind == "zero" else -0.0)
    if kind == "constant":
        return np.full(k, rng.uniform(-2.0, 2.0))
    x = np.zeros(k)
    x[rng.integers(0, k, 3)] = rng.standard_normal(3)
    return x


@st.composite
def strip_cases(draw):
    """A window and a config of 1-40 columns in any order, both signs and
    any length down to 2 cells, so that strips mix lengths and the shortest
    columns are shorter than the smoothing length."""
    k = draw(st.sampled_from([4, 16, 64, 256, 1024]))
    bins = st.integers(1 - k // 2, k // 2 - 1).map(lambda half: 2 * half)
    grid = tuple(draw(st.lists(bins, min_size=1, max_size=min(40, k - 1), unique=True)))
    cfg = cs.ScdConfig(k, draw(st.integers(1, k - 2)), grid, draw(st.sampled_from(TAPERS)))
    x = strip_window(draw(st.sampled_from(WINDOW_KINDS)), k, draw(st.integers(0, 2**32 - 1)))
    return x, cfg


# the 699-column alpha scan of the desk window, offsets -2792, -2784, ..., 2792
DESK_SCAN = (harness.export_window(harness.desk_plan()).samples,
             replace(harness.desk_plan().scd_cfg, alpha_grid=tuple(range(-2792, 2793, 8))))


# the kernel pads each strip row past its column's end with -0.0, which
# leaves the running sum's bits as they are; a +0.0 pad or none at all
# changes cells of zero, sparse or short-column cases
@settings(deadline=None, derandomize=True, database=None)
@given(strip_cases())
@example(DESK_SCAN)
def test_strips_equal_one_column_at_a_time_bit_for_bit(case):
    x, cfg = case
    window = cs.SampleBuffer(x, FS)
    matrix, want = cs.estimate_scd(window, cfg), one_column_values(window, cfg)
    # what `cyclosense scd` estimates: the file's layout, every cell written over the nan fill
    nan = complex(np.nan, np.nan)
    file_matrix = cs.estimate_scd(window, cfg, out=np.full(want.shape, nan, "<c8"))
    for values in (matrix.values, file_matrix.values):
        assert values.shape == want.shape and values.flags.c_contiguous
    assert np.array_equal(matrix.values.view(np.uint64), want.view(np.uint64))
    assert file_matrix.values.tobytes() == want.astype("<c8").tobytes()
    assert cs.alpha_maxima(x, cfg).tobytes() == valid_maxima(cs.ScdMatrix(want, cfg, FS)).tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        data_path, _ = io.write_scd_matrix(Path(tmp) / "scd", matrix)
        assert data_path.read_bytes() == want.astype("<c8").tobytes()
        data_path, _ = io.write_scd_matrix(Path(tmp) / "c64", file_matrix)
        assert data_path.read_bytes() == want.astype("<c8").tobytes()


def test_out_of_the_wrong_shape_is_refused_before_a_write():
    cfg = cs.ScdConfig(64, 5, (0, 4))
    nan = complex(np.nan, np.nan)
    # a real out would keep only the real parts, and a strided one is not the
    # row-major layout that write_scd_matrix writes without a copy
    cases = [(np.full((64, 3), nan, "<c8"), "does not match"),
             (np.full((64, 2), np.nan), "complex C-contiguous"),
             (np.full((64, 2), np.nan, np.float32), "complex C-contiguous"),
             (np.full((2, 64), nan).T, "complex C-contiguous"),
             (np.full((64, 4), nan)[:, ::2], "complex C-contiguous")]
    for out, match in cases:
        with pytest.raises(ValueError, match=match):
            cs.estimate_scd(noise_window(64), cfg, out=out)
        assert np.isnan(np.ascontiguousarray(out).view(out.real.dtype)).all()


class TestIsserlisOracle:
    """E|S(c)|^2 of a cyclic cell for white unit-variance Gaussian input.

    With W2 = DFT(w^2), E[X(m) X(n)] = W2[m + n] and E[X(m) conj X(n)] =
    W2[m - n], so Isserlis' theorem gives, for the cells J(c) of c's
    smoothing window inside the valid run,

        E|S(c)|^2 = (L K U)^-2 sum_{j, l in J(c)} (|W2[a]|^2
                    + |W2[f_j - f_l]|^2 + |W2[f_j + f_l]|^2)

    with indices mod K. The estimator is checked against it by Monte Carlo.
    """

    K, L, A, N = 256, 31, 64, 4000

    @pytest.mark.parametrize("taper", TAPERS)
    def test_second_moment_matches_monte_carlo(self, rng, taper):
        k, length, a = self.K, self.L, self.A
        cfg = cs.ScdConfig(k, length, (a,), taper)
        w = taper_coefficients(taper, k)
        w2 = np.fft.fft(w * w)
        scale = length * k * np.mean(w * w)
        lo, hi = a // 2, k - 1 - a // 2
        power = np.array([
            np.abs(cs.estimate_scd(cs.SampleBuffer(rng.standard_normal(k), FS), cfg).values[:, 0])
            ** 2 for _ in range(self.N)])
        for cell in (k // 2, lo):  # the centre, and the first valid, edge-truncated cell
            f = np.arange(max(cell - length // 2, lo), min(cell + length // 2, hi) + 1) - k // 2
            pairs = (f.size ** 2 * np.abs(w2[a % k]) ** 2
                     + np.sum(np.abs(w2[(f[:, None] - f[None, :]) % k]) ** 2)
                     + np.sum(np.abs(w2[(f[:, None] + f[None, :]) % k]) ** 2))
            expected = pairs / scale ** 2
            samples = power[:, cell]
            standard_error = samples.std(ddof=1) / np.sqrt(self.N)
            assert abs(samples.mean() - expected) <= 4 * standard_error


class TestTaper:
    @pytest.mark.parametrize("name", ["hamming", "rectangular"])
    def test_cached_read_only(self, name):
        first = taper_coefficients(name, 1024)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 2.0
        assert np.array_equal(taper_coefficients(name, 1024), first)

    def test_unknown_taper(self):
        with pytest.raises(ValueError):
            taper_coefficients("hann", 1024)


class TestScdConfig:
    def test_smoothing_length_odd_coercion(self):
        cfg = cs.ScdConfig(4096, 1300, (0,))
        assert cfg.smoothing_length == 1301

    def test_window_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            cs.ScdConfig(1000, 31, (0,))

    def test_smoothing_must_fit_window(self):
        with pytest.raises(ValueError):
            cs.ScdConfig(1024, 1024, (0,))

    @pytest.mark.parametrize("alpha", [3, -7, 1024, -1026])
    def test_alpha_grid_validation(self, alpha):
        with pytest.raises(ValueError):
            cs.ScdConfig(1024, 301, (alpha,))


class TestSnap:
    def test_feature_bin_for_table_parameters(self):
        # 2 MHz at fs=3 MHz, K=4096: exact bin 2730.67 snaps down to 2730
        assert cs.snap_alpha_to_even_bin(2.0e6, FS, 4096) == 2730

    def test_snapping_is_always_even(self):
        for alpha in (0.37e6, 1.1e6, 2.9e6):
            assert cs.snap_alpha_to_even_bin(alpha, FS, 4096) % 2 == 0

    @pytest.mark.parametrize("alpha, rate, k, message", [
        (np.nan, FS, 4096, "alpha_hz must be finite, got nan"),
        (np.inf, FS, 4096, "alpha_hz must be finite, got inf"),
        ("2", FS, 4096, "alpha_hz must be finite, got '2'"),
        (True, FS, 4096, "alpha_hz must be finite, got True"),
        (2.0e6, 0.0, 4096, "sample_rate_hz must be positive and finite, got 0.0"),
        (2.0e6, -FS, 4096, "sample_rate_hz must be positive and finite, got -3000000.0"),
        (2.0e6, np.nan, 4096, "sample_rate_hz must be positive and finite, got nan"),
        (2.0e6, True, 4096, "sample_rate_hz must be positive and finite, got True"),
        (2.0e6, FS, 4096.5, "window_length_k must be an integer of at least 1, got 4096.5"),
        (2.0e6, FS, "4096", "window_length_k must be an integer of at least 1, got '4096'"),
        (2.0e6, FS, True, "window_length_k must be an integer of at least 1, got True"),
        (2.0e6, FS, 0, "window_length_k must be an integer of at least 1, got 0"),
        (1e308, 1.0, 4096, "alpha_hz * window_length_k / sample_rate_hz must be finite, got inf"),
    ])
    def test_rejects_bad_arguments(self, alpha, rate, k, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cs.snap_alpha_to_even_bin(alpha, rate, k)

    @pytest.mark.parametrize("alpha, rate, k", [
        (2.0e6, FS, 4096), (2000, 3000, 4096), (np.float32(2.0e6), np.float64(FS), np.int64(4096)),
        (-2.0e6, FS, 4096.0)])
    def test_takes_any_real_rate_and_whole_length(self, alpha, rate, k):
        assert cs.snap_alpha_to_even_bin(alpha, rate, k) == 2730 * (1 if alpha > 0 else -1)


class TestEstimateScd:
    def test_alpha_zero_equals_smoothed_periodogram(self):
        k = 4096
        buf = noise_window(k, seed=42)
        cfg = cs.ScdConfig(k, 1300, (0,))
        column = cs.estimate_scd(buf, cfg).values[:, 0]
        oracle = smoothed_periodogram_oracle(buf.samples, FS, k, cfg.smoothing_length)
        np.testing.assert_allclose(column.real, oracle, rtol=1e-12)
        assert np.all(np.abs(column.imag) <= 1e-9 * np.abs(column.real))

    def test_alpha_zero_real_nonnegative(self):
        buf = noise_window(1024, seed=3)
        column = cs.estimate_scd(buf, cs.ScdConfig(1024, 301, (0,))).values[:, 0]
        assert np.all(column.real >= 0.0)

    def test_pure_carrier_feature_peaks_at_zero_frequency(self):
        # fc = fs/3; the alpha=2fc column concentrates at f=0. Smoothing makes
        # a near-flat plateau, so the f=0 cell matches the column maximum to
        # leakage precision and the argmax stays inside the plateau.
        k = 4096
        spec = cs.SignalSpec(FS / 3.0, 1.0e4, FS, k, "am", 0.0)
        buf = cs.generate_am(spec, seed=0)
        a0 = cs.snap_alpha_to_even_bin(2.0 * FS / 3.0, FS, k)
        cfg = cs.ScdConfig(k, 1300, (a0,))
        column = np.abs(cs.estimate_scd(buf, cfg).values[:, 0])
        center = k // 2
        assert column[center] >= 0.999 * column.max()
        assert abs(int(np.argmax(column)) - center) <= (cfg.smoothing_length - 1) // 2

    def test_zero_window_gives_zero_matrix(self):
        buf = cs.SampleBuffer(np.zeros(1024), FS)
        mat = cs.estimate_scd(buf, cs.ScdConfig(1024, 301, (0, 340)))
        assert not np.any(mat.values)

    def test_conjugate_symmetry_for_real_input(self):
        buf = noise_window(1024, seed=8)
        cfg = cs.ScdConfig(1024, 101, (340, -340))
        mat = cs.estimate_scd(buf, cfg)
        shared = mat.valid_mask[:, 0] & mat.valid_mask[:, 1]
        plus, minus = mat.values[shared, 0], mat.values[shared, 1]
        np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-10)

    def test_scale_covariance(self):
        buf = noise_window(1024, seed=9)
        scaled = cs.SampleBuffer(3.0 * buf.samples, FS)
        cfg = cs.ScdConfig(1024, 301, (340,))
        base = cs.estimate_scd(buf, cfg).values
        big = cs.estimate_scd(scaled, cfg).values
        np.testing.assert_allclose(np.abs(big), 9.0 * np.abs(base), rtol=1e-10)

    def test_bit_identical_determinism(self):
        buf = noise_window(1024, seed=10)
        cfg = cs.ScdConfig(1024, 301, (0, 340))
        a = cs.estimate_scd(buf, cfg)
        b = cs.estimate_scd(buf, cfg)
        assert np.array_equal(a.values, b.values)

    def test_valid_mask_marks_bin_pairs_in_range(self):
        k = 1024
        buf = noise_window(k, seed=12)
        mat = cs.estimate_scd(buf, cs.ScdConfig(k, 101, (340,)))
        run = np.flatnonzero(mat.valid_mask[:, 0])
        assert run[0] == 170 and run[-1] == k - 1 - 170
        assert not np.any(mat.values[: run[0], 0])

    def test_valid_runs_are_the_ends_of_the_valid_mask(self):
        k = 1024
        cfg = cs.ScdConfig(k, 101, (0, 2, -2, k - 2, 2 - k))
        mat = cs.estimate_scd(noise_window(k, seed=13), cfg)
        ends = [(int(run[0]), int(run[-1])) for run in map(np.flatnonzero, mat.valid_mask.T)]
        assert mat.valid_runs == ends == [(0, k - 1), (1, k - 2), (1, k - 2),
                                          (k // 2 - 1, k // 2), (k // 2 - 1, k // 2)]

    def test_matrix_rejects_values_of_another_shape(self):
        cfg = cs.ScdConfig(1024, 101, (0, 340))
        for shape in ((1024, 1), (1024, 3), (512, 2)):
            with pytest.raises(ValueError, match="does not match"):
                cs.ScdMatrix(np.zeros(shape, complex), cfg, FS)

    def test_rejects_mismatched_window_length(self):
        with pytest.raises(ValueError):
            cs.estimate_scd(noise_window(512), cs.ScdConfig(1024, 301, (0,)))


class TestAlphaMaxima:
    # zero, positive and negative offsets, and the two largest |a| < K,
    # whose 4- and 2-cell columns are shorter than the smoothing length
    BINS = (0, 340, -340, 1020, -1020, 1022, -1022)

    @pytest.mark.parametrize("taper", ["hamming", "rectangular"])
    def test_bit_identical_to_matrix_profile(self, taper):
        cfg = cs.ScdConfig(1024, 301, self.BINS, taper)
        for seed in range(3):
            buf = noise_window(1024, seed=seed)
            assert np.array_equal(cs.alpha_maxima(buf.samples, cfg),
                                  valid_maxima(cs.estimate_scd(buf, cfg)))

    @pytest.mark.parametrize("taper", TAPERS)
    def test_each_column_equals_its_one_column_config_bit_for_bit(self, taper):
        buf = noise_window(1024, seed=4)
        cfg = cs.ScdConfig(1024, 301, self.BINS, taper)
        alone = [cs.alpha_maxima(buf.samples, replace(cfg, alpha_grid=(a,))) for a in self.BINS]
        assert cs.alpha_maxima(buf.samples, cfg).tobytes() == np.concatenate(alone).tobytes()

    def test_two_calls_on_one_window_agree(self):
        samples = noise_window(1024, seed=4).samples
        cfg = cs.ScdConfig(1024, 301, self.BINS)
        assert cs.alpha_maxima(samples, cfg).tobytes() == cs.alpha_maxima(samples, cfg).tobytes()

    @pytest.mark.parametrize("alpha", [3, 1024, -1026])
    def test_rejects_invalid_bins(self, alpha):
        with pytest.raises(ValueError, match="not an even offset"):
            cs.alpha_maxima(noise_window(1024).samples, cs.ScdConfig(1024, 301, (0, alpha)))

    def test_rejects_mismatched_window_length(self):
        # a (1, K) array holds K samples, but not as the one window SampleBuffer takes
        for samples, match in ((noise_window(512).samples, "does not match"),
                               (noise_window(1024).samples[None], "nonempty 1-D")):
            with pytest.raises(ValueError, match=match):
                cs.alpha_maxima(samples, cs.ScdConfig(1024, 301, (0,)))

    def test_rejects_complex_samples(self):
        x = noise_window(1024).samples
        with pytest.raises(ValueError, match="complex"):
            cs.alpha_maxima(x + 5j * x, cs.ScdConfig(1024, 301, (0,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        # SampleBuffer refuses the same samples; the maxima would read nan
        x = noise_window(1024).samples.copy()
        x[100] = bad
        with pytest.raises(ValueError, match="finite"):
            cs.alpha_maxima(x, cs.ScdConfig(1024, 301, (0, 340)))


class TestAlphaProfile:
    def test_singleton_column_max(self):
        buf = noise_window(1024, seed=5)
        cfg = cs.ScdConfig(1024, 301, (0, 340))
        mat = cs.estimate_scd(buf, cfg)
        maxima = cs.alpha_maxima(buf.samples, cfg)
        for col in range(2):
            cells = np.abs(mat.values[mat.valid_mask[:, col], col])
            assert maxima[col] == cells.max()

    def test_am_feature_exceeds_noise_alpha_neighborhood(self):
        # the 2fc column of a -10 dB AM window tops the noise-only alpha
        # columns around it (neighborhood kept clear of the feature's own
        # +-2*bw sideband support)
        k = 4096
        a0 = cs.snap_alpha_to_even_bin(2.0e6, FS, k)
        signal = cs.generate_am(cs.SignalSpec(1.0e6, 1.0e4, FS, k), seed=21)
        noise = noise_window(k, seed=22)
        mixed = cs.mix_at_snr(signal, noise, -10.0)
        offsets = [d for d in range(40, 161, 12)]
        neighborhood = tuple(a0 + d for d in offsets) + tuple(a0 - d for d in offsets)
        cfg = cs.ScdConfig(k, 1300, (a0,) + neighborhood)
        maxima = valid_maxima(cs.estimate_scd(mixed, cfg))
        assert maxima[0] > np.median(maxima[1:])

    def test_noise_collection_is_positive_and_finite(self):
        k = 1024
        a0 = cs.snap_alpha_to_even_bin(2.0e6, FS, k)
        cfg = cs.ScdConfig(k, 301, (a0,))
        values = [valid_maxima(cs.estimate_scd(noise_window(k, seed=s), cfg))[0]
                  for s in range(32)]
        assert all(np.isfinite(v) and v > 0 for v in values)
