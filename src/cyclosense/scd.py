"""Spectral correlation density estimation by the frequency-smoothing method.

One analysis window of K real samples is tapered and transformed; the cyclic
periodogram

    I_a(f) = X(f + a/2) * conj(X(f - a/2)) / (K * U)

is formed on a grid of even DFT-bin offsets a (the cyclic frequencies) and
smoothed along f with a moving average of length L, computed as differences
of a running sum (fixed 1/L normalization, implicit zeros past the column
ends). U is the mean squared taper coefficient, which keeps the noise level
taper-invariant. Frequencies are indexed on the centered axis, bins
-K/2 .. K/2-1. For real input X(-m) = conj X(m), so every centered bin comes
from one real FFT: bin m >= 0 is rfft bin m, and bin -m is its conjugate. A
cell is valid only when both f + a/2 and f - a/2 fall inside the K-bin axis,
so no wraparound ever mixes unrelated frequencies.

The alpha profile reduces the (f, alpha) plane to the alpha axis by taking
the per-alpha maximum magnitude over valid cells. alpha_maxima computes it
for one window at the config's columns without building the matrix;
estimate_scd builds the matrix in strips (below), and the maximum of
|values| over a column's valid_mask cells equals alpha_maxima bit for bit.
A config's alpha_grid is the only list of columns the kernel computes: a
caller that wants one column passes a config whose grid is that column. An
ScdMatrix stores only its values, config and sample rate: its axes, valid
runs and valid mask are derived from them.

The helpers work on the last axis of a (rows, K) array of windows, one
window per row, and write into work arrays a caller allocates once and
reuses (_KernelBuffers). The row kernel gathers each cyclic column from the
rfft half into its own buffer, so it never builds the centered spectrum.
Every step is elementwise or runs along one row, so a window's maxima are
the same bits whatever other windows share its array: the Monte Carlo
harness runs _maxima on a few windows at a time, and alpha_maxima calls it
with one row.

estimate_scd instead builds the window's centered spectrum and its
conjugate once and computes the grid in strips of _STRIP columns, one row
per column: each row holds its column's product, and the cells past the
column's end hold -0.0 in both parts. One _smoothed call then smooths the
whole strip. x + (-0.0) is x for every x, signed zeros included, so the
running sum past a column's end repeats its last value bit for bit and
every valid cell is the one-column smoother's (a +0.0 pad would turn a
-0.0 sum into +0.0). Each smoothed row's valid run is stored into its
column of the values, a row-major (K, n_alpha) array whose other cells are
zero: complex128 by default, or a caller's complex out array, such as the
complex64 one `cyclosense scd` writes to its file as it stands, into which
each store casts its run.

Every product is written through out=, never into a temporary: for a
temporary of 256 KiB or more (16,384 complex cells) numpy elides the copy
by reusing the temporary as the output with the operands swapped, and
conj(Y) * X rounds differently from X * conj(Y).
A complex array is divided by a real scale as its float64 view times the
reciprocal 1.0/scale: numpy divides by a real scalar as by a complex one
(Smith's algorithm), which with a zero imaginary part rounds each part of a
finite cell as that product does, up to the sign of a zero part, but takes
several times longer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .siggen import SampleBuffer, _integer

TAPERS = ("hamming", "rectangular")

# columns that estimate_scd smooths per call; its two (_STRIP, K) work
# arrays fit in a core's L2 cache at the desk plan's K = 4,096
_STRIP = 16
# the pad past a strip row's end: x + (-0.0) is x for every x, signed zeros included
_NEGATIVE_ZERO = complex(-0.0, -0.0)

__all__ = [
    "TAPERS",
    "ScdConfig",
    "ScdMatrix",
    "taper_coefficients",
    "snap_alpha_to_even_bin",
    "estimate_scd",
    "alpha_maxima",
]


@dataclass(frozen=True)
class ScdConfig:
    """Estimator configuration.

    alpha_grid holds cyclic frequencies as even DFT-bin offsets so that
    f +/- a/2 lands on integer bins without interpolation. smoothing_length
    is coerced up to the next odd integer to keep the moving average centered.
    """

    window_length_k: int
    smoothing_length: int
    alpha_grid: tuple[int, ...]
    taper: str = "hamming"

    def __post_init__(self) -> None:
        k = _integer("window_length_k", self.window_length_k)
        if k < 2 or (k & (k - 1)) != 0:
            raise ValueError("window_length_k must be a power of two >= 2")
        object.__setattr__(self, "window_length_k", k)
        sm = _integer("smoothing_length", self.smoothing_length)
        if sm < 1:
            raise ValueError("smoothing_length must be positive")
        sm |= 1  # odd coercion
        if sm >= k:
            raise ValueError("smoothing_length must be smaller than the window")
        object.__setattr__(self, "smoothing_length", sm)
        if self.taper not in TAPERS:
            raise ValueError(f"unknown taper {self.taper!r}")
        grid = tuple(_integer("alpha bin offset", a) for a in self.alpha_grid)
        if not grid:
            raise ValueError("alpha_grid must not be empty")
        if len(set(grid)) != len(grid):
            raise ValueError("alpha_grid entries must be unique")
        for a in grid:
            if a % 2 != 0 or abs(a) >= k:
                raise ValueError(f"alpha bin offset {a} is not an even offset with |a| < {k}")
        object.__setattr__(self, "alpha_grid", grid)


@dataclass(frozen=True)
class ScdMatrix:
    """Complex SCD estimate on a (f bin, alpha bin) grid.

    values is a row-major (K, n_alpha) array, one column per bin of the
    config it was estimated with, from a window sampled at sample_rate_hz;
    complex128 as estimate_scd returns it by default, or the complex out
    array a caller gave estimate_scd. Column a is valid on its
    run of centered bins |a|/2 .. K-1-|a|/2, where both f + a/2 and f - a/2
    lie inside the K-bin axis, and zero elsewhere. The axes and the valid cells
    follow from the config and the sample rate.
    """

    values: np.ndarray
    config: ScdConfig
    sample_rate_hz: float

    def __post_init__(self) -> None:
        shape = (self.config.window_length_k, len(self.config.alpha_grid))
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} does not match {shape}, "
                             "(K, len(config.alpha_grid))")

    @property
    def f_axis_hz(self) -> np.ndarray:
        """Centered frequency of each row, bins -K/2 .. K/2-1."""
        k = self.config.window_length_k
        return (np.arange(k) - k // 2) * self.sample_rate_hz / k

    @property
    def alpha_axis_hz(self) -> np.ndarray:
        """Cyclic frequency of each column."""
        grid = np.array(self.config.alpha_grid, dtype=np.float64)
        return grid * self.sample_rate_hz / self.config.window_length_k

    @property
    def valid_runs(self) -> list[tuple[int, int]]:
        """First and last valid bin of each column."""
        k = self.config.window_length_k
        return [(abs(a) // 2, k - 1 - abs(a) // 2) for a in self.config.alpha_grid]

    @property
    def valid_mask(self) -> np.ndarray:
        """Cells on their column's valid run, as a (K, n_alpha) bool array."""
        first, last = np.array(self.valid_runs).T
        bins = np.arange(self.config.window_length_k)[:, None]
        return (first <= bins) & (bins <= last)


@lru_cache(maxsize=16)
def taper_coefficients(name: str, length: int) -> np.ndarray:
    """Taper coefficients for the analysis window (cached, read-only)."""
    if name == "hamming":
        j = np.arange(length)
        coeffs = 0.54 - 0.46 * np.cos(2.0 * np.pi * j / (length - 1))
    elif name == "rectangular":
        coeffs = np.ones(length)
    else:
        raise ValueError(f"unknown taper {name!r}")
    coeffs.flags.writeable = False
    return coeffs


@lru_cache(maxsize=16)
def _periodogram_scale(name: str, length: int) -> float:
    """K * U, the cyclic periodogram normalization of a taper."""
    coeffs = taper_coefficients(name, length)
    return length * float(np.mean(coeffs * coeffs))


def snap_alpha_to_even_bin(alpha_hz: float, sample_rate_hz: float, window_length_k: int) -> int:
    """Snap a cyclic frequency in Hz to the nearest even DFT-bin offset."""
    bins = alpha_hz * window_length_k / sample_rate_hz
    return 2 * int(round(bins / 2.0))


def _smoothed(column: np.ndarray, smoothing_length: int, sums: np.ndarray | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Centered moving average along the last axis with fixed 1/smoothing_length
    normalization.

    Cells whose window is truncated by the ends of the column average in
    implicit zeros; renormalizing by the surviving cell count would make the
    cell variance position-dependent and bias a max statistic toward the
    edges. Window sums are differences of the column's running sum, which
    goes to sums (column itself to sum in place); out must not be sums.
    """
    sums = np.cumsum(column, axis=-1, out=sums)
    n, lead = sums.shape[-1], smoothing_length // 2
    # cell j: sums[min(j + lead, n - 1)], minus sums[j - lead - 1] from j = lead + 1
    first_lower, last_inner = min(lead + 1, n), max(n - lead, 0)
    if out is None:
        out = np.empty_like(sums)
    out[..., :last_inner] = sums[..., lead:]
    out[..., last_inner:] = sums[..., n - 1:]
    out[..., first_lower:] -= sums[..., :n - first_lower]
    _scale_parts(out, 1.0 / smoothing_length)  # not out /=: see the module docstring
    return out


def _scale_parts(values: np.ndarray, factor: float) -> None:
    """values *= factor, in place, on the float64 parts of values."""
    parts = values.view(np.float64)
    parts *= factor


class _KernelBuffers:
    """Work arrays of the statistic kernel for up to `rows` windows and the
    columns of cfg's alpha_grid, allocated once and reused by every call."""

    def __init__(self, rows: int, cfg: ScdConfig) -> None:
        k = cfg.window_length_k
        cells = max(k - abs(a) for a in cfg.alpha_grid)
        self.half = np.empty((rows, k // 2 + 1), dtype=np.complex128)
        self.pair = np.empty((2, rows, cells), dtype=np.complex128)
        self.magnitudes = np.empty((rows, cells))


def _half_spectra(windows: np.ndarray, cfg: ScdConfig, out: np.ndarray | None = None,
                  tapered: np.ndarray | None = None) -> np.ndarray:
    """Real FFT, bins 0 .. K/2, of each tapered row of windows. tapered
    receives the tapered rows (a new array by default; windows itself to
    taper in place)."""
    k = cfg.window_length_k
    if windows.ndim != 2 or windows.shape[1] != k:
        raise ValueError(f"window length {windows.shape[-1]} does not match K={k}")
    tapered = np.multiply(windows, taper_coefficients(cfg.taper, k), out=tapered)
    return np.fft.rfft(tapered, axis=-1, out=out)


def _centered_bins(half: np.ndarray, first: int, out: np.ndarray,
                   conjugate: bool = False) -> np.ndarray:
    """Bins first, first+1, ... of each row's centered spectrum, or with
    conjugate their conjugates, as many as out holds, taken from its rfft
    half (bins 0 .. K/2) through X(-m) = conj X(m)."""
    count = out.shape[-1]
    negative = min(max(-first, 0), count)
    # a negative bin is conjugated once, or not at all when conjugate undoes it
    parts = ((half[:, -first:-first - negative:-1], out[:, :negative], not conjugate),
             (half[:, first + negative:first + count], out[:, negative:], conjugate))
    for bins, dest, conj in parts:
        if dest.size and conj:
            np.conjugate(bins, out=dest)
        elif dest.size:
            dest[...] = bins
    return out


def _smoothed_column(half: np.ndarray, a: int, cfg: ScdConfig,
                     work: _KernelBuffers) -> np.ndarray:
    """Smoothed cyclic periodogram of each row at even offset a over its valid
    run of centered bins [|a|/2, K-1-|a|/2], in work's buffers."""
    k, rows = cfg.window_length_k, len(half)
    shift, lo = a // 2, abs(a) // 2
    n = k - 2 * lo
    upper = _centered_bins(half, lo + shift - k // 2, work.pair[0, :rows, :n])
    lower = _centered_bins(half, lo - shift - k // 2, work.pair[1, :rows, :n], conjugate=True)
    np.multiply(upper, lower, out=upper)  # written through out=: see the module docstring
    _scale_parts(upper, 1.0 / _periodogram_scale(cfg.taper, k))
    return _smoothed(upper, cfg.smoothing_length, sums=upper, out=lower)


def _maxima(windows: np.ndarray, cfg: ScdConfig, work: _KernelBuffers,
            tapered: np.ndarray | None = None) -> np.ndarray:
    """(rows, len(cfg.alpha_grid)) maxima of |SCD| over each column's valid
    cells for each row of windows; see _half_spectra for tapered."""
    rows = len(windows)
    half = _half_spectra(windows, cfg, out=work.half[:rows], tapered=tapered)
    maxima = np.empty((rows, len(cfg.alpha_grid)))
    for j, a in enumerate(cfg.alpha_grid):
        column = _smoothed_column(half, a, cfg, work)
        magnitudes = np.abs(column, out=work.magnitudes[:rows, :column.shape[1]])
        np.max(magnitudes, axis=-1, out=maxima[:, j])
    return maxima


def estimate_scd(window: SampleBuffer, cfg: ScdConfig,
                 out: np.ndarray | None = None) -> ScdMatrix:
    """Frequency-smoothed cyclic periodogram of one analysis window, computed
    _STRIP columns at a time (see the module docstring).

    The values are a new row-major (K, len(cfg.alpha_grid)) complex128
    array, or out, a complex C-contiguous array of that shape whose every
    cell gets written; cells beyond float32 range cast to a complex64 out
    as inf, without a warning. An out of another shape, a real dtype or
    another layout raises ValueError before any write.
    """
    k, grid = cfg.window_length_k, cfg.alpha_grid
    if out is not None and not (np.iscomplexobj(out) and out.flags.c_contiguous):
        # a real out would drop the imaginary parts
        raise ValueError(f"out must be a complex C-contiguous array, got {out.dtype} "
                         f"with strides {out.strides}")
    values = np.empty((k, len(grid)), dtype=np.complex128) if out is None else out
    matrix = ScdMatrix(values, cfg, window.sample_rate_hz)  # checks out's shape before a write
    values[...] = 0  # in one pass: the strips store only the valid runs
    half = _half_spectra(window.samples[None], cfg)
    spectrum = _centered_bins(half, -k // 2, np.empty((1, k), dtype=np.complex128))[0]
    conjugate = _centered_bins(half, -k // 2, np.empty((1, k), dtype=np.complex128),
                               conjugate=True)[0]
    work = np.empty((2, _STRIP, k), dtype=np.complex128)
    for start in range(0, len(grid), _STRIP):
        strip = grid[start:start + _STRIP]
        lengths = [k - abs(a) for a in strip]
        products, smoothed = work[:, :len(strip), :max(lengths)]
        for row, (a, n) in enumerate(zip(strip, lengths)):
            # written through out=: see the module docstring
            np.multiply(spectrum[max(a, 0):][:n], conjugate[max(-a, 0):][:n],
                        out=products[row, :n])
            products[row, n:] = _NEGATIVE_ZERO
        _scale_parts(products, 1.0 / _periodogram_scale(cfg.taper, k))
        _smoothed(products, cfg.smoothing_length, sums=products, out=smoothed)
        with np.errstate(over="ignore"):  # a complex64 out's cast; the writer checks it
            for row, (a, n) in enumerate(zip(strip, lengths)):
                values[abs(a) // 2:, start + row][:n] = smoothed[row, :n]
    return matrix


def alpha_maxima(samples: np.ndarray, cfg: ScdConfig) -> np.ndarray:
    """Per-alpha maxima of |SCD| over the valid support of one window of K
    real samples, one per column of cfg's alpha_grid."""
    if np.iscomplexobj(samples):  # the estimator assumes X(-m) = conj X(m)
        raise ValueError("samples must be real, not complex")
    window = np.asarray(samples, dtype=np.float64)[None]
    if not np.isfinite(window).all():  # as SampleBuffer refuses them
        raise ValueError("samples must all be finite")
    return _maxima(window, cfg, _KernelBuffers(1, cfg))[0]
