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
the per-alpha maximum magnitude over valid cells. One kernel,
_smoothed_strips, computes the valid run of each column of a config's
alpha_grid, and of no other column, for a (rows, K) array of windows, one
per row, in work arrays a caller allocates once (_KernelBuffers), which also
hold the config they were built for, its taper and its scale: the kernel's
functions take those buffers and no config beside them. The taper writes to
those buffers too, so no kernel function writes its input, and one set of
windows can be reduced several ways without a copy. _maxima reduces each run
to its maximum magnitude: the Monte Carlo harness calls it on a few windows
at a time, and alpha_maxima with one row. estimate_scd stores each run into
its column of a row-major (K, n_alpha) array whose other cells are zero:
complex128 by default, or a caller's complex out array, such as the
complex64 one `cyclosense scd` writes to its file as it stands, into which
each store casts its run. So the maximum of |values| over a column's
valid_mask cells equals alpha_maxima bit for bit.

From the rows' rfft halves the kernel gathers only the span of the centered
spectrum and the span of its conjugate that the columns read, so it builds
the whole centered spectrum only for a grid with columns of both signs. It
computes the columns in strips of up to _STRIP, one strip row per column:
each row holds its column's product, and the cells past the column's end
hold -0.0 in both parts. One scale and one _smoothed call then serve the
whole strip. x + (-0.0) is x for every x, signed zeros included, so the
running sum past a column's end repeats its last value bit for bit and
every valid cell is the one-column smoother's (a +0.0 pad would turn a
-0.0 sum into +0.0). Every step is elementwise or runs along one row, so a
window's runs are the same bits whatever windows and columns share its
arrays.

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

from .siggen import SampleBuffer, _integer, _real, _samples

TAPERS = ("hamming", "rectangular")

# columns that the kernel smooths in one pass; a window's two (_STRIP, K)
# strip arrays fit in a core's L2 cache at the desk plan's K = 4,096
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
        k = _integer("window_length_k", self.window_length_k, 2)
        if k & (k - 1) != 0:
            raise ValueError(f"window_length_k must be a power of two, got {k}")
        object.__setattr__(self, "window_length_k", k)
        sm = _integer("smoothing_length", self.smoothing_length, 1) | 1  # odd coercion
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


def snap_alpha_to_even_bin(alpha_hz: float, sample_rate_hz: float, window_length_k: int) -> int:
    """Snap a cyclic frequency in Hz to the nearest even DFT-bin offset."""
    bins = (_real("alpha_hz", alpha_hz) * _integer("window_length_k", window_length_k, 1)
            / _real("sample_rate_hz", sample_rate_hz, 0.0))
    return 2 * int(round(_real("alpha_hz * window_length_k / sample_rate_hz", bins) / 2.0))


def _smoothed(column: np.ndarray, smoothing_length: int, sums: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Centered moving average along the last axis with fixed 1/smoothing_length
    normalization.

    Cells whose window is truncated by the ends of the column average in
    implicit zeros; renormalizing by the surviving cell count would make the
    cell variance position-dependent and bias a max statistic toward the
    edges. Window sums are differences of the column's running sum, which
    goes to sums (column itself to sum in place); out must not be sums.
    """
    np.cumsum(column, axis=-1, out=sums)
    n, lead = sums.shape[-1], smoothing_length // 2
    # cell j: sums[min(j + lead, n - 1)], minus sums[j - lead - 1] from j = lead + 1
    first_lower, last_inner = min(lead + 1, n), max(n - lead, 0)
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
    """Work arrays of the kernel for up to `rows` windows and the columns of
    cfg's alpha_grid, allocated once and reused by every call, and the
    columns' places in them, the tapered windows among them; cfg itself, its
    taper and its cyclic periodogram scale 1/(K*U)."""

    def __init__(self, rows: int, cfg: ScdConfig) -> None:
        k, grid = cfg.window_length_k, cfg.alpha_grid
        self.cfg = cfg
        self.taper = taper_coefficients(cfg.taper, k)
        self.scale = 1.0 / (k * float(np.mean(self.taper * self.taper)))
        # column a reads K - |a| bins of the centered spectrum from bin max(a, 0)
        # and of its conjugate from bin max(-a, 0); the spans start at the least
        self.firsts = first, conjugate_first = max(min(grid), 0), max(-max(grid), 0)
        span = k - first - conjugate_first  # no column is longer
        # per strip: its first column, its width and per column the offsets of
        # its bins in the two spans and its length
        self.strips = []
        for start in range(0, len(grid), _STRIP):
            columns = [(max(a, 0) - first, max(-a, 0) - conjugate_first, k - abs(a))
                       for a in grid[start:start + _STRIP]]
            self.strips.append((start, max(n for _, _, n in columns), columns))
        self.tapered = np.empty((rows, k))
        self.half = np.empty((rows, k // 2 + 1), dtype=np.complex128)
        self.spectrum, self.conjugate = np.empty((2, rows, span), dtype=np.complex128)
        self.products, self.smoothed = np.empty((2, rows, min(_STRIP, len(grid)), span),
                                                dtype=np.complex128)
        self.magnitudes = np.empty((rows, span))


def _half_spectra(windows: np.ndarray, work: _KernelBuffers) -> np.ndarray:
    """Real FFT, bins 0 .. K/2, of each row of windows tapered into work's
    tapered buffer (windows are only read), into work's half buffer."""
    k, rows = work.cfg.window_length_k, len(windows)
    if windows.ndim != 2 or windows.shape[1] != k:
        raise ValueError(f"window length {windows.shape[-1]} does not match K={k}")
    tapered = np.multiply(windows, work.taper, out=work.tapered[:rows])
    return np.fft.rfft(tapered, axis=-1, out=work.half[:rows])


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


def _smoothed_strips(half: np.ndarray, work: _KernelBuffers):
    """Smoothed cyclic periodogram of the window whose rfft half is each row
    of half, _STRIP columns of work's alpha_grid at a time (see the module
    docstring): yields each strip's first column index and its columns'
    (rows, K - |a|) valid runs, views into work until the next strip."""
    k, rows = work.cfg.window_length_k, len(half)
    first, conjugate_first = work.firsts
    spectrum = _centered_bins(half, first - k // 2, work.spectrum[:rows])
    conjugate = _centered_bins(half, conjugate_first - k // 2, work.conjugate[:rows],
                               conjugate=True)
    for start, width, columns in work.strips:
        products = work.products[:rows, :len(columns), :width]
        for row, (upper, lower, n) in enumerate(columns):
            # written through out=: see the module docstring
            np.multiply(spectrum[:, upper:upper + n], conjugate[:, lower:lower + n],
                        out=products[:, row, :n])
            if n < width:
                products[:, row, n:] = _NEGATIVE_ZERO
        _scale_parts(products, work.scale)
        smoothed = _smoothed(products, work.cfg.smoothing_length, sums=products,
                             out=work.smoothed[:rows, :len(columns), :width])
        yield start, [smoothed[:, row, :n] for row, (_, _, n) in enumerate(columns)]


def _maxima(windows: np.ndarray, work: _KernelBuffers) -> np.ndarray:
    """(rows, len(work.cfg.alpha_grid)) maxima of |SCD| over each column's
    valid cells for each row of windows, which it only reads."""
    rows = len(windows)
    half = _half_spectra(windows, work)
    maxima = np.empty((rows, len(work.cfg.alpha_grid)))
    for start, runs in _smoothed_strips(half, work):
        for j, run in enumerate(runs, start):
            magnitudes = np.abs(run, out=work.magnitudes[:rows, :run.shape[1]])
            np.max(magnitudes, axis=-1, out=maxima[:, j])
    return maxima


def estimate_scd(window: SampleBuffer, cfg: ScdConfig,
                 out: np.ndarray | None = None) -> ScdMatrix:
    """Frequency-smoothed cyclic periodogram of one analysis window, each
    column's valid run computed by the kernel (see the module docstring).

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
    values[...] = 0  # in one pass: the kernel yields only the valid runs
    work = _KernelBuffers(1, cfg)
    half = _half_spectra(window.samples[None], work)
    for start, runs in _smoothed_strips(half, work):
        with np.errstate(over="ignore"):  # a complex64 out's cast; the writer checks it
            for j, run in enumerate(runs, start):
                values[abs(grid[j]) // 2:, j][:run.shape[1]] = run[0]
    return matrix


def alpha_maxima(samples: np.ndarray, cfg: ScdConfig) -> np.ndarray:
    """Per-alpha maxima of |SCD| over the valid support of one window of K
    samples, one per column of cfg's alpha_grid. The samples pass the checks
    SampleBuffer makes (real, finite, nonempty and 1-D) and are not copied."""
    return _maxima(_samples(samples)[None], _KernelBuffers(1, cfg))[0]
