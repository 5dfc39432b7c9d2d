"""Spectral correlation density estimation by the frequency-smoothing method.

One analysis window of K real samples is tapered and transformed; the cyclic
periodogram

    I_a(f) = X(f + a/2) * conj(X(f - a/2)) / (K * U)

is formed on a grid of even DFT-bin offsets a (the cyclic frequencies) and
smoothed along f with a moving average of length L, computed as differences
of a zero-padded running sum (fixed 1/L normalization, implicit zeros past
the column ends). U is the mean squared taper coefficient, which keeps the
noise level taper-invariant. Frequencies are indexed on the centered axis,
bins -K/2 .. K/2-1. For real input X(-m) = conj X(m), so the centered
spectrum is built from one real FFT: its upper half is rfft bins 0 .. K/2-1
and its lower half their conjugate mirror, rfft bins K/2 .. 1. A cell is
valid only when both f + a/2 and f - a/2 fall inside the K-bin axis, so no
wraparound ever mixes unrelated frequencies.

The alpha profile reduces the (f, alpha) plane to the alpha axis by taking
the per-alpha maximum magnitude over valid cells. alpha_maxima, the
per-window statistic kernel, computes it from the requested columns without
building the matrix; estimate_scd builds the matrix from the same spectrum
and column helpers, so the maximum of |values| over a column's valid_mask
cells equals alpha_maxima bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .siggen import SampleBuffer

TAPERS = ("hamming", "rectangular")

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
        k = int(self.window_length_k)
        if k < 2 or (k & (k - 1)) != 0:
            raise ValueError("window_length_k must be a power of two >= 2")
        object.__setattr__(self, "window_length_k", k)
        sm = int(self.smoothing_length)
        if sm < 1:
            raise ValueError("smoothing_length must be positive")
        sm |= 1  # odd coercion
        if sm >= k:
            raise ValueError("smoothing_length must be smaller than the window")
        object.__setattr__(self, "smoothing_length", sm)
        if self.taper not in TAPERS:
            raise ValueError(f"unknown taper {self.taper!r}")
        grid = tuple(int(a) for a in self.alpha_grid)
        if not grid:
            raise ValueError("alpha_grid must not be empty")
        if len(set(grid)) != len(grid):
            raise ValueError("alpha_grid entries must be unique")
        for a in grid:
            _check_alpha_bin(a, k)
        object.__setattr__(self, "alpha_grid", grid)


@dataclass(frozen=True)
class ScdMatrix:
    """Complex SCD estimate on a (f bin, alpha bin) grid.

    values has shape (K, n_alpha), one column per bin of the config it was
    estimated with; f_axis_hz is the centered frequency axis and alpha_axis_hz
    the cyclic frequency of each column. valid_mask marks cells whose bin pair
    lies fully inside the K-bin axis.
    """

    values: np.ndarray
    f_axis_hz: np.ndarray
    alpha_axis_hz: np.ndarray
    config: ScdConfig
    valid_mask: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.valid_mask.shape:
            raise ValueError("values and valid_mask shapes disagree")
        if self.values.shape != (self.f_axis_hz.size, self.alpha_axis_hz.size):
            raise ValueError("axis lengths do not match the value grid")
        if len(self.config.alpha_grid) != self.alpha_axis_hz.size:
            raise ValueError("config.alpha_grid length does not match the alpha axis")


def _check_alpha_bin(a: int, k: int) -> None:
    if a % 2 != 0 or abs(a) >= k:
        raise ValueError(f"alpha bin offset {a} is not an even offset with |a| < {k}")


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


def _smoothed(column: np.ndarray, smoothing_length: int) -> np.ndarray:
    """Centered moving average with fixed 1/smoothing_length normalization.

    Cells whose window is truncated by the ends of the column average in
    implicit zeros; renormalizing by the surviving cell count would make the
    cell variance position-dependent and bias a max statistic toward the
    edges. Window sums are differences of one zero-padded running sum.
    """
    n = column.size
    lead = smoothing_length // 2
    sums = np.zeros(n + smoothing_length, dtype=column.dtype)
    np.cumsum(column, out=sums[lead + 1:lead + 1 + n])
    sums[lead + 1 + n:] = sums[lead + n]
    return (sums[smoothing_length:] - sums[:n]) / smoothing_length


def _spectrum(samples: np.ndarray, cfg: ScdConfig) -> np.ndarray:
    """Centered spectrum, bins -K/2 .. K/2-1, of one tapered real window of
    K samples, mirrored from its real FFT through X(-m) = conj X(m)."""
    k = cfg.window_length_k
    if samples.shape != (k,):
        raise ValueError(f"window length {samples.size} does not match K={k}")
    half = np.fft.rfft(taper_coefficients(cfg.taper, k) * samples)
    spectrum = np.empty(k, dtype=np.complex128)
    spectrum[k // 2:] = half[:k // 2]
    np.conjugate(half[k // 2:0:-1], out=spectrum[:k // 2])
    return spectrum


def _smoothed_column(spectrum: np.ndarray, a: int, cfg: ScdConfig) -> np.ndarray:
    """Smoothed cyclic periodogram at even offset a over its valid run of
    centered bins [|a|/2, K-1-|a|/2]."""
    half = a // 2
    lo, hi = abs(half), spectrum.size - 1 - abs(half)
    raw = spectrum[lo + half:hi + half + 1] * np.conj(spectrum[lo - half:hi - half + 1])
    return _smoothed(raw / _periodogram_scale(cfg.taper, spectrum.size), cfg.smoothing_length)


def estimate_scd(window: SampleBuffer, cfg: ScdConfig) -> ScdMatrix:
    """Frequency-smoothed cyclic periodogram of one analysis window."""
    k = cfg.window_length_k
    spectrum = _spectrum(window.samples, cfg)
    values = np.zeros((k, len(cfg.alpha_grid)), dtype=np.complex128)
    mask = np.zeros(values.shape, dtype=bool)
    for col, a in enumerate(cfg.alpha_grid):
        lo = abs(a) // 2
        values[lo:k - lo, col] = _smoothed_column(spectrum, a, cfg)
        mask[lo:k - lo, col] = True

    fs = window.sample_rate_hz
    f_axis = (np.arange(k) - k // 2) * fs / k
    alpha_axis = np.array(cfg.alpha_grid, dtype=np.float64) * fs / k
    return ScdMatrix(values, f_axis, alpha_axis, cfg, mask)


def alpha_maxima(samples: np.ndarray, cfg: ScdConfig, alpha_bins) -> np.ndarray:
    """Per-alpha maxima of |SCD| over the valid support of one window, at
    alpha_bins instead of cfg's grid."""
    for a in alpha_bins:
        _check_alpha_bin(a, cfg.window_length_k)
    spectrum = _spectrum(np.asarray(samples, dtype=np.float64), cfg)
    return np.array([np.max(np.abs(_smoothed_column(spectrum, a, cfg))) for a in alpha_bins])
