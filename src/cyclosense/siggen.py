"""Seedable generation of AM test signals, white Gaussian noise, and SNR mixtures.

Every generator is a pure function of its spec and its seed, a nonnegative
integer that seeds np.random.default_rng, so identical inputs reproduce
identical buffers. Buffers are read-only copies, safe to share across
workers. The carrier and message stop bin, which no seed changes, are cached
per spec and row length.

The AM and mix steps are row helpers that do arithmetic only, in place on
the last axis of a (rows, n) array, one window per row: the Monte Carlo
harness calls them on a few windows at a time, and generate_am and
mix_at_snr with one row. SampleBuffer, which every generator returns
through, checks the samples with _samples, the one checker of a sample vector
that the scd, gev and io modules use too; _integer and _real are the one
checkers of a whole number and of a real number in an interval, for every
module. Every operation is elementwise or runs along one row, so a row's
samples are the same bits whatever else shares its array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MODULATIONS = ("am",)

__all__ = [
    "MODULATIONS",
    "SignalSpec",
    "SampleBuffer",
    "NoiseSpec",
    "generate_am",
    "generate_awgn",
    "mix_at_snr",
]


@dataclass(frozen=True)
class SignalSpec:
    """Parameters of a modulated test signal.

    The modulation index is the peak deviation of the message envelope:
    the emitted waveform is (1 + index * m(t)) * cos(2*pi*fc*t) with
    max|m| = 1, so index <= 1 keeps the envelope nonnegative.
    """

    carrier_freq_hz: float
    baseband_bandwidth_hz: float
    sample_rate_hz: float
    duration_samples: int
    modulation: str = "am"
    modulation_index: float = 0.5

    def __post_init__(self) -> None:
        fs, fc, bw = (_real(name, getattr(self, name), 0.0)
                      for name in ("sample_rate_hz", "carrier_freq_hz", "baseband_bandwidth_hz"))
        if fc >= fs / 2:
            raise ValueError(f"carrier {self.carrier_freq_hz} Hz violates the Nyquist limit "
                             f"{fs / 2} Hz")
        if bw >= fc:
            raise ValueError("baseband_bandwidth_hz must lie in (0, carrier_freq_hz)")
        object.__setattr__(self, "duration_samples",
                           _integer("duration_samples", self.duration_samples, 1))
        if self.modulation not in MODULATIONS:
            raise ValueError(f"unsupported modulation {self.modulation!r}")
        _real("modulation_index", self.modulation_index, 0.0, 1.0, closed=True)


def _number(value) -> bool:
    """Whether value is an int or a float, Python's or numpy's, which True and
    False, read as 1 and 0 elsewhere, and strings are not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _integer(name: str, value, low: int | None = None) -> int:
    """value as an int; ValueError unless it is a whole number of at least
    low, or any whole number when low is None."""
    # value % 1 is nan for inf and nan
    if not (_number(value) and value % 1 == 0 and (low is None or value >= low)):
        bound = "" if low is None else f" of at least {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _real(name: str, value, low: float = -math.inf, high: float = math.inf,
          closed: bool = False) -> float:
    """value as a float; ValueError unless it is a number in (low, high), or in
    [low, high] when closed, which nan, the infinities and an int beyond the
    float range never are. Compared as float(value), so no bound is cast to a
    narrower numpy float."""
    try:
        x = float(value) if _number(value) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.nan
    if not (low <= x <= high if closed else low < x < high):
        interval = f"{'[' if closed else '('}{low:g}, {high:g}{']' if closed else ')'}"
        rule = {"(-inf, inf)": "finite", "(0, inf)": "positive and finite"}.get(interval)
        raise ValueError(f"{name} must be {rule or 'in ' + interval}, got {value!r}")
    return x


def _samples(values) -> np.ndarray:
    """values as a float64 array by np.asarray, so not copied when it already
    is one; ValueError unless it is real, finite, nonempty and 1-D."""
    if np.iscomplexobj(values):
        raise ValueError("samples must be real, not complex")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"samples must be a nonempty 1-D sequence, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("samples must all be finite")
    return arr


@dataclass(frozen=True)
class SampleBuffer:
    """Real-valued time-domain samples with their sample rate, coerced to a
    read-only float64 copy so buffers can be shared without further copies."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        arr = _samples(self.samples).copy()
        _real("sample_rate_hz", self.sample_rate_hz, 0.0)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def power(self) -> float:
        """Mean squared amplitude of the buffer."""
        return float(_powers(self.samples))


def _powers(rows: np.ndarray) -> np.ndarray:
    """Mean squared amplitude along the last axis."""
    return np.add.reduce(rows * rows, axis=-1) / rows.shape[-1]


@dataclass(frozen=True)
class NoiseSpec:
    """White Gaussian noise description: variance (power) and RNG seed, a
    nonnegative integer."""

    variance: float
    seed: int

    def __post_init__(self) -> None:
        _real("variance", self.variance, 0.0)
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))


@lru_cache(maxsize=16)
def _am_tables(spec: SignalSpec, n: int) -> tuple[np.ndarray, int]:
    """The spec's carrier cos(2*pi*fc*k/fs) for k < n, read-only, and the
    first bin of an n-point rfft above its message bandwidth; n, not the
    spec's duration, is the length of the rows they serve."""
    carrier = np.cos(2.0 * np.pi * spec.carrier_freq_hz / spec.sample_rate_hz * np.arange(n))
    carrier.setflags(write=False)
    freqs = np.fft.rfftfreq(n, d=1.0 / spec.sample_rate_hz)
    return carrier, int(np.searchsorted(freqs, spec.baseband_bandwidth_hz, side="right"))


def _am_rows(spec: SignalSpec, rows: np.ndarray, spectra: np.ndarray | None = None) -> np.ndarray:
    """Turn each row of standard normals in rows, a (rows, n) float64 array,
    into the spec's AM waveform of n samples in place. The message is the row
    brickwall-filtered to the rfft bins 1 .. stop_bin-1 and normalized to unit
    peak (it stays zero when no bin is in band); spectra, if given, is a
    (rows, n//2 + 1) complex128 array that receives the rows' rfft."""
    carrier, stop_bin = _am_tables(spec, rows.shape[-1])
    spectra = np.fft.rfft(rows, axis=-1, out=spectra)
    spectra[:, stop_bin:] = 0.0
    spectra[:, 0] = 0.0
    np.fft.irfft(spectra, rows.shape[-1], axis=-1, out=rows)
    # max |row| without an |rows| temporary; a zero row divides by 1, exactly
    peak = np.maximum(rows.max(axis=-1), -rows.min(axis=-1))
    rows /= np.where(peak > 0.0, peak, 1.0)[:, None]
    rows *= spec.modulation_index
    rows += 1.0
    rows *= carrier
    return rows


def _mix_rows(signal: np.ndarray, noise: np.ndarray, snr_db: float) -> np.ndarray:
    """Overwrite each row of signal with g*signal + noise, g chosen per row so
    that the row's measured power ratio is snr_db."""
    if signal.shape != noise.shape:
        raise ValueError("signal and noise must have equal length")
    ratio = _power_ratio(snr_db)
    p_signal = _powers(signal)
    p_noise = _powers(noise)
    if (p_signal <= 0.0).any():
        raise ValueError("signal has zero power")
    if (p_noise <= 0.0).any():
        raise ValueError("noise has zero power")
    signal *= np.sqrt(ratio * p_noise / p_signal)[:, None]
    signal += noise
    return signal


def generate_am(spec: SignalSpec, seed: int) -> SampleBuffer:
    """Generate an AM waveform (1 + index*m(t)) * cos(2*pi*fc*t).

    The message m(t) is band-limited Gaussian noise, peak-normalized so the
    deviation never exceeds the modulation index. With index 0 the output is
    exactly the unmodulated carrier cos(2*pi*fc*k/fs).
    """
    wave = np.random.default_rng(_integer("seed", seed, 0)).standard_normal(spec.duration_samples)
    _am_rows(spec, wave[None])
    return SampleBuffer(wave, spec.sample_rate_hz)


def generate_awgn(length: int, noise: NoiseSpec, sample_rate_hz: float = 1.0) -> SampleBuffer:
    """Generate i.i.d. zero-mean Gaussian samples with the requested variance.

    White noise has no band structure of its own; pass the sample rate of the
    signal it will accompany (default 1.0 for standalone statistical use).
    """
    samples = np.random.default_rng(noise.seed).standard_normal(_integer("length", length, 1))
    samples *= np.sqrt(noise.variance)
    return SampleBuffer(samples, sample_rate_hz)


def mix_at_snr(signal: SampleBuffer, noise: SampleBuffer, snr_db: float) -> SampleBuffer:
    """Return g*signal + noise with g chosen so the measured power ratio is snr_db.

    The SNR is defined over the full sampling bandwidth:
    10*log10(P(g*signal) / P(noise)) == snr_db with P the mean square.
    """
    if noise.sample_rate_hz != signal.sample_rate_hz:
        raise ValueError("signal and noise sample rates disagree")
    mixed = np.array(signal.samples)
    _mix_rows(mixed[None], noise.samples[None], snr_db)
    return SampleBuffer(mixed, signal.sample_rate_hz)


def _power_ratio(snr_db: float) -> float:
    """10**(snr_db/10); ValueError for a non-finite snr_db or a float64 overflow."""
    try:
        return 10.0 ** (_real("snr_db", snr_db) / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db {snr_db} overflows the float64 power ratio") from None
