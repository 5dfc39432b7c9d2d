"""Seedable generation of AM test signals, white Gaussian noise, and SNR mixtures.

Every generator is a pure function of its spec and seed, so identical inputs
reproduce identical buffers. Buffers are read-only and safe to share across
workers. The public SampleBuffer constructor copies its input; the generators
hand over the array they just allocated uncopied, through the same checks, and
cache per spec the carrier and message stop bin, which no seed changes.
"""

from __future__ import annotations

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
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.carrier_freq_hz <= 0:
            raise ValueError("carrier_freq_hz must be positive")
        if self.carrier_freq_hz >= self.sample_rate_hz / 2:
            raise ValueError(
                f"carrier {self.carrier_freq_hz} Hz violates the Nyquist limit "
                f"{self.sample_rate_hz / 2} Hz"
            )
        if not 0 < self.baseband_bandwidth_hz < self.carrier_freq_hz:
            raise ValueError("baseband_bandwidth_hz must lie in (0, carrier_freq_hz)")
        if int(self.duration_samples) < 1 or self.duration_samples != int(self.duration_samples):
            raise ValueError("duration_samples must be a positive integer")
        if self.modulation not in MODULATIONS:
            raise ValueError(f"unsupported modulation {self.modulation!r}")
        if not 0.0 <= self.modulation_index <= 1.0:
            raise ValueError("modulation_index must lie in [0, 1]")


@dataclass(frozen=True)
class SampleBuffer:
    """Real-valued time-domain samples with their sample rate, coerced to a
    read-only float64 copy so buffers can be shared without further copies."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=np.float64, copy=True)
        object.__setattr__(self, "samples", _owning_buffer(arr, self.sample_rate_hz).samples)

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def power(self) -> float:
        """Mean squared amplitude of the buffer."""
        return float(np.add.reduce(self.samples * self.samples) / self.samples.size)


def _owning_buffer(arr: np.ndarray, sample_rate_hz: float) -> SampleBuffer:
    """Buffer that takes over arr, a just-allocated float64 array, uncopied,
    after every check of the public constructor."""
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("samples must be a nonempty 1-D sequence")
    if not np.isfinite(arr).all():
        raise ValueError("samples must all be finite")
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    arr.setflags(write=False)
    buffer = object.__new__(SampleBuffer)
    vars(buffer).update(samples=arr, sample_rate_hz=sample_rate_hz)  # frozen: no __setattr__
    return buffer


@dataclass(frozen=True)
class NoiseSpec:
    """White Gaussian noise description: variance (power) and RNG seed."""

    variance: float
    seed: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ValueError("variance must be positive and finite")
        if self.seed != int(self.seed) or int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")


@lru_cache(maxsize=16)
def _am_tables(spec: SignalSpec) -> tuple[np.ndarray, int]:
    """The spec's carrier cos(2*pi*fc*k/fs) for k < n, read-only, and its first
    rfft bin above the message bandwidth."""
    n = int(spec.duration_samples)
    carrier = np.cos(2.0 * np.pi * spec.carrier_freq_hz / spec.sample_rate_hz * np.arange(n))
    carrier.setflags(write=False)
    freqs = np.fft.rfftfreq(n, d=1.0 / spec.sample_rate_hz)
    return carrier, int(np.searchsorted(freqs, spec.baseband_bandwidth_hz, side="right"))


def _bandlimited_message(n: int, stop_bin: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean Gaussian message brickwall-filtered to the rfft bins below
    stop_bin and normalized to unit peak. Returns zeros when no bin is in band."""
    spec = np.fft.rfft(rng.standard_normal(n))
    spec[stop_bin:] = 0.0
    spec[0] = 0.0
    message = np.fft.irfft(spec, n)
    peak = np.max(np.abs(message))
    if peak > 0.0:
        message /= peak
    return message


def generate_am(spec: SignalSpec, seed: int) -> SampleBuffer:
    """Generate an AM waveform (1 + index*m(t)) * cos(2*pi*fc*t).

    The message m(t) is band-limited Gaussian noise, peak-normalized so the
    deviation never exceeds the modulation index. With index 0 the output is
    exactly the unmodulated carrier cos(2*pi*fc*k/fs).
    """
    if seed != int(seed) or int(seed) < 0:
        raise ValueError("seed must be a nonnegative integer")
    n = int(spec.duration_samples)
    carrier, stop_bin = _am_tables(spec)
    wave = _bandlimited_message(n, stop_bin, np.random.default_rng(int(seed)))
    wave *= spec.modulation_index
    wave += 1.0
    wave *= carrier
    return _owning_buffer(wave, spec.sample_rate_hz)


def generate_awgn(length: int, noise: NoiseSpec, sample_rate_hz: float = 1.0) -> SampleBuffer:
    """Generate i.i.d. zero-mean Gaussian samples with the requested variance.

    White noise has no band structure of its own; pass the sample rate of the
    signal it will accompany (default 1.0 for standalone statistical use).
    """
    if length != int(length) or int(length) < 1:
        raise ValueError("length must be a positive integer")
    rng = np.random.default_rng(int(noise.seed))
    samples = rng.standard_normal(int(length))
    samples *= np.sqrt(noise.variance)
    return _owning_buffer(samples, sample_rate_hz)


def mix_at_snr(signal: SampleBuffer, noise: SampleBuffer, snr_db: float) -> SampleBuffer:
    """Return g*signal + noise with g chosen so the measured power ratio is snr_db.

    The SNR is defined over the full sampling bandwidth:
    10*log10(P(g*signal) / P(noise)) == snr_db with P the mean square.
    """
    if len(signal) != len(noise):
        raise ValueError("signal and noise must have equal length")
    if noise.sample_rate_hz != signal.sample_rate_hz:
        raise ValueError("signal and noise sample rates disagree")
    ratio = _power_ratio(snr_db)
    p_signal = signal.power
    p_noise = noise.power
    if p_signal <= 0.0:
        raise ValueError("signal has zero power")
    if p_noise <= 0.0:
        raise ValueError("noise has zero power")
    gain = np.sqrt(ratio * p_noise / p_signal)
    return _owning_buffer(gain * signal.samples + noise.samples, signal.sample_rate_hz)


def _power_ratio(snr_db: float) -> float:
    """10**(snr_db/10); ValueError for a non-finite snr_db or a float64 overflow."""
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    try:
        return 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db {snr_db} overflows the float64 power ratio") from None
