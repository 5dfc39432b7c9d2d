"""Monte Carlo experiment engine.

Collects cyclic-domain noise maxima, measures the fitted noise model's
Kolmogorov-Smirnov distance, and sweeps preset false-alarm probabilities into
paired theoretical/empirical ROC curves. It also builds the signal and the
mixed window that the gen and scd commands export.

Every analysis window is generated from a seed derived deterministically from
(master_seed, stream, indices...), so results are a pure function of the plan
and independent of worker count or scheduling: _run(tasks, jobs) maps a
command's windows on at most one process per CPU. Each task is a block of
consecutive window indices of one batch, (plan, kind, snr_index, batch, start,
stop), at most BLOCK_WINDOWS long. Its windows come from one source,
_window_rows. It derives all the block's seeds, and the PCG64 state words
default_rng would hash from each of them, in one vectorized port of numpy's
SeedSequence hash; derived_seed stays the scalar reference. It then yields the
windows in sub-blocks of ROWS consecutive windows: each window draws its
normals from its own generator into its own row of a (ROWS, K) array, and a
noise row is its unit-variance draws as they stand; an H1 window is its signal
row made the plan's AM waveform (its tables take the rows' length, its rfft a
buffer of its own), then mixed with its noise row by the siggen row helpers.
_block_task reduces each sub-block through scd._maxima (taper, FFT, cyclic
product, smoother, max), on a one-column feature config and work arrays built
once per block, and checks only that each statistic is finite. The kernel
only reads the windows, so another reduction can run over the same ones. Each
row's arithmetic is that of the window alone, so no statistic depends on ROWS,
BLOCK_WINDOWS or jobs. run_windows runs a plan's noise-fit, H0 and H1 windows
in one _run call, so roc finds an unconverged fit only after the last window;
run_roc runs the H0 and H1 ones alone, which exceedances counts in any order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .gev import FitReport, GevParams, cdf, threshold_for_pf
from .scd import ScdConfig, _KernelBuffers, _maxima, snap_alpha_to_even_bin
from .siggen import (NoiseSpec, SampleBuffer, SignalSpec, _am_rows, _integer, _mix_rows,
                     _power_ratio, _real, _samples, generate_am, generate_awgn, mix_at_snr)

__all__ = [
    "ExperimentPlan",
    "RocCurve",
    "WindowRecord",
    "desk_plan",
    "full_plan",
    "derived_seed",
    "export_signal",
    "export_window",
    "collect_noise_profile",
    "ks_statistic",
    "run_windows",
    "exceedances",
    "run_roc",
]

# seed-derivation stream tags
STREAM_NOISE_FIT = 0
STREAM_H0_TRIAL = 1
STREAM_H1_TRIAL = 2
STREAM_EXPORT_SIGNAL = 3
STREAM_EXPORT_NOISE = 4

# H0/H1 windows carry unit-variance noise; SNR is set by scaling the signal
NOISE_VARIANCE = 1.0

# windows per runner task: a constant, so that no statistic depends on jobs
BLOCK_WINDOWS = 256
# windows per row-helper call inside a block; pocketfft transforms rows in
# one call at about half the per-row cost, while more rows grow the buffers
ROWS = 4

# numpy.random.SeedSequence's hash constants (pool size 4, 32-bit words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class ExperimentPlan:
    """Fully resolved experiment description.

    noise_windows_l windows feed the noise-model fit, a fresh batch of the
    same size measures empirical false alarms, and signal_windows_m
    signal-plus-noise trials per batch measure detection probability. The
    feature column must hold at least smoothing_length valid cells.
    """

    signal_spec: SignalSpec
    scd_cfg: ScdConfig
    noise_windows_l: int
    signal_windows_m: int
    snr_db_list: tuple[float, ...]
    pf_grid: tuple[float, ...]
    master_seed: int

    def __post_init__(self) -> None:
        for name, low in (("noise_windows_l", 100), ("signal_windows_m", 100), ("master_seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        grid = tuple(_real("pf_grid entry", p, 0.0, 1.0) for p in self.pf_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("pf_grid must be nonempty and strictly increasing")
        object.__setattr__(self, "pf_grid", grid)
        snrs = tuple(_real("snr_db_list entry", s) for s in self.snr_db_list)
        if not snrs:
            raise ValueError("snr_db_list must not be empty")
        _power_ratio(max(snrs))  # raises if the largest SNR's power ratio overflows
        object.__setattr__(self, "snr_db_list", snrs)
        if max(self.noise_windows_l, self.signal_windows_m) > 2**32:
            raise ValueError("window counts above 2**32 exceed the seed fan-out's 32-bit index")
        k = self.scd_cfg.window_length_k
        if self.signal_spec.duration_samples < 2 * k:
            raise ValueError(
                f"signal duration {self.signal_spec.duration_samples} must cover at "
                f"least two analysis windows of {k} samples"
            )
        support, length = k - abs(self.alpha0_bin), self.scd_cfg.smoothing_length
        if support < length:
            raise ValueError(f"cyclic feature bin {self.alpha0_bin} leaves {support} valid "
                             f"cells, fewer than the smoothing length {length}")

    @property
    def alpha0_bin(self) -> int:
        """Feature cyclic frequency 2*fc snapped to the even-bin grid."""
        return snap_alpha_to_even_bin(
            2.0 * self.signal_spec.carrier_freq_hz,
            self.signal_spec.sample_rate_hz,
            self.scd_cfg.window_length_k,
        )


@dataclass(frozen=True)
class RocCurve:
    """Ordered (pf, pd) operating points at one SNR."""

    points: tuple[tuple[float, float], ...]
    snr_db: float

    def __post_init__(self) -> None:
        _real("snr_db", self.snr_db)
        pfs = [_real("pf", pf, 0.0, 1.0, closed=True) for pf, _ in self.points]
        for _, pd in self.points:
            _real("pd", pd, 0.0, 1.0, closed=True)
        if any(b < a for a, b in zip(pfs, pfs[1:])):
            raise ValueError("pf coordinates must be ascending")


def derived_seed(master_seed: int, *tags: int) -> int:
    """Counter-scheme seed fan-out: one 64-bit seed per (stream, index...) tag."""
    seq = np.random.SeedSequence([int(master_seed), *[int(t) for t in tags]])
    return int(seq.generate_state(1, np.uint64)[0])


@lru_cache(maxsize=None)
def _hash_constants(start: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiply) uint32 columns of count successive SeedSequence hashes."""
    chain = [start]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    column = np.array(chain, np.uint32)[:, None]
    return column[:-1], column[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult  # uint32 arithmetic wraps mod 2**32
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    result ^= result >> 16
    return result


def _seed_sequence_states(words: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(n_words, np.uint64) for every column
    of words, a (len(entropy), N) uint32 array of entropy words: a port of
    numpy's pool-4 hash. Returns an (N, n_words) uint64 array."""
    count = len(words)
    xor, mult = _hash_constants(_INIT_A, _MULT_A, 4 + 12 + 4 * max(0, count - 4))
    pool = np.zeros((4, words.shape[1]), np.uint32)  # absent words hash as 0
    pool[:count] = words[:4]
    pool = _hashmix(pool, xor[:4], mult[:4])
    step = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[step:step + 3], mult[step:step + 3]))
        step += 3
    for word in words[4:]:
        pool = _mix(pool, _hashmix(word, xor[step:step + 4], mult[step:step + 4]))
        step += 4
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 2 * n_words)
    out = _hashmix(pool[np.arange(2 * n_words) % 4], xor, mult).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)  # low word first


def _derived_seeds(master_seed: int, *tags) -> np.ndarray:
    """derived_seed(master_seed, *tags) for every element of the broadcast
    tags, ints or integer arrays with values below 2**32, as uint64."""
    words = []
    for tag in (master_seed, *tags):
        if isinstance(tag, np.ndarray):
            words.append(tag)
        else:  # an int entropy is its 32-bit words, low word first
            value = int(tag)
            words.append(value & _MASK32)
            while value := value >> 32:
                words.append(value & _MASK32)
    columns = np.array(np.broadcast_arrays(*words), np.uint32)
    return _seed_sequence_states(columns.reshape(len(words), -1), 1).reshape(columns.shape[1:])


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64), the PCG64 state words
    of default_rng(seed), for every seed: a last axis of 4 is added."""
    flat = seeds.reshape(-1)
    # a seed below 2**32 is one entropy word; its absent high word hashes as 0
    words = np.array([flat & _MASK32, flat >> 32], np.uint32)
    return _seed_sequence_states(words, 4).reshape(*seeds.shape, 4)


@lru_cache(maxsize=None)
def _state_words() -> type:
    """ISeedSequence that hands PCG64 precomputed state words. Built on first
    use, so that importing cyclosense does not import numpy.random."""

    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for its 4 uint64 words

    return StateWords


def _generator(words: np.ndarray) -> np.random.Generator:
    """The Generator default_rng returns for the seed these state words came from."""
    return np.random.Generator(np.random.PCG64(_state_words()(words)))


def export_signal(plan: ExperimentPlan) -> tuple[SampleBuffer, int]:
    """The plan's full-length AM signal and the seed it was drawn from."""
    seed = derived_seed(plan.master_seed, STREAM_EXPORT_SIGNAL)
    return generate_am(plan.signal_spec, seed), seed


def export_window(plan: ExperimentPlan) -> SampleBuffer:
    """First analysis window of the full-length export signal mixed with
    export noise at the plan's first SNR."""
    spec = plan.signal_spec
    noise_seed = derived_seed(plan.master_seed, STREAM_EXPORT_NOISE)
    noise = generate_awgn(spec.duration_samples, NoiseSpec(NOISE_VARIANCE, noise_seed),
                          spec.sample_rate_hz)
    mixed = mix_at_snr(export_signal(plan)[0], noise, plan.snr_db_list[0])
    return SampleBuffer(mixed.samples[:plan.scd_cfg.window_length_k], mixed.sample_rate_hz)


def _window_rows(plan: ExperimentPlan, kind: str, snr_index: int, batch: int, start: int,
                 stop: int):
    """Windows start .. stop-1 of one batch as (first, windows) per sub-block:
    windows start + first on, each the samples it has alone, an (n, K) view
    that the next step overwrites."""
    indices = np.arange(start, stop, dtype=np.uint64)
    if kind == "noise":
        stream = STREAM_NOISE_FIT if batch == 0 else STREAM_H0_TRIAL
        states = _pcg64_states(_derived_seeds(plan.master_seed, stream, indices))[:, None]
    elif kind == "h1":
        # per window: the signal seed's words, then the noise seed's
        states = _pcg64_states(_derived_seeds(plan.master_seed, STREAM_H1_TRIAL, snr_index,
                                              batch, indices[:, None], np.arange(2)))
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    count, draws = states.shape[:2]  # per window: (noise,) or (signal, noise) draws
    rows, k = min(ROWS, count), plan.scd_cfg.window_length_k
    normals = np.empty((draws, rows, k))
    spectra = np.empty((rows, k // 2 + 1), np.complex128) if kind == "h1" else None  # AM's rfft
    for first in range(0, count, ROWS):
        sub = states[first:first + ROWS].swapaxes(0, 1)  # (draw, window, word)
        n = sub.shape[1]
        for draw, draw_states in zip(normals, sub):
            for row, words in zip(draw, draw_states):
                _generator(words).standard_normal(row.size, out=row)
        windows = normals[-1, :n]  # NOISE_VARIANCE is 1: the draws are the noise
        if kind == "h1":
            signal = _am_rows(plan.signal_spec, normals[0, :n], spectra[:n])
            windows = _mix_rows(signal, windows, plan.snr_db_list[snr_index])
        yield first, windows


def _block_task(args: tuple) -> np.ndarray:
    """Statistics of windows start .. stop-1 of one batch, each the value its
    window has alone; top-level so process pools can pickle it."""
    plan, kind, snr_index, batch, start, stop = args
    cfg = replace(plan.scd_cfg, alpha_grid=(plan.alpha0_bin,))
    work = _KernelBuffers(min(ROWS, stop - start), cfg)
    statistics = np.empty(stop - start)
    for first, windows in _window_rows(plan, kind, snr_index, batch, start, stop):
        statistics[first:first + len(windows)] = _maxima(windows, work)[:, 0]
    bad = statistics[~np.isfinite(statistics)]
    if bad.size:  # a nan would silently count as unoccupied
        snr = f" at {plan.snr_db_list[snr_index]:g} dB" if kind == "h1" else ""
        raise ValueError(f"{kind} window statistic{snr} is {bad[0]}, not finite")
    return statistics


def _statistic_task(args: tuple) -> float:
    """One window's detection statistic: a block of one window."""
    plan, kind, snr_index, batch, index = args
    return float(_block_task((plan, kind, snr_index, batch, index, index + 1))[0])


def _blocks(plan: ExperimentPlan, kind: str, snr_index: int, batch: int, count: int) -> list:
    """Tasks covering windows 0 .. count-1 of one batch, BLOCK_WINDOWS at a time."""
    return [(plan, kind, snr_index, batch, start, min(start + BLOCK_WINDOWS, count))
            for start in range(0, count, BLOCK_WINDOWS)]


def _run(tasks: list[tuple], jobs: int) -> np.ndarray:
    """Statistics of all blocks from _blocks in task order: mapped on a pool of
    min(jobs, CPUs this process may run on) worker processes that lives for
    this one call, or in this process when that is 1."""
    jobs = _integer("jobs", jobs, 1)
    # the pool forks all its workers at once; os.cpu_count() ignores CPU affinity
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(jobs, cpus or 1)
    if jobs == 1:
        return np.concatenate([_block_task(t) for t in tasks])
    from concurrent.futures import ProcessPoolExecutor  # not loaded by every import
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return np.concatenate(list(pool.map(_block_task, tasks)))


def collect_noise_profile(plan: ExperimentPlan, jobs: int = 1) -> np.ndarray:
    """Alpha-profile noise maxima at the feature bin for L disjoint windows."""
    return _run(_blocks(plan, "noise", 0, 0, plan.noise_windows_l), jobs)


def ks_statistic(samples, params: GevParams) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the fitted CDF."""
    x = np.sort(_samples(samples))
    n = x.size
    model = cdf(x, params)
    steps = np.arange(n + 1) / n  # the ECDF's levels, i/n
    upper = np.max(steps[1:] - model)
    lower = np.max(model - steps[:-1])
    return float(max(upper, lower))


@dataclass(frozen=True)
class WindowRecord:
    """Statistics of every window of a plan: the noise-fit and H0 batches (L,)
    and H1 (snrs, 2, M), per SNR the theoretical then the empirical curve's."""

    fit: np.ndarray
    h0: np.ndarray
    h1: np.ndarray


def _batches(plan: ExperimentPlan, jobs: int, noise: tuple) -> list[np.ndarray]:
    """Read-only statistics of the plan's noise batches (L,), 0 the noise-fit
    and 1 the H0 one, then of its H1 batches (snrs, 2, M), from one _run call."""
    n, m, snrs = plan.noise_windows_l, plan.signal_windows_m, len(plan.snr_db_list)
    tasks = [task for batch in noise for task in _blocks(plan, "noise", 0, batch, n)]
    statistics = _run(tasks + [task for s in range(snrs) for batch in (0, 1)
                               for task in _blocks(plan, "h1", s, batch, m)], jobs)
    statistics.setflags(write=False)
    *noise_batches, h1 = np.split(statistics, [n, 2 * n][:len(noise)])
    return [*noise_batches, h1.reshape(snrs, 2, m)]


def run_windows(plan: ExperimentPlan, jobs: int = 1) -> WindowRecord:
    """All windows of the plan in one _run call on jobs workers, so no batch waits for the last."""
    return WindowRecord(*_batches(plan, jobs, (0, 1)))


def exceedances(h0, h1, params: GevParams, pf_grid) -> tuple[np.ndarray, ...]:
    """Thresholds (P,) at the preset pfs under params, and the counts of H0 (L,)
    and H1 (..., M) statistics above each, (P,) and (..., P): a tie is unoccupied."""
    thresholds = np.array([threshold_for_pf(pf, params) for pf in pf_grid])
    h0, h1 = (np.count_nonzero(batch[..., None] > thresholds, axis=-2) for batch in (h0, h1))
    return thresholds, h0, h1


def run_roc(plan: ExperimentPlan, noise_fit: FitReport,
            jobs: int = 1) -> list[tuple[RocCurve, RocCurve]]:
    """Sweep the preset-pf grid into one (theoretical, empirical) curve pair per SNR.

    Protocol per grid point: the threshold comes from the closed-form
    quantile of noise_fit, the model the caller fitted to the plan's noise
    maxima; the theoretical curve pairs the preset pf with a measured
    detection rate, while the empirical curve pairs a measured false-alarm
    rate (fresh noise windows) with a detection rate measured on an
    independent signal batch at the same threshold, each the exceedances
    count of its batch over the batch size. Only the H0 and H1 windows run,
    on jobs worker processes, at most one per CPU, or in this process for jobs=1.
    """
    _, h0, h1 = exceedances(*_batches(plan, jobs, (1,)), noise_fit.params, plan.pf_grid)
    pf_empirical, pd = (h0 / plan.noise_windows_l).tolist(), (h1 / plan.signal_windows_m).tolist()
    return [(RocCurve(tuple(zip(plan.pf_grid, pd_theory)), snr_db),
             RocCurve(tuple(zip(pf_empirical, pd_empirical)), snr_db))
            for snr_db, (pd_theory, pd_empirical) in zip(plan.snr_db_list, pd)]


def desk_plan(master_seed: int = 42) -> ExperimentPlan:
    """Laptop-scale default: 1000 noise windows and 1000 trials per point."""
    return ExperimentPlan(
        signal_spec=SignalSpec(
            carrier_freq_hz=1.0e6,
            baseband_bandwidth_hz=1.0e4,
            sample_rate_hz=3.0e6,
            duration_samples=8192,
            modulation="am",
            modulation_index=0.5,
        ),
        scd_cfg=ScdConfig(
            window_length_k=4096,
            smoothing_length=1300,
            alpha_grid=(snap_alpha_to_even_bin(2.0e6, 3.0e6, 4096),),
            taper="hamming",
        ),
        noise_windows_l=1000,
        signal_windows_m=1000,
        snr_db_list=(-15.0, -10.0, -5.0, 0.0),
        pf_grid=(0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5),
        master_seed=master_seed,
    )


def full_plan(master_seed: int = 42) -> ExperimentPlan:
    """Full-scale preset: 10000 noise windows for the model fit."""
    return replace(desk_plan(master_seed), noise_windows_l=10000)
