"""Monte Carlo experiment engine.

Collects cyclic-domain noise maxima, measures the fitted noise model's
Kolmogorov-Smirnov distance, and sweeps preset false-alarm probabilities into
paired theoretical/empirical ROC curves. It also builds the signal and the
mixed window that the gen and scd commands export.

Every analysis window is generated from a seed derived deterministically
from (master_seed, stream, indices...), so results are a pure function of
the plan and independent of worker count or scheduling: worker_pool(jobs)
yields the one runner of a command's windows. Aggregation uses only
order-independent counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .detector import statistic_at_alpha0
from .gev import FitReport, GevParams, cdf, fit_gev_mle, threshold_for_pf
from .scd import ScdConfig, snap_alpha_to_even_bin
from .siggen import (NoiseSpec, SampleBuffer, SignalSpec, _power_ratio, generate_am,
                     generate_awgn, mix_at_snr)

__all__ = [
    "ExperimentPlan",
    "RocCurve",
    "desk_plan",
    "full_plan",
    "derived_seed",
    "export_signal",
    "export_window",
    "worker_pool",
    "collect_noise_profile",
    "ks_statistic",
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
            value = getattr(self, name)
            if value % 1 != 0 or value < low:  # value % 1 is nan for inf and nan
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
            object.__setattr__(self, name, int(value))
        grid = tuple(float(p) for p in self.pf_grid)
        if not grid or any(not 0.0 < p < 1.0 for p in grid):
            raise ValueError("pf_grid entries must lie strictly between 0 and 1")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("pf_grid must be strictly increasing")
        object.__setattr__(self, "pf_grid", grid)
        snrs = tuple(float(s) for s in self.snr_db_list)
        if not snrs:
            raise ValueError("snr_db_list must not be empty")
        for snr_db in snrs:
            _power_ratio(snr_db)  # raises for a non-finite or overflowing SNR
        object.__setattr__(self, "snr_db_list", snrs)
        k = self.scd_cfg.window_length_k
        if self.signal_spec.duration_samples < 2 * k:
            raise ValueError(
                f"signal duration {self.signal_spec.duration_samples} must cover at "
                f"least two analysis windows of {k} samples"
            )
        # one analysis window's spec, built once rather than once per window
        object.__setattr__(self, "_window_spec", replace(self.signal_spec, duration_samples=k))
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
        pfs = [p for p, _ in self.points]
        if any(b < a for a, b in zip(pfs, pfs[1:])):
            raise ValueError("pf coordinates must be ascending")
        if any(not (0.0 <= pd <= 1.0 and 0.0 <= pf <= 1.0) for pf, pd in self.points):
            raise ValueError("probabilities must lie in [0, 1]")


def derived_seed(master_seed: int, *tags: int) -> int:
    """Counter-scheme seed fan-out: one 64-bit seed per (stream, index...) tag."""
    seq = np.random.SeedSequence([int(master_seed), *[int(t) for t in tags]])
    return int(seq.generate_state(1, np.uint64)[0])


def _noise(spec: SignalSpec, seed: int) -> SampleBuffer:
    return generate_awgn(spec.duration_samples, NoiseSpec(NOISE_VARIANCE, seed),
                         spec.sample_rate_hz)


def _mixture(spec: SignalSpec, signal_seed: int, noise_seed: int, snr_db: float) -> SampleBuffer:
    """The spec's AM signal plus unit-variance noise at snr_db."""
    return mix_at_snr(generate_am(spec, signal_seed), _noise(spec, noise_seed), snr_db)


def export_signal(plan: ExperimentPlan) -> tuple[SampleBuffer, int]:
    """The plan's full-length AM signal and the seed it was drawn from."""
    seed = derived_seed(plan.master_seed, STREAM_EXPORT_SIGNAL)
    return generate_am(plan.signal_spec, seed), seed


def export_window(plan: ExperimentPlan) -> SampleBuffer:
    """First analysis window of the full-length export signal mixed with
    export noise at the plan's first SNR."""
    mixed = _mixture(plan.signal_spec, derived_seed(plan.master_seed, STREAM_EXPORT_SIGNAL),
                     derived_seed(plan.master_seed, STREAM_EXPORT_NOISE), plan.snr_db_list[0])
    return SampleBuffer(mixed.samples[:plan.scd_cfg.window_length_k], mixed.sample_rate_hz)


def _statistic_task(args: tuple) -> float:
    """One window's detection statistic; top-level so process pools can pickle it."""
    plan, kind, snr_index, batch, index = args
    spec = plan._window_spec
    if kind == "noise":
        stream = STREAM_NOISE_FIT if batch == 0 else STREAM_H0_TRIAL
        window = _noise(spec, derived_seed(plan.master_seed, stream, index))
    elif kind == "h1":
        tags = (plan.master_seed, STREAM_H1_TRIAL, snr_index, batch, index)
        window = _mixture(spec, derived_seed(*tags, 0), derived_seed(*tags, 1),
                          plan.snr_db_list[snr_index])
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    statistic = statistic_at_alpha0(window, plan.scd_cfg, plan.alpha0_bin)
    if not math.isfinite(statistic):  # a nan would silently count as unoccupied
        snr = f" at {plan.snr_db_list[snr_index]:g} dB" if kind == "h1" else ""
        raise ValueError(f"{kind} window statistic{snr} is {statistic}, not finite")
    return statistic


def _in_process(tasks: list[tuple]) -> np.ndarray:
    return np.array([_statistic_task(t) for t in tasks])


@contextmanager
def worker_pool(jobs: int):
    """Context yielding run(tasks) -> statistics, the runner of a command's
    windows: in this process for jobs == 1, otherwise on one pool of `jobs`
    worker processes."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs == 1:
        yield _in_process
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield lambda tasks: np.array(list(pool.map(
            _statistic_task, tasks, chunksize=max(1, len(tasks) // (8 * jobs)))))


def collect_noise_profile(plan: ExperimentPlan, run=_in_process) -> np.ndarray:
    """Alpha-profile noise maxima at the feature bin for L disjoint windows."""
    return run([(plan, "noise", 0, 0, i) for i in range(plan.noise_windows_l)])


def ks_statistic(samples, params: GevParams) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the fitted CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    model = cdf(x, params)
    upper = np.max(np.arange(1, n + 1) / n - model)
    lower = np.max(model - np.arange(0, n) / n)
    return float(max(upper, lower))


def _exceedance_rates(batch: np.ndarray, thresholds: np.ndarray) -> list[float]:
    """Fraction of the batch's statistics strictly above each threshold."""
    return [float(c) / batch.size for c in np.count_nonzero(batch[:, None] > thresholds, 0)]


def run_roc(plan: ExperimentPlan, noise_fit: FitReport | None = None,
            run=_in_process) -> list[tuple[RocCurve, RocCurve]]:
    """Sweep the preset-pf grid into one (theoretical, empirical) curve pair per SNR.

    Protocol per grid point: the threshold comes from the fitted noise model's
    closed-form quantile; the theoretical curve pairs the preset pf with a
    measured detection rate, while the empirical curve pairs a measured
    false-alarm rate (fresh noise windows) with a detection rate measured on
    an independent signal batch at the same threshold. A window counts as
    occupied when its statistic T is strictly above the threshold, so an
    exact tie decides unoccupied. `run` is a worker_pool runner.
    """
    m = plan.signal_windows_m
    if noise_fit is None:
        noise_fit = fit_gev_mle(collect_noise_profile(plan, run))
    h0 = run([(plan, "noise", 0, 1, i) for i in range(plan.noise_windows_l)])
    h1 = [[run([(plan, "h1", s, batch, i) for i in range(m)]) for batch in (0, 1)]
          for s in range(len(plan.snr_db_list))]
    thresholds = np.array([threshold_for_pf(pf, noise_fit.params) for pf in plan.pf_grid])
    pf_empirical = _exceedance_rates(h0, thresholds)
    return [
        (RocCurve(tuple(zip(plan.pf_grid, _exceedance_rates(h1_theory, thresholds))), snr_db),
         RocCurve(tuple(zip(pf_empirical, _exceedance_rates(h1_empirical, thresholds))), snr_db))
        for snr_db, (h1_theory, h1_empirical) in zip(plan.snr_db_list, h1)
    ]


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
