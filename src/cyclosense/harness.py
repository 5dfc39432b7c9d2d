"""Monte Carlo experiment engine.

Collects cyclic-domain noise maxima, fits the extreme-value noise model,
checks the fit against the sample histogram, and sweeps preset false-alarm
probabilities into paired theoretical/empirical ROC curves.

Every analysis window is generated from a seed derived deterministically
from (master_seed, stream, indices...), so results are a pure function of
the plan and independent of worker count or scheduling. Aggregation uses
only order-independent counts.
"""

from __future__ import annotations

from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .detector import statistic_at_alpha0
from .gev import FitReport, GevParams, cdf, fit_gev_mle, threshold_for_pf
from .scd import ScdConfig, snap_alpha_to_even_bin
from .siggen import NoiseSpec, SampleBuffer, SignalSpec, generate_am, generate_awgn, mix_at_snr

__all__ = [
    "ExperimentPlan",
    "RocCurve",
    "HistogramReport",
    "desk_plan",
    "full_plan",
    "derived_seed",
    "worker_pool",
    "collect_noise_profile",
    "fit_and_histogram",
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
    signal-plus-noise trials per batch measure detection probability.
    """

    signal_spec: SignalSpec
    scd_cfg: ScdConfig
    noise_windows_l: int
    signal_windows_m: int
    snr_db_list: tuple[float, ...]
    pf_grid: tuple[float, ...]
    master_seed: int

    def __post_init__(self) -> None:
        if self.noise_windows_l < 100 or self.signal_windows_m < 100:
            raise ValueError("noise_windows_l and signal_windows_m must be at least 100")
        if self.master_seed != int(self.master_seed) or int(self.master_seed) < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        grid = tuple(float(p) for p in self.pf_grid)
        if not grid or any(not 0.0 < p < 1.0 for p in grid):
            raise ValueError("pf_grid entries must lie strictly between 0 and 1")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("pf_grid must be strictly increasing")
        object.__setattr__(self, "pf_grid", grid)
        snrs = tuple(float(s) for s in self.snr_db_list)
        if not snrs or any(not np.isfinite(s) for s in snrs):
            raise ValueError("snr_db_list must be nonempty and finite")
        object.__setattr__(self, "snr_db_list", snrs)
        k = self.scd_cfg.window_length_k
        if self.signal_spec.duration_samples < 2 * k:
            raise ValueError(
                f"signal duration {self.signal_spec.duration_samples} must cover at "
                f"least two analysis windows of {k} samples"
            )
        a0 = self.alpha0_bin
        if abs(a0) >= k:
            raise ValueError(f"cyclic feature bin {a0} falls outside the grid |a| < {k}")

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
    """Ordered (pf, pd) operating points of one kind at one SNR."""

    points: tuple[tuple[float, float], ...]
    kind: str
    snr_db: float

    def __post_init__(self) -> None:
        if self.kind not in ("theoretical", "empirical"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        pfs = [p for p, _ in self.points]
        if any(b < a for a, b in zip(pfs, pfs[1:])):
            raise ValueError("pf coordinates must be ascending")
        if any(not (0.0 <= pd <= 1.0 and 0.0 <= pf <= 1.0) for pf, pd in self.points):
            raise ValueError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class HistogramReport:
    """Density histogram of the noise maxima with the fitted model and its
    Kolmogorov-Smirnov distance."""

    bin_edges: np.ndarray
    bin_counts: np.ndarray
    fitted: GevParams
    ks_statistic: float


def derived_seed(master_seed: int, *tags: int) -> int:
    """Counter-scheme seed fan-out: one 64-bit seed per (stream, index...) tag."""
    seq = np.random.SeedSequence([int(master_seed), *[int(t) for t in tags]])
    return int(seq.generate_state(1, np.uint64)[0])


def _noise_window(plan: ExperimentPlan, *tags: int) -> SampleBuffer:
    seed = derived_seed(plan.master_seed, *tags)
    return generate_awgn(plan.scd_cfg.window_length_k, NoiseSpec(NOISE_VARIANCE, seed),
                         plan.signal_spec.sample_rate_hz)


def _statistic_task(args: tuple) -> float:
    """One window's detection statistic; top-level so process pools can pickle it."""
    plan, kind, snr_index, batch, index = args
    if kind == "noise":
        window = _noise_window(plan, STREAM_NOISE_FIT if batch == 0 else STREAM_H0_TRIAL, index)
    elif kind == "h1":
        noise = _noise_window(plan, STREAM_H1_TRIAL, snr_index, batch, index, 1)
        seed = derived_seed(plan.master_seed, STREAM_H1_TRIAL, snr_index, batch, index, 0)
        signal = generate_am(replace(plan.signal_spec, duration_samples=len(noise)), seed)
        window = mix_at_snr(signal, noise, plan.snr_db_list[snr_index])
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return statistic_at_alpha0(window, plan.scd_cfg, plan.alpha0_bin)


def worker_pool(jobs: int, pool: Executor | None = None):
    """Context yielding the pool for a command's windows: the caller's `pool`,
    None for jobs == 1 (run in this process), or a new pool of `jobs` workers."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if pool is not None or jobs == 1:
        return nullcontext(pool)
    return ProcessPoolExecutor(max_workers=jobs)


def _run_tasks(tasks: list[tuple], jobs: int, pool: Executor | None) -> np.ndarray:
    if pool is None:
        return np.array([_statistic_task(t) for t in tasks])
    chunk = max(1, len(tasks) // (8 * jobs))
    return np.array(list(pool.map(_statistic_task, tasks, chunksize=chunk)))


def collect_noise_profile(plan: ExperimentPlan, jobs: int = 1,
                          pool: Executor | None = None) -> np.ndarray:
    """Alpha-profile noise maxima at the feature bin for L disjoint windows."""
    tasks = [(plan, "noise", 0, 0, i) for i in range(plan.noise_windows_l)]
    with worker_pool(jobs, pool) as pool:
        return _run_tasks(tasks, jobs, pool)


def ks_statistic(samples, params: GevParams) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the fitted CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    model = cdf(x, params)
    upper = np.max(np.arange(1, n + 1) / n - model)
    lower = np.max(model - np.arange(0, n) / n)
    return float(max(upper, lower))


def fit_and_histogram(samples, bins: int | None = None,
                      fit: FitReport | None = None) -> HistogramReport:
    """Fit the noise model and bin the samples for overlay comparison.

    bins defaults to the Sturges count. A precomputed fit may be passed to
    avoid refitting the same samples.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 100:
        raise ValueError(f"need at least 100 samples, got {x.size}")
    if fit is None:
        fit = fit_gev_mle(x)
    if bins is None:
        bins = int(np.ceil(np.log2(x.size))) + 1
    counts, edges = np.histogram(x, bins=int(bins))
    return HistogramReport(
        bin_edges=edges,
        bin_counts=counts,
        fitted=fit.params,
        ks_statistic=ks_statistic(x, fit.params),
    )


def run_roc(plan: ExperimentPlan, jobs: int = 1, noise_fit: FitReport | None = None,
            pool: Executor | None = None) -> list[tuple[RocCurve, RocCurve]]:
    """Sweep the preset-pf grid into one (theoretical, empirical) curve pair per SNR.

    Protocol per grid point: the threshold comes from the fitted noise model's
    closed-form quantile; the theoretical curve pairs the preset pf with a
    measured detection rate, while the empirical curve pairs a measured
    false-alarm rate (fresh noise windows) with a detection rate measured on
    an independent signal batch at the same threshold.
    """
    m = plan.signal_windows_m
    with worker_pool(jobs, pool) as pool:
        if noise_fit is None:
            noise_fit = fit_gev_mle(collect_noise_profile(plan, jobs, pool))
        h0 = _run_tasks([(plan, "noise", 0, 1, i) for i in range(plan.noise_windows_l)], jobs, pool)
        h1 = [[_run_tasks([(plan, "h1", s, batch, i) for i in range(m)], jobs, pool)
               for batch in (0, 1)] for s in range(len(plan.snr_db_list))]
    thresholds = np.array([threshold_for_pf(pf, noise_fit.params) for pf in plan.pf_grid])

    def rates(batch: np.ndarray) -> list[float]:
        """Fraction of the batch's windows above each threshold."""
        return [float(c) / batch.size for c in np.count_nonzero(batch[:, None] > thresholds, 0)]

    pf_empirical = rates(h0)
    return [
        (RocCurve(tuple(zip(plan.pf_grid, rates(h1_theory))), "theoretical", snr_db),
         RocCurve(tuple(zip(pf_empirical, rates(h1_empirical))), "empirical", snr_db))
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
