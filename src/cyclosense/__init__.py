"""Cyclostationary spectrum sensing toolkit.

Models cyclic-frequency-domain noise maxima with a generalized extreme value
distribution, derives detection thresholds from preset false-alarm
probabilities, and validates the model with Monte Carlo ROC sweeps on AM
signals in white Gaussian noise.
"""

from .detector import Decision, DetectorConfig, detect, theoretical_pf
from .gev import (
    DegenerateDataError,
    FitReport,
    GevParams,
    cdf,
    fit_gev_mle,
    fit_gumbel_mle,
    log_likelihood,
    pdf,
    sample_gev,
    threshold_for_pf,
)
from .harness import (
    ExperimentPlan,
    HistogramReport,
    RocCurve,
    collect_noise_profile,
    desk_plan,
    fit_and_histogram,
    full_plan,
    ks_statistic,
    run_roc,
)
from .scd import (
    AlphaProfile,
    AlphaSupportError,
    ScdConfig,
    ScdMatrix,
    alpha_maxima,
    alpha_profile,
    estimate_scd,
    segment_windows,
    snap_alpha_to_even_bin,
)
from .siggen import NoiseSpec, SampleBuffer, SignalSpec, generate_am, generate_awgn, mix_at_snr

__version__ = "0.1.0"

__all__ = [
    "AlphaProfile",
    "AlphaSupportError",
    "Decision",
    "DegenerateDataError",
    "DetectorConfig",
    "ExperimentPlan",
    "FitReport",
    "GevParams",
    "HistogramReport",
    "NoiseSpec",
    "RocCurve",
    "SampleBuffer",
    "ScdConfig",
    "ScdMatrix",
    "SignalSpec",
    "alpha_maxima",
    "alpha_profile",
    "cdf",
    "collect_noise_profile",
    "desk_plan",
    "detect",
    "estimate_scd",
    "fit_and_histogram",
    "fit_gev_mle",
    "fit_gumbel_mle",
    "full_plan",
    "generate_am",
    "generate_awgn",
    "ks_statistic",
    "log_likelihood",
    "mix_at_snr",
    "pdf",
    "run_roc",
    "sample_gev",
    "segment_windows",
    "snap_alpha_to_even_bin",
    "theoretical_pf",
    "threshold_for_pf",
]
