"""Single-cycle-frequency feature detector.

A window is reduced to its alpha-profile value at one configured cyclic
frequency; that statistic T is compared against a threshold. The threshold
is either given explicitly or derived from a preset false-alarm probability
through the fitted noise model's tail quantile. Occupancy uses the strict
comparison T > threshold, so an exact tie decides unoccupied.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gev import GevParams, cdf, threshold_for_pf
from .scd import ScdConfig, _check_alpha_bin, alpha_maxima
from .siggen import SampleBuffer

__all__ = ["DetectorConfig", "Decision", "detect", "statistic_at_alpha0", "theoretical_pf"]


@dataclass(frozen=True)
class DetectorConfig:
    """Detector wiring: SCD settings, the cyclic frequency under test, and
    exactly one of an explicit threshold or a preset false-alarm probability
    (the latter requires a fitted noise model)."""

    scd_cfg: ScdConfig
    alpha0_bin: int
    threshold: float | None = None
    preset_pf: float | None = None
    noise_model: GevParams | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha0_bin", int(self.alpha0_bin))
        _check_alpha_bin(self.alpha0_bin, self.scd_cfg.window_length_k)
        if (self.threshold is None) == (self.preset_pf is None):
            raise ValueError("provide exactly one of threshold or preset_pf")
        if self.preset_pf is not None:
            if not 0.0 < self.preset_pf < 1.0:
                raise ValueError("preset_pf must lie strictly between 0 and 1")
            if self.noise_model is None:
                raise ValueError("preset_pf requires a noise_model to resolve a threshold")

    def resolve_threshold(self) -> float:
        if self.threshold is not None:
            return float(self.threshold)
        return threshold_for_pf(self.preset_pf, self.noise_model)


@dataclass(frozen=True)
class Decision:
    """One window's detection outcome. occupied is exactly statistic_T > threshold."""

    statistic_T: float
    threshold: float
    occupied: bool
    window_index: int
    alpha0_bin: int

    def __post_init__(self) -> None:
        if self.occupied != (self.statistic_T > self.threshold):
            raise ValueError("occupied flag contradicts the statistic/threshold pair")


def statistic_at_alpha0(window: SampleBuffer, scd_cfg: ScdConfig, alpha0_bin: int) -> float:
    """Detection statistic T of one window: its alpha-profile value at the
    tested cyclic frequency."""
    return float(alpha_maxima(window.samples, scd_cfg, (alpha0_bin,))[0])


def detect(window: SampleBuffer, cfg: DetectorConfig, window_index: int = 0) -> Decision:
    """Run the feature detector on one analysis window."""
    statistic = statistic_at_alpha0(window, cfg.scd_cfg, cfg.alpha0_bin)
    threshold = cfg.resolve_threshold()
    return Decision(
        statistic_T=statistic,
        threshold=threshold,
        occupied=statistic > threshold,
        window_index=int(window_index),
        alpha0_bin=cfg.alpha0_bin,
    )


def theoretical_pf(threshold: float, noise_model: GevParams) -> float:
    """False-alarm probability of a threshold under the noise model: 1 - F(threshold)."""
    return float(1.0 - cdf(threshold, noise_model))
