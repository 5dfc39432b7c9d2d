"""Single-cycle-frequency detection statistic.

A window is reduced to its alpha-profile value at one configured cyclic
frequency: the maximum |SCD| over the valid frequency support of that
column. harness.exceedances compares this statistic T with the thresholds of
the fitted noise model.
"""

from __future__ import annotations

from dataclasses import replace

from .scd import ScdConfig, alpha_maxima
from .siggen import SampleBuffer

__all__ = ["statistic_at_alpha0"]


def statistic_at_alpha0(window: SampleBuffer, scd_cfg: ScdConfig, alpha0_bin: int) -> float:
    """Detection statistic T of one window: its alpha-profile value at the
    tested cyclic frequency."""
    return float(alpha_maxima(window.samples, replace(scd_cfg, alpha_grid=(alpha0_bin,)))[0])
