"""File formats for signals, SCD matrices, profiles, fits, and ROC sweeps.

Binary payloads are little-endian with a JSON sidecar or header carrying the
metadata. Text outputs are deterministic: JSON is sorted with full-precision
floats (17 significant digits where needed), CSV numbers carry 9 significant
digits. Identical inputs therefore produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .gev import FitReport, GevParams
from .harness import ExperimentPlan, HistogramReport
from .scd import ScdConfig, ScdMatrix
from .siggen import SampleBuffer, SignalSpec

__all__ = [
    "write_signal",
    "read_signal",
    "write_scd_matrix",
    "write_profile_csv",
    "read_profile_samples",
    "write_fit_json",
    "read_fit_json",
    "write_histogram_csv",
    "write_roc_csv",
    "write_decisions_csv",
    "plan_to_dict",
    "plan_from_dict",
    "write_plan_json",
    "read_plan_json",
]


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_signal(path_base: str | Path, buffer: SampleBuffer,
                 spec: SignalSpec | None = None, seed: int | None = None) -> tuple[Path, Path]:
    """Write samples as raw little-endian float64 plus a JSON sidecar."""
    base = Path(path_base)
    data_path = base.with_suffix(".f64")
    meta_path = base.with_suffix(".json")
    data_path.write_bytes(buffer.samples.astype("<f8").tobytes())
    sidecar = {
        "sample_rate_hz": buffer.sample_rate_hz,
        "length": len(buffer),
        "power": buffer.power,
        "dtype": "float64",
        "byte_order": "little",
        "seed": seed,
        "spec": asdict(spec) if spec is not None else None,
    }
    _dump_json(meta_path, sidecar)
    return data_path, meta_path


def read_signal(path_base: str | Path) -> SampleBuffer:
    base = Path(path_base)
    meta = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    samples = np.frombuffer(base.with_suffix(".f64").read_bytes(), dtype="<f8")
    return SampleBuffer(samples, meta["sample_rate_hz"])


def write_scd_matrix(path_base: str | Path, matrix: ScdMatrix, cfg: ScdConfig) -> tuple[Path, Path]:
    """Write SCD values as row-major little-endian complex64 plus a JSON header."""
    base = Path(path_base)
    data_path = base.with_suffix(".c64")
    meta_path = base.with_suffix(".json")
    data_path.write_bytes(np.ascontiguousarray(matrix.values.astype("<c8")).tobytes())
    runs = []
    for col in range(len(matrix.alpha_bins)):
        idx = np.flatnonzero(matrix.valid_mask[:, col])
        runs.append([int(idx[0]), int(idx[-1])] if idx.size else None)
    header = {
        "dtype": "complex64",
        "byte_order": "little",
        "order": "row-major",
        "shape": list(matrix.values.shape),
        "f_axis_hz": [float(v) for v in matrix.f_axis_hz],
        "alpha_axis_hz": [float(v) for v in matrix.alpha_axis_hz],
        "alpha_bins": list(matrix.alpha_bins),
        "valid_runs": runs,
        "config": {
            "window_length_k": cfg.window_length_k,
            "taper": cfg.taper,
            "smoothing_length": cfg.smoothing_length,
            "alpha_bins": list(cfg.alpha_grid),
        },
    }
    _dump_json(meta_path, header)
    return data_path, meta_path


def write_profile_csv(path: str | Path, alpha_hz: float, maxima) -> Path:
    """Noise maxima at one cyclic frequency, row i for window i:
    alpha_hz,max_magnitude,window_index."""
    path = Path(path)
    alpha = _fmt(alpha_hz)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["alpha_hz", "max_magnitude", "window_index"])
        writer.writerows([alpha, _fmt(value), index] for index, value in enumerate(maxima))
    return path


def read_profile_samples(path: str | Path) -> np.ndarray:
    """max_magnitude column of a profile CSV, in file order."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "max_magnitude" not in reader.fieldnames:
            raise ValueError(f"{path} is not a profile CSV (no max_magnitude column)")
        return np.array([float(row["max_magnitude"]) for row in reader])


def write_fit_json(path: str | Path, report: FitReport) -> Path:
    path = Path(path)
    _dump_json(path, {
        "kappa": report.params.kappa,
        "mu": report.params.mu,
        "sigma": report.params.sigma,
        "log_likelihood": report.log_likelihood,
        "converged": report.converged,
        "sample_count": report.sample_count,
        "solver": {"tol": report.solver_tol, "iterations": report.iterations},
    })
    return path


def read_fit_json(path: str | Path) -> FitReport:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return FitReport(
        params=GevParams(payload["kappa"], payload["mu"], payload["sigma"]),
        log_likelihood=payload["log_likelihood"],
        iterations=payload["solver"]["iterations"],
        converged=payload["converged"],
        sample_count=payload["sample_count"],
        solver_tol=payload["solver"]["tol"],
    )


def write_histogram_csv(path: str | Path, report: HistogramReport) -> Path:
    path = Path(path)
    total = int(report.bin_counts.sum())
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_lo", "bin_hi", "count", "density"])
        for lo, hi, count in zip(report.bin_edges[:-1], report.bin_edges[1:], report.bin_counts):
            density = count / (total * (hi - lo)) if hi > lo else 0.0
            writer.writerow([_fmt(lo), _fmt(hi), int(count), _fmt(density)])
    return path


def write_roc_csv(path: str | Path, pf_grid, thresholds, pf_empirical,
                  pd_theoretical, pd_empirical, trials: int) -> Path:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "pf_preset", "pf_empirical", "pd_theoretical_curve",
            "pd_empirical", "threshold", "trials",
        ])
        for pf, lam, pfe, pdt, pde in zip(pf_grid, thresholds, pf_empirical,
                                          pd_theoretical, pd_empirical):
            writer.writerow([_fmt(pf), _fmt(pfe), _fmt(pdt), _fmt(pde), _fmt(lam), int(trials)])
    return path


def write_decisions_csv(path: str | Path, decisions) -> Path:
    """Decision stream: window_index,statistic,threshold,occupied."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["window_index", "statistic", "threshold", "occupied"])
        for decision in decisions:
            writer.writerow([
                decision.window_index,
                _fmt(decision.statistic_T),
                _fmt(decision.threshold),
                int(decision.occupied),
            ])
    return path


def plan_to_dict(plan: ExperimentPlan) -> dict:
    return {
        "signal": {
            "carrier_freq_hz": plan.signal_spec.carrier_freq_hz,
            "baseband_bandwidth_hz": plan.signal_spec.baseband_bandwidth_hz,
            "sample_rate_hz": plan.signal_spec.sample_rate_hz,
            "duration_samples": plan.signal_spec.duration_samples,
            "modulation": plan.signal_spec.modulation,
            "modulation_index": plan.signal_spec.modulation_index,
        },
        "scd": {
            "window_length_k": plan.scd_cfg.window_length_k,
            "taper": plan.scd_cfg.taper,
            "smoothing_length": plan.scd_cfg.smoothing_length,
            "alpha_bins": list(plan.scd_cfg.alpha_grid),
        },
        "noise_windows": plan.noise_windows_l,
        "signal_windows": plan.signal_windows_m,
        "snr_db": list(plan.snr_db_list),
        "pf_grid": list(plan.pf_grid),
        "master_seed": plan.master_seed,
        "conventions": {
            "snr_bandwidth": "full sampling bandwidth",
            "noise_variance": 1.0,
        },
    }


def plan_from_dict(payload: dict) -> ExperimentPlan:
    try:
        signal = payload["signal"]
        scd = payload["scd"]
        return ExperimentPlan(
            signal_spec=SignalSpec(
                carrier_freq_hz=signal["carrier_freq_hz"],
                baseband_bandwidth_hz=signal["baseband_bandwidth_hz"],
                sample_rate_hz=signal["sample_rate_hz"],
                duration_samples=signal["duration_samples"],
                modulation=signal.get("modulation", "am"),
                modulation_index=signal.get("modulation_index", 0.5),
            ),
            scd_cfg=ScdConfig(
                window_length_k=scd["window_length_k"],
                taper=scd.get("taper", "hamming"),
                smoothing_length=scd["smoothing_length"],
                alpha_grid=tuple(scd["alpha_bins"]),
            ),
            noise_windows_l=payload["noise_windows"],
            signal_windows_m=payload["signal_windows"],
            snr_db_list=tuple(payload["snr_db"]),
            pf_grid=tuple(payload["pf_grid"]),
            master_seed=payload["master_seed"],
        )
    except KeyError as exc:
        raise ValueError(f"plan is missing required key {exc.args[0]!r}") from exc


def write_plan_json(path: str | Path, plan: ExperimentPlan) -> Path:
    path = Path(path)
    _dump_json(path, plan_to_dict(plan))
    return path


def read_plan_json(path: str | Path) -> ExperimentPlan:
    return plan_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
