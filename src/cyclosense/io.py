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
from .harness import NOISE_VARIANCE, ExperimentPlan
from .scd import ScdConfig, ScdMatrix
from .siggen import SampleBuffer, SignalSpec

__all__ = [
    "write_signal",
    "write_scd_matrix",
    "write_profile_csv",
    "read_profile_samples",
    "write_fit_json",
    "read_fit_json",
    "write_histogram_csv",
    "write_roc_csv",
    "plan_to_dict",
    "plan_from_dict",
    "write_plan_json",
    "read_plan_json",
]


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_signal(path_base: str | Path, buffer: SampleBuffer, spec: SignalSpec,
                 seed: int) -> tuple[Path, Path]:
    """Write samples as raw little-endian float64 plus a JSON sidecar that
    records the spec and seed they were drawn from."""
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
        "spec": asdict(spec),
    }
    _dump_json(meta_path, sidecar)
    return data_path, meta_path


def write_scd_matrix(path_base: str | Path, matrix: ScdMatrix) -> tuple[Path, Path]:
    """Write SCD values as row-major little-endian complex64 plus a JSON header.

    Raises FloatingPointError, and writes no file, when a cell is not finite
    in complex64: nan or inf, or beyond the float32 range the cast overflows.
    """
    base = Path(path_base)
    data_path = base.with_suffix(".c64")
    meta_path = base.with_suffix(".json")
    with np.errstate(over="ignore"):  # checked next
        data = matrix.values.astype("<c8")
    parts = data.view("<f4")
    if not (np.isfinite(parts.min()) and np.isfinite(parts.max())):  # min and max keep nan
        bad = np.count_nonzero(~np.isfinite(data))
        raise FloatingPointError(f"{bad} of {data.size} SCD cells are not finite in complex64")
    data.tofile(data_path)
    config = _scd_dict(matrix.config)
    header = {
        "dtype": "complex64",
        "byte_order": "little",
        "order": "row-major",
        "shape": list(matrix.values.shape),
        "f_axis_hz": [float(v) for v in matrix.f_axis_hz],
        "alpha_axis_hz": [float(v) for v in matrix.alpha_axis_hz],
        "alpha_bins": config["alpha_bins"],
        "valid_runs": matrix.valid_runs,
        "config": config,
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


def write_histogram_csv(path: str | Path, samples, bins: int | None = None) -> Path:
    """Density histogram of the samples, bins defaulting to the Sturges count:
    bin_lo,bin_hi,count,density."""
    x = np.asarray(samples, dtype=np.float64)
    if bins is None:
        bins = int(np.ceil(np.log2(x.size))) + 1
    counts, edges = np.histogram(x, bins=int(bins))
    path = Path(path)
    total = int(counts.sum())
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_lo", "bin_hi", "count", "density"])
        for lo, hi, count in zip(edges[:-1], edges[1:], counts):
            density = count / (total * (hi - lo)) if hi > lo else 0.0
            writer.writerow([_fmt(lo), _fmt(hi), int(count), _fmt(density)])
    return path


def write_roc_csv(path: str | Path, plan: ExperimentPlan, thresholds, h0_counts,
                  h1_counts) -> Path:
    """One row per preset pf of the plan: its threshold and rates, the H0 count
    over L and the theoretical and empirical curves' H1 counts (2, P) over M."""
    path = Path(path)
    noise, trials = plan.noise_windows_l, plan.signal_windows_m
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "pf_preset", "pf_empirical", "pd_theoretical_curve",
            "pd_empirical", "threshold", "trials",
        ])
        for pf, lam, h0, h1_t, h1_e in zip(plan.pf_grid, thresholds, h0_counts, *h1_counts):
            writer.writerow([_fmt(pf), _fmt(h0 / noise), _fmt(h1_t / trials),
                             _fmt(h1_e / trials), _fmt(lam), trials])
    return path


def _scd_dict(cfg: ScdConfig) -> dict:
    """ScdConfig fields as written to files, with alpha_grid as alpha_bins."""
    fields = asdict(cfg)
    fields["alpha_bins"] = list(fields.pop("alpha_grid"))
    return fields


# fixed by the implementation: a plan may restate them but not change them
_CONVENTIONS = {"snr_bandwidth": "full sampling bandwidth", "noise_variance": NOISE_VARIANCE}


def plan_to_dict(plan: ExperimentPlan) -> dict:
    return {
        "signal": asdict(plan.signal_spec),
        "scd": _scd_dict(plan.scd_cfg),
        "noise_windows": plan.noise_windows_l,
        "signal_windows": plan.signal_windows_m,
        "snr_db": list(plan.snr_db_list),
        "pf_grid": list(plan.pf_grid),
        "master_seed": plan.master_seed,
        "conventions": dict(_CONVENTIONS),
    }


def plan_from_dict(payload: dict) -> ExperimentPlan:
    """Plan from its dict form, read strictly: the top level takes exactly the
    plan_to_dict keys (conventions may be omitted, not changed), and the signal
    and scd sections exactly the SignalSpec and ScdConfig fields (alpha_grid
    written as alpha_bins), whose optional fields take the dataclass defaults.
    An unknown or missing key raises ValueError."""
    rest = dict(payload)
    if rest.pop("conventions", _CONVENTIONS) != _CONVENTIONS:
        raise ValueError(f"plan conventions must be {_CONVENTIONS} or omitted")
    try:
        scd = dict(rest.pop("scd"))
        plan = ExperimentPlan(
            signal_spec=SignalSpec(**rest.pop("signal")),
            scd_cfg=ScdConfig(alpha_grid=tuple(scd.pop("alpha_bins")), **scd),
            noise_windows_l=rest.pop("noise_windows"),
            signal_windows_m=rest.pop("signal_windows"),
            snr_db_list=tuple(rest.pop("snr_db")),
            pf_grid=tuple(rest.pop("pf_grid")),
            master_seed=rest.pop("master_seed"),
        )
    except KeyError as exc:
        raise ValueError(f"plan is missing required key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"invalid plan: {exc}") from exc
    if rest:
        raise ValueError(f"unknown plan key(s) {sorted(rest)}")
    return plan


def write_plan_json(path: str | Path, plan: ExperimentPlan) -> Path:
    path = Path(path)
    _dump_json(path, plan_to_dict(plan))
    return path


def read_plan_json(path: str | Path) -> ExperimentPlan:
    return plan_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
