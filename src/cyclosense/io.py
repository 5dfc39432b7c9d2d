"""File formats for signals, SCD matrices, profiles, fits, and ROC sweeps.

Binary payloads are little-endian with a JSON sidecar or header carrying the
metadata. Text outputs are deterministic: JSON is sorted with full-precision
floats (17 significant digits where needed), CSV numbers carry 9 significant
digits. Identical inputs therefore produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import sys
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


# columns write_scd_matrix casts per call: a strip's transpose into the
# row-major file layout stays in cache, and wider strips mean fewer calls
_CAST_STRIP = 32


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

    Values that already are a C-contiguous little-endian complex64 array,
    as `cyclosense scd` estimates them, are written as they stand; others
    are cast _CAST_STRIP columns at a time. Raises FloatingPointError, and
    writes no file, when a cell is not finite in complex64: nan or inf, or
    beyond the float32 range the cast overflows.
    """
    base = Path(path_base)
    data_path = base.with_suffix(".c64")
    meta_path = base.with_suffix(".json")
    values = matrix.values
    if values.dtype == np.dtype("<c8") and values.flags.c_contiguous:
        data = values
    else:
        data = np.empty(values.shape, dtype="<c8")
        with np.errstate(over="ignore"):  # checked next
            for start in range(0, values.shape[1], _CAST_STRIP):
                data[:, start:start + _CAST_STRIP] = values[:, start:start + _CAST_STRIP]
    parts = data.view("<f4")
    with np.errstate(over="ignore", invalid="ignore"):  # a finite sum needs finite cells
        total = parts.sum(axis=0).sum()  # row by row: one vectorized pass
    # the sum of finite cells may overflow float32: min and max (which keep nan) decide
    if not np.isfinite(total) and not (np.isfinite(parts.min()) and np.isfinite(parts.max())):
        bad = np.count_nonzero(~np.isfinite(data))
        raise FloatingPointError(f"{bad} of {data.size} SCD cells are not finite in complex64")
    data.tofile(data_path)
    config = _scd_dict(matrix.config)
    header = {
        "dtype": "complex64",
        "byte_order": "little",
        "order": "row-major",
        "shape": list(values.shape),
        "f_axis_hz": matrix.f_axis_hz.tolist(),
        "alpha_axis_hz": matrix.alpha_axis_hz.tolist(),
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


# write_fit_json's keys, each with the JSON type read_fit_json requires of its value
_FIT_SCHEMA = {"kappa": float, "mu": float, "sigma": float, "log_likelihood": float,
               "converged": bool, "sample_count": int,
               "solver": {"tol": float, "iterations": int}}
_JSON_TYPES = {float: "finite (a JSON number)", int: "a JSON integer", bool: "true or false"}


def _is_json(kind: type, value) -> bool:
    """value is of kind: a float a finite number and an int an integer, neither
    of them a JSON true or false."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is int:
        return isinstance(value, int)
    # a comparison refuses nan, inf and integers beyond the float range alike
    return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _check_fields(payload, schema: dict, section: str = "") -> None:
    """Raise ValueError, naming the key, unless payload, the fit.json section
    at section (the top level when empty), has exactly schema's keys and each
    value is of its key's type."""
    name = f"fit.json {section or 'top level'}"
    if not isinstance(payload, dict):
        raise ValueError(f"{name} must be a JSON object, got {payload!r}")
    missing, unknown = schema.keys() - payload.keys(), payload.keys() - schema.keys()
    if missing or unknown:
        raise ValueError(f"{name} must have exactly the keys {sorted(schema)}: "
                         f"missing {sorted(missing)}, unknown {sorted(unknown)}")
    for key, kind in schema.items():
        path, value = f"{section}.{key}" if section else key, payload[key]
        if isinstance(kind, dict):
            _check_fields(value, kind, path)
        elif not _is_json(kind, value):
            raise ValueError(f"fit.json {path} must be {_JSON_TYPES[kind]}, got {value!r}")


def read_fit_json(path: str | Path) -> FitReport:
    """The FitReport of a write_fit_json file, read as strictly as a plan:
    exactly its keys at the top level and under solver, converged true or
    false, sample_count and iterations integers, and the parameters, the log
    likelihood and tol finite numbers. Anything else raises ValueError."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    _check_fields(payload, _FIT_SCHEMA)
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
    fields = dict(vars(cfg))  # not asdict, which deep-copies every alpha bin
    fields["alpha_bins"] = list(fields.pop("alpha_grid"))
    return fields


# fixed by the implementation: a plan may restate them but not change them
_CONVENTIONS = {"snr_bandwidth": "full sampling bandwidth", "noise_variance": NOISE_VARIANCE}
# the plan keys, as dotted paths, that take a number, each with whether it
# takes a list of them; no plan key takes true or false
_PLAN_NUMBERS = {"signal.carrier_freq_hz": False, "signal.baseband_bandwidth_hz": False,
                 "signal.sample_rate_hz": False, "signal.duration_samples": False,
                 "signal.modulation_index": False, "scd.window_length_k": False,
                 "scd.smoothing_length": False, "scd.alpha_bins": True, "noise_windows": False,
                 "signal_windows": False, "snr_db": True, "pf_grid": True, "master_seed": False}


def _check_number(path: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"plan {path} must be a number, got {value!r}")


def _check_plan_values(node, path: str = "") -> None:
    """Raise ValueError, naming the key, at a true or false anywhere in the
    plan node at path, or at a _PLAN_NUMBERS key whose value is not a number
    or a list of numbers as that key takes."""
    takes_list = _PLAN_NUMBERS.get(path)
    if takes_list is False:
        _check_number(path, node)
    elif takes_list and not isinstance(node, (list, tuple)):
        raise ValueError(f"plan {path} must be a list of numbers, got {node!r}")
    elif takes_list:
        for index, value in enumerate(node):
            _check_number(f"{path}[{index}]", value)
    elif isinstance(node, bool):
        raise ValueError(f"plan {path} must not be true or false: no plan key takes them")
    elif isinstance(node, dict):
        for key, value in node.items():
            _check_plan_values(value, f"{path}.{key}" if path else str(key))
    elif isinstance(node, (list, tuple)):
        for index, value in enumerate(node):
            _check_plan_values(value, f"{path}[{index}]")


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
    An unknown or missing key raises ValueError, and so does a value of the
    wrong JSON type: true or false anywhere, or a non-number where a number
    or a list of numbers belongs."""
    _check_plan_values(payload)
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
