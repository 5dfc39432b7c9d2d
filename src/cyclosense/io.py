"""File formats for signals, SCD matrices, profiles, fits, and ROC sweeps.

Binary payloads are little-endian with a JSON sidecar or header carrying the
metadata. Text outputs are deterministic: JSON is sorted with full-precision
floats (17 significant digits where needed), CSV numbers carry 9 significant
digits. Identical inputs therefore produce byte-identical files. The JSON
inputs, plans and fit.json, are read by one walker (_check) against a schema
of each file's keys and value kinds, so a malformed file raises ValueError
naming the key.
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
from .siggen import SampleBuffer, SignalSpec, _integer, _samples

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


def _write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write the header line and then each row of rows to the CSV at path."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


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

    Values already in that layout, as `cyclosense scd` estimates them, are
    written as they stand; others are cast to it first. Raises
    FloatingPointError, and writes no file, when a cell is not finite in
    complex64: nan or inf, or beyond the float32 range the cast overflows.
    """
    base = Path(path_base)
    data_path = base.with_suffix(".c64")
    meta_path = base.with_suffix(".json")
    values = matrix.values
    with np.errstate(over="ignore"):  # checked next
        data = np.ascontiguousarray(values, dtype="<c8")
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
    alpha = _fmt(alpha_hz)
    return _write_csv(path, ["alpha_hz", "max_magnitude", "window_index"],
                      ([alpha, _fmt(value), index] for index, value in enumerate(maxima)))


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


# write_fit_json's keys, each with the kind of its value (see _check)
_FIT_SCHEMA = {"kappa": float, "mu": float, "sigma": float, "log_likelihood": float,
               "converged": bool, "sample_count": int,
               "solver": {"tol": float, "iterations": int}}
# any number, nan and the infinities included: the dataclasses check the values
_NUMBER = (int, float)
_KINDS = {float: "finite (a JSON number)", int: "a JSON integer", bool: "true or false",
          str: "a string", _NUMBER: "a number"}


def _check(node, schema, name: str, path: str = "", optional=frozenset()) -> None:
    """Raise ValueError, naming the key, unless node, the part of the name
    file at the dotted path (the top level when empty), is of kind schema: a
    dict of keys to kinds for a JSON object with exactly those keys, less the
    dotted paths in optional that it omits; a one-entry list for a list of
    numbers; or a _KINDS key."""
    where = f"{name} {path or 'top level'}"
    if isinstance(schema, dict):
        if not isinstance(node, dict):
            raise ValueError(f"{where} must be a JSON object, got {node!r}")
        prefix = f"{path}." if path else ""
        missing = {key for key in schema.keys() - node.keys() if prefix + key not in optional}
        unknown = node.keys() - schema.keys()
        if missing or unknown:
            raise ValueError(f"{where} must have exactly the keys {sorted(schema)}: "
                             f"missing {sorted(missing)}, unknown {sorted(unknown)}")
        for key, kind in schema.items():
            if key in node:
                _check(node[key], kind, name, prefix + key, optional)
    elif isinstance(schema, list):
        if not isinstance(node, (list, tuple)):
            raise ValueError(f"{where} must be a list of numbers, got {node!r}")
        for index, value in enumerate(node):
            _check(value, schema[0], name, f"{path}[{index}]")
    # true and false are of kind bool alone, not 1 and 0, and a float is finite: a
    # comparison refuses nan, inf and integers beyond the float range alike
    elif (isinstance(node, bool) != (schema is bool)
          or not isinstance(node, _NUMBER if schema is float else schema)
          or schema is float and not abs(node) <= sys.float_info.max):
        raise ValueError(f"{where} must be {_KINDS[schema]}, got {node!r}")


def read_fit_json(path: str | Path) -> FitReport:
    """The FitReport of a write_fit_json file, read by the walker that reads
    plans against _FIT_SCHEMA: exactly its keys at the top level and under
    solver, converged true or false, sample_count and iterations integers,
    and the parameters, the log likelihood and tol finite numbers. Anything
    else raises ValueError naming the key."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    _check(payload, _FIT_SCHEMA, "fit.json")
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
    bin_lo,bin_hi,count,density. The samples pass the one sample-vector check:
    real, finite, nonempty and 1-D; bins, an integer of at least 1."""
    x = _samples(samples)
    bins = int(np.ceil(np.log2(x.size))) + 1 if bins is None else _integer("bins", bins, 1)
    counts, edges = np.histogram(x, bins=bins)
    total = int(counts.sum())
    return _write_csv(path, ["bin_lo", "bin_hi", "count", "density"], (
        [_fmt(lo), _fmt(hi), int(count), _fmt(count / (total * (hi - lo)) if hi > lo else 0.0)]
        for lo, hi, count in zip(edges[:-1], edges[1:], counts)))


def write_roc_csv(path: str | Path, plan: ExperimentPlan, thresholds, h0_counts,
                  h1_counts) -> Path:
    """One row per preset pf of the plan: its threshold and rates, the H0 count
    over L and the theoretical and empirical curves' H1 counts (2, P) over M."""
    noise, trials = plan.noise_windows_l, plan.signal_windows_m
    header = ["pf_preset", "pf_empirical", "pd_theoretical_curve", "pd_empirical", "threshold",
              "trials"]
    return _write_csv(path, header, (
        [_fmt(pf), _fmt(h0 / noise), _fmt(h1_t / trials), _fmt(h1_e / trials), _fmt(lam), trials]
        for pf, lam, h0, h1_t, h1_e in zip(plan.pf_grid, thresholds, h0_counts, *h1_counts)))


def _scd_dict(cfg: ScdConfig) -> dict:
    """ScdConfig fields as written to files, with alpha_grid as alpha_bins."""
    fields = dict(vars(cfg))  # not asdict, which deep-copies every alpha bin
    fields["alpha_bins"] = list(fields.pop("alpha_grid"))
    return fields


# fixed by the implementation: a plan may restate them but not change them
_CONVENTIONS = {"snr_bandwidth": "full sampling bandwidth", "noise_variance": NOISE_VARIANCE}
# plan_to_dict's keys, each with the kind of its value (see _check)
_PLAN_SCHEMA = {
    "signal": {"carrier_freq_hz": _NUMBER, "baseband_bandwidth_hz": _NUMBER,
               "sample_rate_hz": _NUMBER, "duration_samples": _NUMBER, "modulation": str,
               "modulation_index": _NUMBER},
    "scd": {"window_length_k": _NUMBER, "smoothing_length": _NUMBER, "alpha_bins": [_NUMBER],
            "taper": str},
    "noise_windows": _NUMBER, "signal_windows": _NUMBER, "snr_db": [_NUMBER],
    "pf_grid": [_NUMBER], "master_seed": _NUMBER,
    "conventions": {"snr_bandwidth": str, "noise_variance": _NUMBER},
}
# the plan keys a file may omit: the dataclass defaults, and _CONVENTIONS
_PLAN_OPTIONAL = frozenset({"signal.modulation", "signal.modulation_index", "scd.taper",
                            "conventions"})


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
    """Plan from its dict form, read by the walker that reads fit.json
    against _PLAN_SCHEMA: exactly the plan_to_dict keys at every level (the
    signal and scd sections hold the SignalSpec and ScdConfig fields, with
    alpha_grid as alpha_bins), less any _PLAN_OPTIONAL key, which takes its
    default; conventions may be omitted but not changed. A missing, unknown
    or mistyped key raises ValueError naming it, as do the dataclasses'
    own checks of the values."""
    _check(payload, _PLAN_SCHEMA, "plan", optional=_PLAN_OPTIONAL)
    if payload.get("conventions", _CONVENTIONS) != _CONVENTIONS:
        raise ValueError(f"plan conventions must be {_CONVENTIONS} or omitted")
    scd = dict(payload["scd"])
    return ExperimentPlan(
        signal_spec=SignalSpec(**payload["signal"]),
        scd_cfg=ScdConfig(alpha_grid=tuple(scd.pop("alpha_bins")), **scd),
        noise_windows_l=payload["noise_windows"],
        signal_windows_m=payload["signal_windows"],
        snr_db_list=tuple(payload["snr_db"]),
        pf_grid=tuple(payload["pf_grid"]),
        master_seed=payload["master_seed"],
    )


def write_plan_json(path: str | Path, plan: ExperimentPlan) -> Path:
    path = Path(path)
    _dump_json(path, plan_to_dict(plan))
    return path


def read_plan_json(path: str | Path) -> ExperimentPlan:
    return plan_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
