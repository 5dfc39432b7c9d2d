"""Batch command-line front end.

Experiments are described by a JSON plan file; flags exist only as overrides
(`--set key=value` with dotted keys into the plan document, optional keys
included). Plan files are read strictly, by the schema walker that also
reads fit.json: the top level takes exactly the plan keys and the signal
and scd sections exactly the SignalSpec and ScdConfig fields, each value of
its JSON type, so an unknown key or a value of the wrong type is a
configuration error. Every plan-driven command writes the fully resolved
plan.json next to its outputs for provenance, and rerunning a command with
the same plan produces byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 numeric or convergence
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io
from .gev import DegenerateDataError, FitReport, fit_gev_mle, threshold_for_pf
from .harness import (
    ExperimentPlan,
    collect_noise_profile,
    exceedances,
    export_signal,
    export_window,
    run_windows,
)
from .scd import estimate_scd

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _parse_override(text: str) -> tuple[list[str], object]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"override {text!r} is not of the form key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings such as taper names
    return key.split("."), value


def _apply_overrides(plan_dict: dict, overrides: list[str]) -> dict:
    for text in overrides:
        path, value = _parse_override(text)
        node = plan_dict
        for part in path[:-1]:
            if not isinstance(node.get(part), dict):
                raise ValueError(f"override path {'.'.join(path)!r} does not exist in the plan")
            node = node[part]
        node[path[-1]] = value  # the strict plan reader rejects an unknown key
    return plan_dict


def _load_plan(args: argparse.Namespace) -> ExperimentPlan:
    """The plan of a plan command, after its --jobs check."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    raw = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    raw = _apply_overrides(raw, args.set or [])
    return io.plan_from_dict(raw)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen(args: argparse.Namespace) -> int:
    plan = _load_plan(args)
    buffer, seed = export_signal(plan)
    out = _out_dir(args)
    io.write_signal(out / "signal", buffer, plan.signal_spec, seed)
    io.write_plan_json(out / "plan.json", plan)
    return EXIT_OK


def _cmd_scd(args: argparse.Namespace) -> int:
    plan = _load_plan(args)
    cfg = plan.scd_cfg
    # estimated straight into the file's row-major complex64 layout, which
    # write_scd_matrix writes without a copy
    values = np.empty((cfg.window_length_k, len(cfg.alpha_grid)), dtype="<c8")
    matrix = estimate_scd(export_window(plan), cfg, out=values)
    out = _out_dir(args)
    io.write_scd_matrix(out / "scd", matrix)
    io.write_plan_json(out / "plan.json", plan)
    return EXIT_OK


def _cmd_collect(args: argparse.Namespace) -> int:
    plan = _load_plan(args)
    out = _out_dir(args)
    samples = collect_noise_profile(plan, args.jobs)
    alpha_hz = plan.alpha0_bin * plan.signal_spec.sample_rate_hz / plan.scd_cfg.window_length_k
    io.write_profile_csv(out / "profile.csv", alpha_hz, samples)
    io.write_plan_json(out / "plan.json", plan)
    return EXIT_OK


def _fit_noise_model(out: Path, samples, bins: int | None = None) -> FitReport:
    """The noise model fitted to at least 100 samples. Writes histogram.csv
    and fit.json, also when the fit did not converge (reported on stderr)."""
    if len(samples) < 100:
        raise ValueError(f"need at least 100 samples, got {len(samples)}")
    if bins is not None and not 1 <= bins <= len(samples):
        raise ValueError(f"bins must lie in 1 .. {len(samples)}, the sample count, got {bins}")
    report = fit_gev_mle(samples)
    io.write_histogram_csv(out / "histogram.csv", samples, bins)
    io.write_fit_json(out / "fit.json", report)
    if not report.converged:
        print("error: noise-model fit did not converge", file=sys.stderr)
    return report


def _cmd_fit(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    samples = io.read_profile_samples(args.samples)
    report = _fit_noise_model(out, samples, args.bins)
    return EXIT_OK if report.converged else EXIT_NUMERIC


def _cmd_threshold(args: argparse.Namespace) -> int:
    report = io.read_fit_json(args.fit)
    if not report.converged:  # as roc refuses such a fit
        print("error: noise-model fit did not converge", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"{threshold_for_pf(args.pf, report.params):.9g}")
    return EXIT_OK


def _cmd_roc(args: argparse.Namespace) -> int:
    plan = _load_plan(args)
    names = [f"roc_{snr:g}.csv" for snr in plan.snr_db_list]
    if len(set(names)) < len(names):
        raise ValueError(f"snr_db entries {list(plan.snr_db_list)} share roc_<snr>.csv names")
    # every file is written after the last window, so a failed run leaves none
    out = _out_dir(args)
    record = run_windows(plan, args.jobs)
    report = _fit_noise_model(out, record.fit)
    if not report.converged:
        return EXIT_NUMERIC
    thresholds, h0, h1 = exceedances(record, report.params, plan.pf_grid)
    for name, counts in zip(names, h1):
        io.write_roc_csv(out / name, plan, thresholds, h0, counts)
    io.write_plan_json(out / "plan.json", plan)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosense",
        description="Cyclic-domain spectrum sensing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_plan_command(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--plan", required=True, help="path to a JSON experiment plan")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a plan entry, e.g. scd.smoothing_length=301")
        cmd.add_argument("--jobs", type=int, default=1,
                         help="worker process count, capped at the CPUs this process may run "
                              "on (collect and roc)")
        return cmd

    add_plan_command("gen", "write the AM test signal and its sidecar").set_defaults(func=_cmd_gen)
    add_plan_command("scd", "write the SCD matrix of one mixed window").set_defaults(func=_cmd_scd)
    add_plan_command("collect", "write the noise alpha-profile sample CSV").set_defaults(func=_cmd_collect)
    add_plan_command("roc", "write ROC curves, fit, and histogram").set_defaults(func=_cmd_roc)

    fit = sub.add_parser("fit", help="fit the noise model to collected samples")
    fit.add_argument("--samples", required=True, help="profile CSV from the collect command")
    fit.add_argument("--out", default=".", help="output directory")
    fit.add_argument("--bins", type=int, default=None, help="histogram bins, 1 .. sample count")
    fit.set_defaults(func=_cmd_fit)

    thr = sub.add_parser("threshold", help="print the threshold for a preset pf")
    thr.add_argument("--pf", type=float, required=True, help="preset false-alarm probability")
    thr.add_argument("--fit", required=True, help="fit.json from the fit command")
    thr.set_defaults(func=_cmd_threshold)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateDataError as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FloatingPointError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a plan whose buffers this machine cannot hold
        print(f"error: plan too large for memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
