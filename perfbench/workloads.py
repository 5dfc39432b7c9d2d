"""The four benchmark workloads.

Each workload builds its inputs from the seed, runs one operation into an
output directory through cyclosense's public entry points, and checks what
the operation wrote. Calls go through module attributes (`cli.main`,
`gev.fit_gev_mle`) so that a LayerTracer sees them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from cyclosense import cli, gev, harness, io


class OperationFailed(RuntimeError):
    """The program refused the operation (non-zero exit code)."""


def _cli(*argv: str) -> None:
    code = cli.main(list(argv))
    if code != 0:
        raise OperationFailed(f"cyclosense {argv[0]} exited with code {code}")


class Workload:
    """One named workload. `jobs` is the worker count of end-to-end runs."""

    name = ""
    jobs = 1
    work_unit = ""
    # every operation of a run reads the same inputs, so outputs must repeat
    same_inputs_each_op = True

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.plan_path: Path | None = None

    def _write_plan(self, plan) -> None:
        self.plan_path = self.run_dir / "plan.json"
        io.write_plan_json(self.plan_path, plan)
        self.plan = json.loads(self.plan_path.read_text(encoding="utf-8"))

    def run(self, out: Path, jobs: int, index: int) -> float:
        """Run operation `index` into `out`; return the seconds spent in cyclosense."""
        raise NotImplementedError

    def check(self, out: Path, index: int) -> list[str]:
        raise NotImplementedError

    def work(self) -> int:
        """Units of work one operation completes."""
        raise NotImplementedError

    def readouts(self, out: Path) -> dict[str, float]:
        """Per-layer values read from the outputs of a checked operation."""
        return {}


class RocDesk(Workload):
    name = "roc_desk"
    jobs = 2
    work_unit = "windows"

    def __init__(self, seed: int, run_dir: Path) -> None:
        super().__init__(seed, run_dir)
        self._write_plan(harness.desk_plan(seed))

    def run(self, out: Path, jobs: int, index: int) -> float:
        start = perf_counter()
        _cli("roc", "--plan", str(self.plan_path), "--out", str(out), "--jobs", str(jobs))
        return perf_counter() - start

    def check(self, out: Path, index: int) -> list[str]:
        return checks.check_roc(out, self.plan)

    def work(self) -> int:
        plan = self.plan
        return 2 * plan["noise_windows"] + 2 * plan["signal_windows"] * len(plan["snr_db"])

    def readouts(self, out: Path) -> dict[str, float]:
        return {"harness.roc.max_abs_dpd": checks.max_abs_dpd(out, self.plan)}


class CollectFull(Workload):
    name = "collect_full"
    jobs = 1
    work_unit = "windows"

    def __init__(self, seed: int, run_dir: Path) -> None:
        super().__init__(seed, run_dir)
        self._write_plan(harness.full_plan(seed))

    def run(self, out: Path, jobs: int, index: int) -> float:
        start = perf_counter()
        _cli("collect", "--plan", str(self.plan_path), "--out", str(out), "--jobs", str(jobs))
        _cli("fit", "--samples", str(out / "profile.csv"), "--out", str(out))
        return perf_counter() - start

    def check(self, out: Path, index: int) -> list[str]:
        return checks.check_collect(out, self.plan, self.seed)

    def work(self) -> int:
        return self.plan["noise_windows"]

    def readouts(self, out: Path) -> dict[str, float]:
        return {
            "gev.noise_fit_ks": checks.noise_fit_ks(out),
            "gev.noise_fit_ks_critical": 1.63 / math.sqrt(self.plan["noise_windows"]),
        }


class FitSweep(Workload):
    """Staged and joint GEV fits to draws from known laws.

    Operation j of a run fits fresh draws seeded by (seed, j): the number of
    likelihood evaluations of a joint fit varies by about 12 % from one draw
    set to the next, so a run averages over many draw sets.
    """

    name = "fit_sweep"
    jobs = 1
    work_unit = "fits"
    same_inputs_each_op = False
    KAPPAS = (-0.3, 0.0, 0.1, 0.4)
    MU = 0.0427
    SIGMA = 0.0183
    N = 10_000

    def __init__(self, seed: int, run_dir: Path) -> None:
        super().__init__(seed, run_dir)
        self.pf_grid = list(harness.desk_plan().pf_grid)

    def draw_seed(self, index: int, case: int) -> int:
        return int(np.random.SeedSequence([self.seed, index, case]).generate_state(1, np.uint64)[0])

    def run(self, out: Path, jobs: int, index: int) -> float:
        start = perf_counter()
        results = []
        for case, kappa in enumerate(self.KAPPAS):
            true = gev.GevParams(kappa, self.MU, self.SIGMA)
            draws = gev.sample_gev(true, self.N, self.draw_seed(index, case))
            fits = {"staged": gev.fit_gev_mle(draws),
                    "joint": gev.fit_gev_mle(draws, refine=True)}
            summary = {
                name: {
                    "kappa": r.params.kappa, "mu": r.params.mu, "sigma": r.params.sigma,
                    "log_likelihood": r.log_likelihood, "converged": r.converged,
                    "iterations": r.iterations,
                    "thresholds": [gev.threshold_for_pf(pf, r.params) for pf in self.pf_grid],
                    "ks": harness.ks_statistic(draws, r.params),
                }
                for name, r in fits.items()
            }
            results.append((draws, true, summary))
        wall = perf_counter() - start

        out.mkdir(parents=True, exist_ok=True)
        cases = []
        for case, (draws, true, summary) in enumerate(results):
            np.save(out / f"draws_{case}.npy", draws)
            cases.append({"draws": f"draws_{case}.npy",
                          "true": {"kappa": true.kappa, "mu": true.mu, "sigma": true.sigma},
                          **summary})
        sweep = {"n": self.N, "pf_grid": self.pf_grid, "cases": cases}
        (out / "sweep.json").write_text(json.dumps(sweep, indent=1), encoding="utf-8")
        return wall

    def check(self, out: Path, index: int) -> list[str]:
        return checks.check_fit_sweep(out)

    def work(self) -> int:
        return 2 * len(self.KAPPAS)

    def readouts(self, out: Path) -> dict[str, float]:
        sweep = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        return {
            f"gev.staged_ll_gap.kappa_{case['true']['kappa']:g}":
                case["joint"]["log_likelihood"] - case["staged"]["log_likelihood"]
            for case in sweep["cases"]
        }


class ScdScan(Workload):
    name = "scd_scan"
    jobs = 1
    work_unit = "cells"
    BIN_LIMIT = 2792
    BIN_STEP = 8

    def __init__(self, seed: int, run_dir: Path) -> None:
        super().__init__(seed, run_dir)
        self._write_plan(harness.desk_plan(seed))
        self.bins = checks.scan_bins(self.BIN_LIMIT, self.BIN_STEP)

    def run(self, out: Path, jobs: int, index: int) -> float:
        start = perf_counter()
        _cli("scd", "--plan", str(self.plan_path), "--out", str(out), "--jobs", str(jobs),
             "--set", "scd.alpha_bins=" + json.dumps(self.bins))
        return perf_counter() - start

    def check(self, out: Path, index: int) -> list[str]:
        return checks.check_scd(out, self.bins, self.plan["scd"]["window_length_k"])

    def work(self) -> int:
        return self.plan["scd"]["window_length_k"] * len(self.bins)


WORKLOADS = {w.name: w for w in (RocDesk, CollectFull, FitSweep, ScdScan)}
