"""Self-tests of the benchmark's output checks and layer tracer.

Each check must pass on real outputs of its workload on two seeds and fail
on a copy with one known corruption. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cyclosense as cs
from cyclosense import harness
import run
from layertrace import LayerTracer
from workloads import WORKLOADS

SEEDS = (1, 2)


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Outputs of one operation per (workload, seed), made once per module."""
    cache = {}

    def get(name: str, seed: int):
        if (name, seed) not in cache:
            run_dir = tmp_path_factory.mktemp(f"{name}-{seed}")
            workload = WORKLOADS[name](seed, run_dir)
            workload.run(run_dir / "out", workload.jobs, 0)
            cache[name, seed] = workload, run_dir / "out"
        return cache[name, seed]

    return get


def _copy(produced, name, seed, tmp_path):
    workload, out = produced(name, seed)
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    return workload, copy


def _edit_csv(path, row, column, change):
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row][column] = change(rows[row][column])
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_passes_on_real_outputs(produced, name, seed):
    workload, out = produced(name, seed)
    assert workload.check(out, 0) == []


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("column", [0, 1], ids=["pf_preset", "pf_empirical"])
def test_roc_check_fails_on_pf_cell_moved_by_0_01(produced, tmp_path, seed, column):
    workload, copy = _copy(produced, "roc_desk", seed, tmp_path)
    _edit_csv(copy / "roc_-10.csv", 3, column, lambda v: f"{float(v) + 0.01:.9g}")
    assert workload.check(copy, 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_collect_check_fails_on_truncated_profile(produced, tmp_path, seed):
    workload, copy = _copy(produced, "collect_full", seed, tmp_path)
    lines = (copy / "profile.csv").read_text().splitlines(keepends=True)
    (copy / "profile.csv").write_text("".join(lines[:-100]))
    assert workload.check(copy, 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_collect_oracle_fails_on_value_changed_in_seventh_digit(produced, tmp_path, seed):
    from checks import oracle_indices

    workload, copy = _copy(produced, "collect_full", seed, tmp_path)
    row = int(oracle_indices(seed, workload.plan["noise_windows"])[0]) + 1
    _edit_csv(copy / "profile.csv", row, 1, lambda v: f"{float(v) * (1 + 1e-6):.9g}")
    assert workload.check(copy, 0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", range(4))
def test_fit_sweep_check_fails_on_mu_moved_by_one_sigma(produced, tmp_path, seed, case):
    workload, copy = _copy(produced, "fit_sweep", seed, tmp_path)
    sweep = json.loads((copy / "sweep.json").read_text())
    joint = sweep["cases"][case]["joint"]
    joint["mu"] += joint["sigma"]
    (copy / "sweep.json").write_text(json.dumps(sweep))
    assert workload.check(copy, 0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("alpha_bin", [0, 8, 2792])
def test_scd_check_fails_on_flipped_column(produced, tmp_path, seed, alpha_bin):
    workload, copy = _copy(produced, "scd_scan", seed, tmp_path)
    k = workload.plan["scd"]["window_length_k"]
    values = np.fromfile(copy / "scd.c64", dtype="<c8").reshape(k, len(workload.bins))
    values[:, workload.bins.index(alpha_bin)] *= -1
    values.tofile(copy / "scd.c64")
    assert workload.check(copy, 0)


def test_tracer_counts_calls_and_restores_bindings():
    plan = replace(cs.desk_plan(3), noise_windows_l=100, signal_windows_m=100,
                   snr_db_list=(-5.0,))
    original = harness.statistic_at_alpha0
    with LayerTracer() as tracer:
        harness.run_roc(plan)
    assert harness.statistic_at_alpha0 is original
    assert tracer.get("siggen.generate_am").calls == 200
    assert tracer.get("detector.statistic_at_alpha0").calls == 400
    assert tracer.get("gev.fit_gev_mle").calls == 1
    run = tracer.get("harness.run_roc")
    inner = sum(s.self_s for name, s in tracer.stats.items() if name != "harness.run_roc")
    assert 0.0 <= run.self_s and abs(run.total_s - run.self_s - inner) < 1e-6


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    reported = {n: u for n, (u, _) in run.TRACED.items()} | run.READOUTS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
