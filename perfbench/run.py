"""Benchmark of the cyclosense experiment loop.

    python3 perfbench/run.py --workload roc_desk --seed 1 --seconds 24 --trace 0

Run from the root of a source tree; the program is imported from ./src.
With --trace 0 the workload runs as a closed loop with one client: one
operation after another, each checked before the next starts, for about
--seconds seconds, and the end-to-end metrics are reported. With --trace 1
operation 0 runs plain and with every public layer function timed at
--jobs 1 (and plain at the workload's own worker count when that is
larger), and the per-layer metrics are reported. The last line of standard
output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exit code 2 means the
benchmark could not run (too few CPUs, no ./src/cyclosense).
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
MIN_CPUS = 2
TRACE_JOBS = 1
# plain/traced operation pairs for trace_overhead_frac: up to TRACE_PAIRS,
# as many as fit in TRACE_PAIR_SECONDS of plain operations
TRACE_PAIRS = 5
TRACE_PAIR_SECONDS = 10.0
# fresh-process setup samples taken before and after the timed operations
SETUP_SAMPLES_BEFORE = 5
SETUP_SAMPLES_AFTER = 4
SETUP_SNIPPET = (
    "import sys, cyclosense, cyclosense.io\n"
    "if len(sys.argv) > 1: cyclosense.io.read_plan_json(sys.argv[1])\n"
)
PHASES = {"harness.collect_noise_profile", "harness.run_roc"}


def _calls(q):
    return lambda t: t.get(q).calls


def _self(q):
    return lambda t: t.get(q).self_s


def _total(q):
    return lambda t: t.get(q).total_s


def _layer(layer):
    return lambda t: t.layer_self_s(layer)


def _percentile_ms(q, pct):
    def value(t):
        import numpy

        durations = t.get(q).durations
        return float(numpy.percentile(durations, pct)) * 1e3 if durations else 0.0
    return value


# per-layer metric -> (unit, value from the LayerTracer of the traced operation)
TRACED = {
    "siggen.generate_awgn.calls": ("count", _calls("siggen.generate_awgn")),
    "siggen.generate_awgn.self_s": ("s", _self("siggen.generate_awgn")),
    "siggen.generate_am.calls": ("count", _calls("siggen.generate_am")),
    "siggen.generate_am.self_s": ("s", _self("siggen.generate_am")),
    "siggen.mix_at_snr.self_s": ("s", _self("siggen.mix_at_snr")),
    "siggen.self_s": ("s", _layer("siggen")),
    "scd.estimate_scd.calls": ("count", _calls("scd.estimate_scd")),
    "scd.estimate_scd.self_s": ("s", _self("scd.estimate_scd")),
    "scd.estimate_scd.p50_ms": ("ms", _percentile_ms("scd.estimate_scd", 50)),
    "scd.estimate_scd.p99_ms": ("ms", _percentile_ms("scd.estimate_scd", 99)),
    "scd.alpha_profile.self_s": ("s", _self("scd.alpha_profile")),
    "scd.taper_coefficients.calls": ("count", _calls("scd.taper_coefficients")),
    "scd.snap_alpha_to_even_bin.calls": ("count", _calls("scd.snap_alpha_to_even_bin")),
    "scd.self_s": ("s", _layer("scd")),
    "detector.statistic_at_alpha0.calls": ("count", _calls("detector.statistic_at_alpha0")),
    "detector.statistic_at_alpha0.self_s": ("s", _self("detector.statistic_at_alpha0")),
    "detector.statistic_at_alpha0.p50_ms": ("ms", _percentile_ms("detector.statistic_at_alpha0", 50)),
    "detector.statistic_at_alpha0.p99_ms": ("ms", _percentile_ms("detector.statistic_at_alpha0", 99)),
    "detector.self_s": ("s", _layer("detector")),
    "harness.derived_seed.calls": ("count", _calls("harness.derived_seed")),
    "harness.derived_seed.self_s": ("s", _self("harness.derived_seed")),
    "harness.collect_noise_profile.wall_s": ("s", _total("harness.collect_noise_profile")),
    "harness.run_roc.wall_s": ("s", _total("harness.run_roc")),
    "harness.self_s": ("s", _layer("harness")),
    "gev.fit_gev_mle.calls": ("count", _calls("gev.fit_gev_mle")),
    "gev.fit_gev_mle.self_s": ("s", _self("gev.fit_gev_mle")),
    "gev.fit_gev_mle.iterations": ("count", lambda t: t.fit_iterations),
    "gev.log_likelihood.calls": ("count", _calls("gev.log_likelihood")),
    "gev.fit_gumbel_mle.self_s": ("s", _self("gev.fit_gumbel_mle")),
    "gev.threshold_for_pf.calls": ("count", _calls("gev.threshold_for_pf")),
    "gev.converged_frac": ("ratio", lambda t: (t.fits_converged / t.get("gev.fit_gev_mle").calls
                                               if t.get("gev.fit_gev_mle").calls else 0.0)),
    "gev.self_s": ("s", _layer("gev")),
    "io.write_roc_csv.self_s": ("s", _self("io.write_roc_csv")),
    "io.write_profile_csv.self_s": ("s", _self("io.write_profile_csv")),
    "io.read_profile_samples.self_s": ("s", _self("io.read_profile_samples")),
    "io.write_scd_matrix.self_s": ("s", _self("io.write_scd_matrix")),
    "io.bytes_written": ("B", lambda t: t.bytes_written),
    "io.self_s": ("s", _layer("io")),
    "cli.main.self_s": ("s", _self("cli.main")),
}

# per-layer metrics read from outputs or from the untraced operations;
# a workload that has no such quantity reports 0
READOUTS = {
    "harness.pool_efficiency": "ratio",
    "harness.roc.max_abs_dpd": "1",
    "gev.staged_ll_gap.kappa_-0.3": "nat",
    "gev.staged_ll_gap.kappa_0": "nat",
    "gev.staged_ll_gap.kappa_0.1": "nat",
    "gev.staged_ll_gap.kappa_0.4": "nat",
    "gev.noise_fit_ks": "1",
    "gev.noise_fit_ks_critical": "1",
    "traced_wall_s": "s",
    "trace_overhead_frac": "ratio",
}

END_TO_END = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment(workload, args, cpus: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": _tree_digest(SRC / "cyclosense"),
        "python": platform.python_version(), "numpy": numpy.__version__, "cpus": cpus,
        "jobs": workload.jobs, "trace_jobs": TRACE_JOBS,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def _run_op(workload, out: Path, jobs: int, index: int,
            tracer=None) -> tuple[float, list[str]]:
    """One checked operation: (seconds in cyclosense, problems found).

    Only the operation runs under `tracer`; its output check does not.
    """
    start = perf_counter()
    try:
        with tracer or contextlib.nullcontext():
            wall = workload.run(out, jobs, index)
        problems = workload.check(out, index)
    except Exception as exc:  # a failed operation is counted; the loop goes on
        traceback.print_exc()
        return perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    for problem in problems:
        print(f"perfbench: {workload.name} op {index}: {problem}", file=sys.stderr)
    return wall, problems


def _differs(workload, out: Path, reference_digest: str) -> list[str]:
    """Problems when `out` is not byte-identical to outputs of the same inputs."""
    if _tree_digest(out) == reference_digest:
        return []
    problem = f"{out.name}: outputs differ from an earlier operation on the same inputs"
    print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)
    return [problem]


def _setup_samples(workload, count: int) -> list[float]:
    """Seconds for a fresh interpreter to import cyclosense and load the plan."""
    argv = [sys.executable, "-c", SETUP_SNIPPET]
    if workload.plan_path is not None:
        argv.append(str(workload.plan_path))
    samples = []
    for _ in range(count):
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True)
        samples.append(perf_counter() - start)
    return samples


def end_to_end(workload, seconds: float, run_dir: Path) -> dict:
    setup = _setup_samples(workload, SETUP_SAMPLES_BEFORE)
    walls, failed, first_digest = [], 0, None
    start = perf_counter()
    index = 0
    while True:
        out = run_dir / f"op{index}"
        wall, problems = _run_op(workload, out, workload.jobs, index)
        walls.append(wall)
        if not problems and workload.same_inputs_each_op:
            first_digest = first_digest or _tree_digest(out)
            problems = _differs(workload, out, first_digest)
        failed += bool(problems)
        shutil.rmtree(out, ignore_errors=True)
        index += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / index > seconds:
            break
    setup += _setup_samples(workload, SETUP_SAMPLES_AFTER)
    wall_s = statistics.median(walls)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {"wall_s": wall_s, "work_per_s": workload.work() / wall_s,
              "setup_s": statistics.median(setup), "peak_rss_mb": rss_kb / 1024.0}
    return {"correct": failed == 0, "attempted": index, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}}


def traced(workload, run_dir: Path) -> dict:
    from layertrace import LayerTracer

    # every operation reads the inputs of operation 0, so all outputs must be
    # byte-identical whatever the worker count or tracing
    attempted = failed = 0
    reference = None
    values = dict.fromkeys(READOUTS, 0.0)

    def op(name: str, jobs: int, tracer) -> float:
        nonlocal attempted, failed, reference
        wall, problems = _run_op(workload, run_dir / name, jobs, 0, tracer)
        reference = reference or _tree_digest(run_dir / name)
        problems = problems or _differs(workload, run_dir / name, reference)
        attempted += 1
        failed += bool(problems)
        if not problems and name == "traced":
            values.update(workload.readouts(run_dir / name))
        if name != "traced":
            shutil.rmtree(run_dir / name)
        return wall

    plain = LayerTracer(only=PHASES)
    plain_walls = [op("plain", TRACE_JOBS, plain)]
    if workload.jobs > TRACE_JOBS:
        pooled = LayerTracer(only=PHASES)
        op("pooled", workload.jobs, pooled)
        serial = sum(plain.get(q).total_s for q in PHASES)
        parallel = sum(pooled.get(q).total_s for q in PHASES)
        if parallel > 0:
            values["harness.pool_efficiency"] = serial / (workload.jobs * parallel)
    tracer = LayerTracer()
    traced_walls = [op("traced", TRACE_JOBS, tracer)]
    # short operations repeat as alternating plain/traced pairs, so that the
    # overhead is not the difference of two single noisy timings
    for _ in range(min(TRACE_PAIRS, int(TRACE_PAIR_SECONDS / plain_walls[0])) - 1):
        plain_walls.append(op("plain", TRACE_JOBS, None))
        traced_walls.append(op("traced_again", TRACE_JOBS, LayerTracer()))
    values["traced_wall_s"] = statistics.median(traced_walls)
    values["trace_overhead_frac"] = values["traced_wall_s"] / statistics.median(plain_walls) - 1.0
    metrics = {name: {"value": (int if unit in ("count", "B") else float)(fn(tracer)),
                      "unit": unit}
               for name, (unit, fn) in TRACED.items()}
    metrics.update({name: {"value": float(values[name]), "unit": unit}
                    for name, unit in READOUTS.items()})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("roc_desk", "collect_full", "fit_sweep", "scd_scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be nonnegative")

    cpus = len(os.sched_getaffinity(0))
    if cpus < MIN_CPUS:
        return _fail(f"{cpus} CPU available; the benchmark needs {MIN_CPUS}")
    if not (SRC / "cyclosense" / "__init__.py").is_file():
        return _fail(f"no cyclosense sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import cyclosense
    if Path(cyclosense.__file__).resolve().parent != (SRC / "cyclosense").resolve():
        return _fail(f"cyclosense was imported from {cyclosense.__file__}, not {SRC}")
    from workloads import WORKLOADS

    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        workload = WORKLOADS[args.workload](args.seed, run_dir)
        result = traced(workload, run_dir) if args.trace else end_to_end(
            workload, args.seconds, run_dir)
        env = _environment(workload, args, cpus)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"env": env}, sort_keys=True))
    print(f"{workload.name}: {result['attempted']} operations of {workload.work()} "
          f"{workload.work_unit}, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
