"""Micro-benchmarks of the SCD matrix export: `cyclosense scd` with a
699-column alpha scan (offsets -2792, -2784, ..., 2792) of the desk window.

    PYTHONPATH=src python -m pytest benches/test_scd_export.py -q --benchmark-columns=min,median,iqr,rounds

scd.estimate_scd builds the (K, 699) matrix, as complex128 or, as
`cyclosense scd` calls it, straight into the file's row-major complex64
layout; io.write_scd_matrix writes the complex128 matrix as a 23 MB
complex64 file plus its JSON header, cast included; the matrix is estimated
once outside the timed writes. Each records its minimum time per call as
`per_call_ms` in `--benchmark-json`. The directory is not in the test
suite's `testpaths`.
"""

from dataclasses import replace

import numpy as np
import pytest

from cyclosense import harness, io, scd

PLAN = harness.desk_plan()
CFG = replace(PLAN.scd_cfg, alpha_grid=tuple(range(-2792, 2793, 8)))
WINDOW = harness.export_window(PLAN)


def record_per_call(benchmark):
    """Record the minimum time per call; with --benchmark-disable the
    function runs once, untimed, and there is nothing to record."""
    if benchmark.stats is not None:
        benchmark.extra_info["per_call_ms"] = benchmark.stats.stats.min * 1e3


@pytest.fixture(scope="module")
def matrix():
    return scd.estimate_scd(WINDOW, CFG)


def test_estimate_scd(benchmark):
    benchmark(scd.estimate_scd, WINDOW, CFG)
    record_per_call(benchmark)


def test_export_complex64(benchmark):
    shape = (CFG.window_length_k, len(CFG.alpha_grid))
    benchmark(lambda: scd.estimate_scd(WINDOW, CFG, out=np.empty(shape, dtype="<c8")))
    record_per_call(benchmark)


def test_write_scd_matrix(benchmark, matrix, tmp_path):
    benchmark(io.write_scd_matrix, tmp_path / "scd", matrix)
    record_per_call(benchmark)
