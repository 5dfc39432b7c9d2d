import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

import cyclosense as cs
from cyclosense import harness
from cyclosense.harness import WindowRecord, exceedances


@pytest.fixture(scope="session")
def mini_plan() -> cs.ExperimentPlan:
    """Small, fast plan for structural tests: K=1024, 150/120 windows."""
    return replace(
        cs.desk_plan(7),
        signal_spec=cs.SignalSpec(1.0e6, 1.0e4, 3.0e6, 2048, "am", 0.5),
        scd_cfg=cs.ScdConfig(
            window_length_k=1024,
            smoothing_length=301,
            alpha_grid=(cs.snap_alpha_to_even_bin(2.0e6, 3.0e6, 1024),),
        ),
        noise_windows_l=150,
        signal_windows_m=120,
        snr_db_list=(-10.0, 0.0),
    )


# The dispatch target the fit and roc digests are pinned on, set before numpy
# loads: numpy's x86-64-v3 (AVX2) loops and OpenBLAS's Haswell kernels
PINNED_TARGET = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
                 "OPENBLAS_CORETYPE": "Haswell"}


@pytest.fixture(scope="session")
def pinned_python():
    """pinned_python(*args, **env) runs `python *args` in a child on
    PINNED_TARGET plus env, failing with its stderr if it exits non-zero.
    pytest's pythonpath does not reach a child: PYTHONPATH names src, and
    tests so that -c code can import the test modules."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])

    def run(*args, **env):
        child = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                               env={**os.environ, **PINNED_TARGET, "PYTHONPATH": path, **env})
        if child.returncode:
            pytest.fail(f"child python {args} exited {child.returncode}:\n{child.stderr}")
        return child

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def counts_above(monkeypatch):
    """counts_above(statistics, thresholds): exceedances' H0 counts for a
    record whose every batch holds the statistics, with the pf grid standing
    in for the thresholds; the H1 counts of both batches must match them."""
    monkeypatch.setattr(harness, "threshold_for_pf", lambda pf, params: pf)

    def counts(statistics, thresholds):
        batch = np.asarray(statistics, dtype=np.float64)
        record = WindowRecord(batch, batch, np.stack([batch, batch])[None])
        found, h0, h1 = exceedances(record, cs.GevParams(0.0, 0.09, 0.04), thresholds)
        assert found.tolist() == list(thresholds)
        assert h1.tolist() == [[h0.tolist()] * 2]
        return h0.tolist()

    return counts
