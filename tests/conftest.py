import ctypes

import numpy as np
import pytest
from dataclasses import replace
from numpy._core import _multiarray_umath

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


@pytest.fixture(scope="session")
def dispatch_target() -> tuple[str, str]:
    """(numpy's x86-64 level, OpenBLAS core) of this process: the SIMD ufunc
    loops and BLAS kernels whose rounding the fit and roc digests pin. The
    level is X86_V4 (AVX-512), X86_V3 (AVX2) or "below X86_V3"; the core is
    what the OpenBLAS behind numpy picked, or "unknown" without one."""
    features = _multiarray_umath.__cpu_features__
    level = next((name for name in ("X86_V4", "X86_V3") if features.get(name)), "below X86_V3")
    try:  # the wheel's OpenBLAS, reached through the extension that links it
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except AttributeError:
        return level, "unknown"
    corename.restype = ctypes.c_char_p
    return level, corename().decode()


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
