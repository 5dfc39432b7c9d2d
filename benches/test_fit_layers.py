"""Micro-benchmarks of the GEV fitting layer at n = 10^4 and n = 1,000.

    PYTHONPATH=src python -m pytest benches/test_fit_layers.py -q --benchmark-columns=min,median,iqr,rounds

The staged fit (the default every command runs), the joint fit
(refine=True) and the desk preset-Pf threshold grid, each on draws from a
short-tailed, a Gumbel and a heavy-tailed law with the location and scale
of the desk noise maxima. Draws and fits are made once outside the timed
call. The directory is not in the test suite's `testpaths`.

One log likelihood evaluation per Newton stage, `gev._derivatives` with
that stage's free coordinates, is timed at the point the stage ends on:
the Gumbel stage's (mu, log sigma), the staged fit's shape and the joint
fit's three parameters. It writes into one workspace, as every evaluation
of a fit does. The staged and joint fits are also timed at n = 1,000, the
size of one parametric-bootstrap replicate. The Kolmogorov-Smirnov
distance of n = 10^4 draws to their staged fit, which the benchmark's
fit_sweep takes twice per draw set, is timed on its own. `--benchmark-json`
records each call's minimum time as `per_call_us`.
"""

import numpy as np
import pytest

from cyclosense import gev, harness

N = 10_000
BOOTSTRAP_N = 1_000
KAPPAS = (-0.3, 0.0, 0.4)
PF_GRID = harness.desk_plan().pf_grid
STAGES = {"gumbel": (gev._GUMBEL, gev.fit_gumbel_mle),
          "shape": (gev._SHAPE, gev.fit_gev_mle),
          "joint": (gev._JOINT, lambda x: gev.fit_gev_mle(x, refine=True))}


@pytest.fixture(scope="module", params=KAPPAS, ids=lambda k: f"kappa={k:g}")
def draws(request):
    return gev.sample_gev(gev.GevParams(request.param, 0.0427, 0.0183), N, seed=1)


def test_staged_fit(benchmark, draws):
    benchmark(gev.fit_gev_mle, draws)


def test_joint_fit(benchmark, draws):
    benchmark(gev.fit_gev_mle, draws, refine=True)


def test_threshold_grid(benchmark, draws):
    params = gev.fit_gev_mle(draws).params
    benchmark(lambda: [gev.threshold_for_pf(pf, params) for pf in PF_GRID])


def record_per_call_us(benchmark):
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["per_call_us"] = benchmark.stats.stats.min * 1e6


@pytest.mark.parametrize("stage", STAGES.keys())
def test_derivatives(benchmark, stage):
    free, fit = STAGES[stage]
    x = gev.sample_gev(gev.GevParams(0.1, 0.0427, 0.0183), N, seed=1)
    p = fit(x).params
    theta = np.array([p.kappa, p.mu, np.log(p.sigma)])
    benchmark(gev._derivatives, x, theta, free, gev._workspace(N))
    record_per_call_us(benchmark)


@pytest.mark.parametrize("refine", [False, True], ids=["staged", "joint"])
def test_fit_at_bootstrap_size(benchmark, refine):
    x = gev.sample_gev(gev.GevParams(0.1, 0.0427, 0.0183), BOOTSTRAP_N, seed=1)
    benchmark(gev.fit_gev_mle, x, refine=refine)
    record_per_call_us(benchmark)


def test_ks_statistic(benchmark):
    x = gev.sample_gev(gev.GevParams(0.1, 0.0427, 0.0183), N, seed=1)
    benchmark(harness.ks_statistic, x, gev.fit_gev_mle(x).params)
    record_per_call_us(benchmark)
