"""Micro-benchmarks of the GEV fitting layer at n = 10^4.

    PYTHONPATH=src python -m pytest benches/test_fit_layers.py -q --benchmark-columns=min,median,iqr,rounds

The staged fit (the default every command runs), the joint fit
(refine=True) and the desk preset-Pf threshold grid, each on draws from a
short-tailed, a Gumbel and a heavy-tailed law with the location and scale
of the desk noise maxima. Draws and fits are made once outside the timed
call. The directory is not in the test suite's `testpaths`.
"""

import pytest

from cyclosense import gev, harness

N = 10_000
KAPPAS = (-0.3, 0.0, 0.4)
PF_GRID = harness.desk_plan().pf_grid


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
