"""Extreme value distribution and fitting tests.

Expected values were computed from independent oracles before the
implementation was written: scipy.stats.genextreme (shape c = -kappa) for
densities and CDFs, numerical quadrature for normalization, centered finite
differences for the pdf/cdf relation, and numeric CDF inversion for
quantiles/thresholds. Oracle constants are frozen below.
"""

import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.stats import genextreme

import cyclosense as cs
import cyclosense.gev as gev_module
from cyclosense.gev import KAPPA_EPS, _derivatives, _quantile, _workspace, log_likelihood

# SHA-256 of every fit in fit_digest() by a child on the pinned dispatch target
# (PINNED_TARGET in conftest.py). A change that moves the fits re-pins this one
# value, which the test's own child computes
FIT_DIGEST = "f1a9503befad64f4dea9f2c62f108f11327db751e7802d80594168cde970abf7"

# frozen oracle constants
PDF_GUMBEL01_AT_1 = 0.2546463800435825        # exp(-exp(-1) - 1)
THR_GUMBEL01_PF05 = 2.9701952490421646        # -log(-log(0.95))
THR_GEV01_PF10 = 2.5236871827051544           # numeric inversion, kappa=0.1
CDF_GEV01_AT_2524 = 0.9000236823608617        # genextreme.cdf(2.524, -0.1)
GUMBEL01_MEDIAN = 0.36651292058166435         # -log(log(2))
PF_AT_YP_ONE = 0.6321205588285577             # 1 - exp(-1)


def gev(kappa, mu=0.0, sigma=1.0):
    return cs.GevParams(kappa, mu, sigma)


class TestPdf:
    @pytest.mark.parametrize("kappa", [-0.3, 0.0, 0.3])
    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_value_at_location_is_inverse_e(self, kappa, sigma):
        assert cs.pdf(3.0, gev(kappa, 3.0, sigma)) == pytest.approx(np.exp(-1.0) / sigma, rel=1e-12)

    def test_outside_support_is_zero(self):
        assert cs.pdf(-2.5, gev(0.5)) == 0.0
        assert cs.pdf(5.0, gev(-0.5)) == 0.0

    def test_gumbel_value_matches_oracle(self):
        assert cs.pdf(1.0, gev(0.0)) == pytest.approx(PDF_GUMBEL01_AT_1, rel=1e-12)

    @pytest.mark.parametrize("kappa", [-0.3, -0.05, 0.05, 0.3])
    def test_matches_scipy_genextreme(self, kappa):
        params = gev(kappa, 1.5, 0.7)
        x = np.linspace(-2.0, 6.0, 41)
        np.testing.assert_allclose(
            cs.pdf(x, params),
            genextreme.pdf(x, -kappa, loc=1.5, scale=0.7),
            rtol=1e-11, atol=1e-300,
        )

    @pytest.mark.parametrize("kappa", [-0.3, 0.0, 0.3])
    def test_normalization(self, kappa):
        # kappa=0.3 has a x**(-4.3) tail, so the truncation point must be far out
        params = gev(kappa)
        total, _ = integrate.quad(lambda x: cs.pdf(x, params), -25.0, 5000.0,
                                  limit=800, points=[0.0, 5.0, 50.0])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonfinite_x(self):
        with pytest.raises(ValueError):
            cs.pdf(np.nan, gev(0.0))


class TestCdf:
    @pytest.mark.parametrize("kappa", [-0.3, 0.0, 0.3])
    def test_value_at_location(self, kappa):
        assert cs.cdf(0.0, gev(kappa)) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_limits(self):
        assert cs.cdf(1e12, gev(0.0)) == 1.0
        assert cs.cdf(-1e12, gev(0.0)) == 0.0
        assert cs.cdf(-50.0, gev(0.5)) == 0.0     # below lower endpoint
        assert cs.cdf(50.0, gev(-0.5)) == 1.0     # above upper endpoint

    def test_quantile_consistency_with_oracle(self):
        assert cs.cdf(2.524, gev(0.1)) == pytest.approx(CDF_GEV01_AT_2524, rel=1e-12)

    def test_monotone_nondecreasing(self):
        params = gev(0.3, 1.0, 2.0)
        values = cs.cdf(np.linspace(-10, 40, 301), params)
        assert np.all(np.diff(values) >= 0.0)

    @pytest.mark.parametrize("kappa", [-0.3, 0.3])
    def test_finite_difference_of_cdf_matches_pdf(self, kappa):
        params = gev(kappa, 0.5, 1.3)
        xs = np.linspace(-1.0, 4.0, 21)
        h = 1e-5
        fd = (cs.cdf(xs + h, params) - cs.cdf(xs - h, params)) / (2 * h)
        np.testing.assert_allclose(fd, cs.pdf(xs, params), atol=1e-6)

    @pytest.mark.parametrize("kappa", [-0.3, 0.3])
    def test_all_inside_the_support_equals_the_masked_evaluation_bit_for_bit(self, kappa):
        # one point past the endpoint sends the same points through the masked path
        params = gev(kappa, 0.0427, 0.0183)
        draws = cs.sample_gev(params, 10_000, seed=4)
        outside = 0.0427 - 0.0183 / kappa - np.sign(kappa)
        masked = cs.cdf(np.append(draws, outside), params)
        assert masked[-1] == (0.0 if kappa > 0 else 1.0)
        assert cs.cdf(draws, params).tobytes() == masked[:-1].tobytes()


class TestBranchContinuity:
    def test_pdf_continuous_across_kappa_switch(self):
        xs = np.linspace(-2.0, 5.0, 29)
        for sign in (+1.0, -1.0):
            edge = gev(sign * KAPPA_EPS)
            delta = np.abs(cs.pdf(xs, edge) - cs.pdf(xs, gev(0.0)))
            assert np.max(delta) <= 1e-8

    def test_cdf_continuous_just_outside_switch(self):
        xs = np.linspace(-2.0, 5.0, 29)
        near = gev(1.01 * KAPPA_EPS)
        delta = np.abs(cs.cdf(xs, near) - cs.cdf(xs, gev(0.0)))
        assert np.max(delta) <= 1e-4


# shapes on both sides of +KAPPA_EPS and of -KAPPA_EPS, and 0
SHAPES_AT_SWITCH = st.sampled_from([-1.0, 1.0]).flatmap(
    lambda sign: st.floats(0.5, 2.0).map(lambda factor: sign * factor * KAPPA_EPS)) | st.just(0.0)


@settings(deadline=None, derandomize=True, database=None)
@given(kappa=SHAPES_AT_SWITCH, probability=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(kappa=KAPPA_EPS, probability=0.5)
@example(kappa=-KAPPA_EPS, probability=0.5)
@example(kappa=KAPPA_EPS * (1 + 1e-9), probability=1e-300)
@example(kappa=-KAPPA_EPS * (1 + 1e-9), probability=1 - 2**-53)
def test_cdf_inverts_quantile_across_the_kappa_switch(kappa, probability):
    # F = exp(-v) at the quantile; outside the switch v = t**(-1/kappa) turns a
    # rounding error of t into a relative error of about 2.2e-16/|kappa| in v,
    # which moves F by at most F*v <= 1/e times that: 8e-11 at the switch
    params = gev(kappa, 0.0427, 0.0183)
    x = _quantile(-np.log(probability), params)
    assert np.isfinite(x)
    assert abs(cs.cdf(x, params) - probability) <= 1e-10


class TestThreshold:
    def test_gumbel_oracle_value(self):
        assert cs.threshold_for_pf(0.05, gev(0.0)) == pytest.approx(THR_GUMBEL01_PF05, rel=1e-12)

    def test_gev_oracle_value(self):
        assert cs.threshold_for_pf(0.1, gev(0.1)) == pytest.approx(THR_GEV01_PF10, rel=1e-12)

    @pytest.mark.parametrize("kappa", [-0.3, 0.0, 1e-7, 0.3])
    def test_yp_equal_one_returns_location(self, kappa):
        assert cs.threshold_for_pf(PF_AT_YP_ONE, gev(kappa, 7.5, 2.0)) == pytest.approx(7.5, abs=1e-12)

    @pytest.mark.parametrize("kappa", [-0.3, 0.0, 1e-7, 0.3])
    @pytest.mark.parametrize("pf", [1e-3, 0.01, 0.05, 0.1, 0.5])
    def test_round_trip(self, kappa, pf):
        params = gev(kappa, 0.04, 0.018)
        lam = cs.threshold_for_pf(pf, params)
        assert abs((1.0 - cs.cdf(lam, params)) - pf) <= 1e-10

    @pytest.mark.parametrize("pf", [0.0, 1.0, -0.2, 1.7, np.nan,
                                    pytest.param(10**400, id="beyond-float")])
    def test_domain_errors(self, pf):
        with pytest.raises(ValueError):
            cs.threshold_for_pf(pf, gev(0.0))


def pf_of_threshold(threshold, model):
    """False-alarm probability of a threshold under the noise model."""
    return 1.0 - cs.cdf(threshold, model)


class TestTheoreticalPf:
    def test_at_location_parameter(self):
        assert pf_of_threshold(0.09, gev(0.0, 0.09, 0.04)) == pytest.approx(
            1.0 - np.exp(-1.0), rel=1e-12)

    def test_round_trip_with_threshold(self):
        model = cs.GevParams(0.12, 0.05, 0.02)
        lam = cs.threshold_for_pf(0.05, model)
        assert pf_of_threshold(lam, model) == pytest.approx(0.05, abs=1e-10)

    def test_infinite_threshold_limit(self):
        assert pf_of_threshold(np.inf, gev(0.0, 0.09, 0.04)) == 0.0

    def test_statistic_threshold_inverse_pair(self):
        model = cs.GevParams(-0.2, 1.0, 0.3)
        for pf in (0.01, 0.1, 0.5, 0.9):
            lam = cs.threshold_for_pf(pf, model)
            assert pf_of_threshold(lam, model) == pytest.approx(pf, abs=1e-10)


class TestSampleGev:
    def test_gumbel_median(self):
        draws = cs.sample_gev(gev(0.0), 10**5, seed=17)
        assert abs(np.median(draws) - GUMBEL01_MEDIAN) <= 0.02

    def test_single_draw_inside_support(self):
        value = cs.sample_gev(gev(0.4, 2.0, 0.5), 1, seed=1)[0]
        assert np.isfinite(value) and value > 2.0 - 0.5 / 0.4

    def test_determinism(self):
        a = cs.sample_gev(gev(0.2), 100, seed=5)
        b = cs.sample_gev(gev(0.2), 100, seed=5)
        assert np.array_equal(a, b)

    def test_empirical_cdf_converges(self):
        params = gev(-0.2, 1.0, 0.5)
        draws = cs.sample_gev(params, 10**5, seed=23)
        for q in (0.1, 0.5, 0.9):
            assert np.mean(cs.cdf(draws, params) <= q) == pytest.approx(q, abs=0.01)

    @pytest.mark.parametrize("n", [1.5, float("inf"), float("nan"), -1, 0])
    def test_rejects_bad_count(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            cs.sample_gev(gev(0.1), n, seed=1)

    @pytest.mark.parametrize("seed", [1.5, float("inf"), float("nan"), -1])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be"):
            cs.sample_gev(gev(0.1), 10, seed=seed)


class TestGumbelFit:
    def test_recovers_parameters(self):
        draws = cs.sample_gev(gev(0.0, 5.0, 2.0), 10000, seed=1)
        report = cs.fit_gumbel_mle(draws)
        assert report.converged
        assert abs(report.params.mu - 5.0) <= 0.08
        assert abs(report.params.sigma - 2.0) <= 0.06

    def test_score_residuals_within_tol(self):
        draws = cs.sample_gev(gev(0.0, 1.0, 3.0), 5000, seed=2)
        report = cs.fit_gumbel_mle(draws)
        assert report.solver_tol == 1e-9
        z = (draws - report.params.mu) / report.params.sigma
        w = np.exp(-z)
        assert abs(np.mean(w) - 1.0) <= 1e-9
        assert abs(np.mean(z * (1.0 - w)) - 1.0) <= 1e-9

    def test_one_far_low_outlier_converges(self):
        # the moment estimate would put exp(-z) of the outlier beyond float range
        draws = np.zeros(400_000)
        draws[0] = -1.0
        report = cs.fit_gumbel_mle(draws)
        assert report.converged
        assert np.isfinite(report.log_likelihood)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(cs.DegenerateDataError):
            cs.fit_gumbel_mle(np.full(200, 3.25))
        with pytest.raises(cs.DegenerateDataError):
            cs.fit_gumbel_mle(np.arange(10.0))


class TestGevFit:
    def test_gumbel_data_yields_small_kappa(self):
        draws = cs.sample_gev(gev(0.0, 5.0, 2.0), 10000, seed=6)
        report = cs.fit_gev_mle(draws)
        assert report.converged
        assert abs(report.params.kappa) <= 0.05

    def test_kappa_is_a_local_maximum(self):
        draws = cs.sample_gev(gev(0.1, 3.0, 0.5), 10000, seed=7)
        report = cs.fit_gev_mle(draws)
        k, mu, sigma = report.params.kappa, report.params.mu, report.params.sigma
        here = log_likelihood(draws, cs.GevParams(k, mu, sigma))
        for delta in (-1e-3, 1e-3):
            assert log_likelihood(draws, cs.GevParams(k + delta, mu, sigma)) <= here

    def test_staged_shape_estimate_near_truth(self):
        draws = cs.sample_gev(gev(0.1, 3.0, 0.5), 10000, seed=8)
        report = cs.fit_gev_mle(draws)
        assert abs(report.params.kappa - 0.1) <= 0.04

    def test_refine_recovers_joint_mle(self):
        draws = cs.sample_gev(gev(0.1, 3.0, 0.5), 10000, seed=9)
        staged = cs.fit_gev_mle(draws)
        refined = cs.fit_gev_mle(draws, refine=True)
        assert refined.log_likelihood >= staged.log_likelihood
        c, loc, scale = genextreme.fit(draws)
        assert refined.params.kappa == pytest.approx(-c, abs=5e-3)
        assert refined.params.mu == pytest.approx(loc, abs=5e-3)
        assert refined.params.sigma == pytest.approx(scale, abs=5e-3)

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("n", [30, 500])
    @pytest.mark.parametrize("kappa", [-0.3, 0.4])
    def test_short_and_heavy_tailed_fits_stay_in_support(self, kappa, n, refine):
        draws = cs.sample_gev(gev(kappa, 0.0427, 0.0183), n, seed=10)
        report = cs.fit_gev_mle(draws, refine=refine)
        assert np.isfinite(report.log_likelihood)  # every sample inside the support
        assert report.params.kappa > -1.0

    def test_report_metadata(self):
        draws = cs.sample_gev(gev(0.0, 0.0, 1.0), 500, seed=12)
        report = cs.fit_gev_mle(draws)
        assert report.sample_count == 500
        assert report.solver_tol == 1e-9
        assert report.iterations > 0
        assert np.isfinite(report.log_likelihood)


FITS = {"gumbel": cs.fit_gumbel_mle, "staged": cs.fit_gev_mle,
        "joint": lambda x: cs.fit_gev_mle(x, refine=True)}


# every taker of a sample vector checks it as SampleBuffer does
SAMPLE_TAKERS = {**FITS, "log_likelihood": lambda x: log_likelihood(x, gev(0.0)),
                 "ks_statistic": lambda x: cs.ks_statistic(x, gev(0.0))}
DRAWS = np.arange(400.0) / 400


@pytest.mark.parametrize("take", SAMPLE_TAKERS.values(), ids=SAMPLE_TAKERS.keys())
@pytest.mark.parametrize("samples", [DRAWS + 1j * DRAWS, DRAWS.reshape(20, 20), [],
                                     np.append(DRAWS, np.nan)],
                         ids=["complex", "2-D", "empty", "nan"])
def test_sample_vectors_are_checked_by_one_rule(take, samples):
    with pytest.raises(ValueError, match="^samples must"):
        take(samples)


@pytest.mark.parametrize("function", [cs.pdf, cs.cdf], ids=["pdf", "cdf"])
@pytest.mark.parametrize("x", [0.5 + 0.5j, DRAWS + 1j * DRAWS], ids=["scalar", "array"])
def test_density_and_distribution_refuse_complex_x(function, x):
    with pytest.raises(ValueError, match="^x must be real, not complex"):
        function(x, gev(0.1))


@pytest.mark.parametrize("field", ["kappa", "mu"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 10**400, -10**400],
                         ids=["nan", "inf", "-inf", "beyond-float", "below-float"])
def test_params_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        cs.GevParams(**{"kappa": 0.1, "mu": 0.0, "sigma": 1.0, field: value})


@pytest.mark.parametrize("fit", FITS.values(), ids=FITS.keys())
def test_samples_too_large_for_a_finite_start_point_are_degenerate(fit):
    # np.var overflows float64: the moment scale is inf and the location nan
    draws = np.random.default_rng(0).standard_normal(200) * 1e160
    with pytest.raises(cs.DegenerateDataError, match="no finite start point"):
        fit(draws)


@pytest.mark.parametrize("fit", FITS.values(), ids=FITS.keys())
@settings(deadline=None, derandomize=True, database=None, max_examples=50)
@given(kappa=st.floats(-0.3, 0.4), b=st.floats(1e-3, 1e3), a=st.floats(-1e3, 1e3))
@example(kappa=0.0, b=1e-3, a=1e3)
def test_fits_are_equivariant_under_affine_maps(fit, kappa, b, a):
    # fitting b*x + a gives kappa, a + b*mu and b*sigma, to well within the
    # 1e-9 per-sample score tolerance's effect on the parameters
    draws = cs.sample_gev(gev(kappa, 0.0427, 0.0183), 500, seed=11)
    base, mapped = fit(draws).params, fit(b * draws + a).params
    tol = 1e-6 * b * base.sigma
    assert abs(mapped.kappa - base.kappa) <= 1e-6
    assert abs(mapped.mu - (a + b * base.mu)) <= tol
    assert abs(mapped.sigma - b * base.sigma) <= tol


def scale_free_score(draws, params):
    """Per-sample (dl/dkappa, sigma*dl/dmu, dl/dlog sigma) at params."""
    _, score, _ = _derivatives(_workspace(draws), (params.kappa, params.mu, np.log(params.sigma)))
    return score * np.array([1.0, params.sigma, 1.0]) / draws.size


class TestConvergence:
    @pytest.mark.parametrize("kappa", [-0.3, 0.0, 0.1, 0.4])
    def test_converged_fit_has_free_scores_within_tol(self, kappa):
        draws = cs.sample_gev(gev(kappa, 0.0427, 0.0183), 10_000, 1234)
        joint = cs.fit_gev_mle(draws, refine=True)
        assert joint.converged
        assert np.max(np.abs(scale_free_score(draws, joint.params))) <= joint.solver_tol
        staged = cs.fit_gev_mle(draws)  # only the shape is free in its last stage
        assert staged.converged
        assert abs(scale_free_score(draws, staged.params)[0]) <= staged.solver_tol

    def test_one_iteration_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(gev_module, "_MAX_ITER", 1)
        draws = cs.sample_gev(gev(0.1, 0.0427, 0.0183), 10_000, 1234)
        gumbel = cs.fit_gumbel_mle(draws)
        joint = cs.fit_gev_mle(draws, refine=True)
        assert not gumbel.converged and gumbel.iterations == 1
        assert not joint.converged

    @pytest.mark.parametrize("seed", [2, 15, 19, 27])
    def test_heavy_tailed_joint_fits_converge(self, seed):
        # a joint stage after the Gumbel and shape stages gave up in its line
        # search on these draws after 61-208 steps; one stage from the
        # L-moment start converges in 6-11
        draws = cs.sample_gev(gev(1.2, 0.0427, 0.0183), 10_000, seed)
        joint = cs.fit_gev_mle(draws, refine=True)
        assert joint.converged
        assert np.max(np.abs(scale_free_score(draws, joint.params))) <= joint.solver_tol


def l_moment_oracle(draws):
    """(k, lambda1, lambda2) of the probability-weighted-moment GEV estimate
    (Hosking, Wallis & Wood 1985), from the L-moments' definitions as sums
    over every pair and triple of order statistics (Hosking 1990, eq. 2.3)."""
    x = np.sort(draws)
    pairs = np.array(list(itertools.combinations(range(x.size), 2)))
    triples = np.array(list(itertools.combinations(range(x.size), 3)))
    lambda2 = np.mean(x[pairs[:, 1]] - x[pairs[:, 0]]) / 2
    lambda3 = np.mean(x[triples[:, 2]] - 2 * x[triples[:, 1]] + x[triples[:, 0]]) / 3
    c = 2 / (3 + lambda3 / lambda2) - np.log(2) / np.log(3)
    return 7.8590 * c + 2.9554 * c**2, np.mean(x), lambda2


def l_moment_params(draws):
    """The oracle's (kappa, mu, sigma) by the estimator's general formulas."""
    k, lambda1, lambda2 = l_moment_oracle(draws)
    gamma = math.gamma(1 + k)
    sigma = lambda2 * k / ((1 - 2**-k) * gamma)
    return -k, lambda1 - sigma * (1 - gamma) / k, sigma


@pytest.fixture
def newton_starts(monkeypatch):
    """The (theta, free) each Newton stage of a fit starts from, in order."""
    starts, newton = [], gev_module._newton

    def recording(work, theta, free):
        starts.append((tuple(float(c) for c in theta), free))
        return newton(work, theta, free)

    monkeypatch.setattr(gev_module, "_newton", recording)
    return starts


def three_stage_optimum(draws):
    """The joint maximum reached through the Gumbel, shape and joint stages."""
    return gev_module._fit(draws, (gev_module._GUMBEL, gev_module._SHAPE, gev_module._JOINT))


def assert_reaches_the_three_stage_optimum(draws, report):
    """report converged where the three-stage fit did, its log likelihood is
    at least the optimum's less the line search's rounding slack, and its
    (kappa, mu/sigma, log sigma) agree within 1e-7 (at most 1.1e-9 was seen
    over 1,500 draw sets with kappa in [-0.4, 0.6] and n in [30, 2000])."""
    optimum = three_stage_optimum(draws)
    assert report.converged and optimum.converged
    slack = 1e-12 * (draws.size + abs(optimum.log_likelihood))
    assert report.log_likelihood >= optimum.log_likelihood - slack
    p, q = report.params, optimum.params
    assert abs(p.kappa - q.kappa) <= 1e-7
    assert abs(p.mu - q.mu) / q.sigma <= 1e-7
    assert abs(np.log(p.sigma / q.sigma)) <= 1e-7


class TestLMomentStart:
    """fit_gev_mle(refine=True) runs one joint stage from the L-moment estimate,
    or from the Gumbel start point where that estimate is unusable."""

    def gumbel_start(self, draws, newton_starts):
        cs.fit_gumbel_mle(draws)
        (theta, free), = newton_starts
        newton_starts.clear()
        return (0.0, *theta[1:])

    @pytest.mark.parametrize("kappa", [-0.3, 0.1, 0.4])
    def test_the_one_stage_starts_at_the_l_moment_estimate(self, newton_starts, kappa):
        draws = cs.sample_gev(gev(kappa, 0.0427, 0.0183), 100, seed=3)
        report = cs.fit_gev_mle(draws, refine=True)
        (theta, free), = newton_starts
        expected_kappa, mu, sigma = l_moment_params(draws)
        assert free == (0, 1, 2)
        np.testing.assert_allclose(theta, (expected_kappa, mu, np.log(sigma)), rtol=1e-12,
                                   atol=1e-12)
        assert_reaches_the_three_stage_optimum(draws, report)

    @pytest.mark.parametrize("seed", [0, 14, 18])
    def test_an_off_support_start_falls_back_to_the_gumbel_start(self, newton_starts, seed):
        draws = cs.sample_gev(gev(-0.45, 0.0427, 0.0183), 30, seed)
        kappa, mu, sigma = l_moment_params(draws)
        assert -1 < kappa < 0 and mu - sigma / kappa < draws.max()  # upper endpoint below max(x)
        report = cs.fit_gev_mle(draws, refine=True)
        (theta, free), = newton_starts
        newton_starts.clear()
        assert free == (0, 1, 2) and theta == self.gumbel_start(draws, newton_starts)
        assert_reaches_the_three_stage_optimum(draws, report)

    def test_a_start_with_a_term_beyond_the_sample_count_falls_back(self, newton_starts):
        # the smallest sample moved 90 % of the way to the lower endpoint of
        # the draws' estimate; the new estimate keeps every sample inside its
        # support, but exp(-y) = t**(-1/kappa) at the smallest sample is above
        # n, where the terms sum to n at every maximum in (mu, sigma)
        draws = cs.sample_gev(gev(0.1, 0.0427, 0.0183), 100, seed=0)
        kappa, mu, sigma = l_moment_params(draws)
        low = np.argmin(draws)
        draws[low] -= 0.9 * (draws[low] - (mu - sigma / kappa))
        kappa, mu, sigma = l_moment_params(draws)
        t = 1 + kappa * (draws[low] - mu) / sigma
        assert 0 < t and t ** (-1 / kappa) > draws.size
        report = cs.fit_gev_mle(draws, refine=True)
        (theta, free), = newton_starts
        newton_starts.clear()
        assert theta == self.gumbel_start(draws, newton_starts)
        assert_reaches_the_three_stage_optimum(draws, report)

    def test_a_start_within_kappa_eps_takes_the_gumbel_branch(self, newton_starts):
        # bisect the law's shape until the estimate's k lies within KAPPA_EPS
        def start(kappa):
            draws = cs.sample_gev(gev(kappa, 0.0427, 0.0183), 100, seed=5)
            newton_starts.clear()
            report = cs.fit_gev_mle(draws, refine=True)
            return draws, report, newton_starts[0][0]

        low, high = -0.2, 0.2
        assert start(low)[2][0] < 0 < start(high)[2][0]
        for _ in range(60):
            middle = (low + high) / 2
            draws, report, theta = start(middle)
            if theta[0] == 0.0:
                break
            low, high = (middle, high) if theta[0] < 0 else (low, middle)
        else:
            pytest.fail("no law shape in [-0.2, 0.2] gave a start within KAPPA_EPS")
        k, lambda1, lambda2 = l_moment_oracle(draws)
        assert abs(k) <= KAPPA_EPS
        sigma = lambda2 / np.log(2)  # the k -> 0 limit of the general formulas
        np.testing.assert_allclose(theta[1:], (lambda1 - np.euler_gamma * sigma, np.log(sigma)),
                                   rtol=1e-12)
        assert_reaches_the_three_stage_optimum(draws, report)
        # just outside the switch the general formulas meet the limit to O(k)
        for edge in (low, high):
            outside = start(edge)[2]
            assert outside[0] != 0.0
            np.testing.assert_allclose(outside[1:], theta[1:], rtol=10 * abs(outside[0]))


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(kappa=st.floats(-0.4, 0.6), n=st.integers(30, 2000), seed=st.integers(0, 2**32 - 1))
@example(kappa=-0.4, n=30, seed=0)
@example(kappa=0.6, n=2000, seed=0)
def test_the_one_stage_fit_reaches_the_three_stage_optimum(kappa, n, seed):
    draws = cs.sample_gev(gev(kappa, 0.0427, 0.0183), n, seed)
    assert_reaches_the_three_stage_optimum(draws, cs.fit_gev_mle(draws, refine=True))


class TestDerivatives:
    """_derivatives against central differences of log_likelihood.

    Steps of 1e-4 in kappa and log sigma and 1e-4*sigma in mu keep every
    evaluation of a point off the Gumbel branch on its own side of the
    KAPPA_EPS switch. At kappa = 0 the Gumbel branch of log_likelihood does
    not depend on kappa, so the kappa stencil there samples the GEV branch on
    both sides, the law the Gumbel limit continues.
    """

    @pytest.mark.parametrize("kappa", [-0.3, -1e-3, 0.0, 1e-3, 0.4])
    def test_score_and_hessian_match_central_differences(self, kappa):
        draws = cs.sample_gev(gev(kappa, 0.5, 0.3), 200, seed=3)
        theta = np.array([kappa, 0.49, np.log(0.31)])
        steps = np.diag([1e-4, 1e-4 * 0.31, 1e-4])

        def ll(t):
            return log_likelihood(draws, cs.GevParams(t[0], t[1], np.exp(t[2])))

        value, score, hessian = _derivatives(_workspace(draws), theta)
        assert value == pytest.approx(ll(theta), rel=1e-13)
        fd_score = [(ll(theta + e) - ll(theta - e)) / (2 * e.sum()) for e in steps]
        fd_hessian = [[(ll(theta + e + f) - ll(theta + e - f) - ll(theta - e + f)
                        + ll(theta - e - f)) / (4 * e.sum() * f.sum()) for f in steps]
                      for e in steps]
        np.testing.assert_allclose(score, fd_score, rtol=1e-4)
        np.testing.assert_allclose(hessian, fd_hessian, rtol=0, atol=1e-4 * np.max(np.abs(hessian)))

    def test_off_support_point_has_no_derivatives(self):
        draws = np.array([0.0, 1.0, 10.0])
        assert _derivatives(_workspace(draws), (-0.5, 0.0, 0.0)) == (float("-inf"), None, None)


# (n, kappa) of the sample_gev draws in fit_digest
DIGEST_DRAWS = [(n, kappa) for n in (200, 10_000) for kappa in (-0.3, 0.0, 0.1, 0.4)]


def fit_digest():
    """SHA-256 over (kappa, mu, sigma, log likelihood, Newton steps, converged)
    of the staged and joint fits of sample_gev draws at n = 200 and 10**4,
    and of the staged fit of desk_plan(42)'s noise maxima."""
    digest = hashlib.sha256()

    def add(report):
        p = report.params
        digest.update(repr((p.kappa, p.mu, p.sigma, report.log_likelihood,
                            report.iterations, report.converged)).encode())

    for n, kappa in DIGEST_DRAWS:
        draws = cs.sample_gev(gev(kappa, 0.0427, 0.0183), n, seed=7)
        add(cs.fit_gev_mle(draws))
        add(cs.fit_gev_mle(draws, refine=True))
    add(cs.fit_gev_mle(cs.collect_noise_profile(cs.desk_plan(42))))
    return digest.hexdigest()


def test_fits_are_pinned_bit_for_bit(pinned_python):
    child = pinned_python("-c", "import test_gev; print(test_gev.fit_digest())")
    assert child.stdout.strip() == FIT_DIGEST


def test_children_run_the_pinned_target(pinned_python):
    # the pins hold only on the target they were computed on; a runner that
    # cannot run it fails here, naming what its child ran instead
    code = ("import json; from numpy.lib.introspect import opt_func_info; "
            "print(json.dumps(opt_func_info(func_name='exp|log', signature='float64')))")
    child = pinned_python("-c", code, OPENBLAS_VERBOSE="2")
    loops = {name: sig["current"] for name, info in json.loads(child.stdout).items()
             if name in ("exp", "log") for sig in info.values()}
    assert loops == {"exp": "X86_V3", "log": "X86_V3"}, f"numpy's float64 loops: {loops}"
    assert "Core: Haswell" in child.stderr, f"OpenBLAS: {child.stderr}"


def assert_reports_its_log_likelihood(draws):
    """Each fit reports the likelihood its solver held at the optimum, bit for
    bit the value of log_likelihood, the reference, at the reported parameters."""
    for fit in FITS.values():
        report = fit(draws)
        assert report.log_likelihood.hex() == log_likelihood(draws, report.params).hex()


@pytest.mark.parametrize("n, kappa", DIGEST_DRAWS)
def test_reported_log_likelihood_is_log_likelihood_bit_for_bit(n, kappa):
    assert_reports_its_log_likelihood(cs.sample_gev(gev(kappa, 0.0427, 0.0183), n, seed=7))


def test_desk_noise_fits_report_log_likelihood_bit_for_bit():
    assert_reports_its_log_likelihood(cs.collect_noise_profile(cs.desk_plan(42)))


FREE_SETS = {"gumbel": (1, 2), "shape": (0,), "joint": (0, 1, 2)}


@pytest.mark.parametrize("free", FREE_SETS.values(), ids=FREE_SETS.keys())
@settings(deadline=None, derandomize=True, database=None)
@given(kappa=st.sampled_from([0.0, KAPPA_EPS, -KAPPA_EPS]) | st.floats(-0.5, 1.0),
       n=st.integers(30, 300), seed=st.integers(0, 2**32 - 1),
       d_mu=st.floats(-0.1, 0.1), d_log_sigma=st.floats(-0.1, 0.1))
def test_stage_derivatives_equal_the_full_evaluation_bit_for_bit(free, kappa, n, seed, d_mu,
                                                                  d_log_sigma):
    draws = cs.sample_gev(gev(kappa, 0.0427, 0.0183), n, seed)
    theta = (kappa, 0.0427 + d_mu * 0.0183, np.log(0.0183) + d_log_sigma)
    ll, score, hessian = _derivatives(_workspace(draws), theta)
    stage_ll, stage_score, stage_hessian = _derivatives(_workspace(draws), theta, free)
    assert stage_ll == ll
    if score is None:  # a sample off the support
        assert stage_score is None and stage_hessian is None
        return
    block, fixed = np.ix_(free, free), [i for i in range(3) if i not in free]
    assert stage_score[list(free)].tobytes() == score[list(free)].tobytes()
    assert stage_hessian[block].tobytes() == hessian[block].tobytes()
    assert np.isnan(stage_score[fixed]).all()
    assert np.isnan(stage_hessian[fixed]).all() and np.isnan(stage_hessian[:, fixed]).all()


@pytest.mark.parametrize("free", FREE_SETS.values(), ids=FREE_SETS.keys())
@pytest.mark.parametrize("kappa", [0.1, 0.0], ids=["kappa=0.1", "kappa=0"])
def test_workspace_evaluation_allocates_no_sample_length_array(free, kappa):
    draws = cs.sample_gev(gev(kappa, 0.0427, 0.0183), 10_000, seed=1)
    theta = (kappa, 0.0427, np.log(0.0183))
    work = _workspace(draws)

    def peak_above_baseline(make_work):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = _derivatives(make_work(), theta, free)
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    (ll, score, hessian), peak = peak_above_baseline(lambda: work)
    assert score is not None and peak < draws.nbytes
    # the same measurement sees the workspace a fresh evaluation allocates
    (fresh_ll, fresh_score, fresh_hessian), fresh_peak = peak_above_baseline(
        lambda: _workspace(draws))
    assert fresh_peak > draws.nbytes
    assert (fresh_ll, fresh_score.tobytes(), fresh_hessian.tobytes()) == (
        ll, score.tobytes(), hessian.tobytes())


def test_every_evaluation_of_a_fit_shares_one_workspace(monkeypatch):
    works = []
    derivatives = gev_module._derivatives

    def recording(work, theta, free=(0, 1, 2)):
        works.append(work)
        return derivatives(work, theta, free)

    monkeypatch.setattr(gev_module, "_derivatives", recording)
    report = cs.fit_gev_mle(cs.sample_gev(gev(0.1, 0.0427, 0.0183), 1000, seed=7), refine=True)
    # the one stage's start point, accepted steps and rejected trial steps
    assert len(works) >= report.iterations + 1
    assert works[0] is not None and all(work is works[0] for work in works)


def assert_same_evaluation(result, fresh):
    assert (result[0], result[1].tobytes(), result[2].tobytes()) == (
        fresh[0], fresh[1].tobytes(), fresh[2].tobytes())


@pytest.mark.parametrize("moved", [(0.0, 0.001, 0.0), (0.0, 0.0, 0.01)], ids=["mu", "sigma"])
@pytest.mark.parametrize("kappa", [0.1, 0.0], ids=["kappa=0.1", "kappa=0"])
def test_an_evaluation_forms_z_again_only_at_another_location_or_scale(kappa, moved):
    draws = cs.sample_gev(gev(kappa, 0.0427, 0.0183), 1000, seed=7)
    theta = (kappa, 0.0427, np.log(0.0183))
    work = _workspace(draws)
    _derivatives(work, theta, (0, 1, 2))
    work[1][0].fill(np.nan)  # the z row
    # a shape step holds mu and sigma, so it reuses the nan z, whose nan log
    # likelihood _derivatives reports as -inf with no score
    assert _derivatives(work, (kappa + 0.01, *theta[1:]), (0,)) == (float("-inf"), None, None)
    other = tuple(c + d for c, d in zip(theta, moved))
    assert_same_evaluation(_derivatives(work, other, (0, 1, 2)),
                           _derivatives(_workspace(draws), other))


@pytest.mark.parametrize("flags", list(itertools.product([True, False], repeat=3)),
                         ids=lambda flags: "-".join("ok" if flag else "failed" for flag in flags))
def test_stage_flags_and_steps_combine_into_the_fit(monkeypatch, flags):
    # the Gumbel, shape and joint stages converge as flags[0], flags[1] and
    # flags[2] say and take 1, 10 and 100 Newton steps
    draws = cs.sample_gev(gev(0.1, 0.0427, 0.0183), 200, seed=7)
    calls, order = [], [(1, 2), (0,), (0, 1, 2)]

    def stage(work, theta, free):
        calls.append(free)
        return theta, -1.0, 10 ** order.index(free), flags[order.index(free)]

    monkeypatch.setattr(gev_module, "_newton", stage)
    gumbel_ok, shape_ok, joint_ok = flags
    gumbel, gumbel_calls = cs.fit_gumbel_mle(draws), calls[:]
    calls.clear()
    staged, staged_calls = cs.fit_gev_mle(draws), calls[:]
    calls.clear()
    joint, joint_calls = cs.fit_gev_mle(draws, refine=True), calls[:]
    calls.clear()
    three_stage = three_stage_optimum(draws)
    assert (gumbel.converged, gumbel.iterations) == (gumbel_ok, 1)
    assert (staged.converged, staged.iterations) == (gumbel_ok and shape_ok, 11)
    assert (joint.converged, joint.iterations) == (joint_ok, 100)
    # a joint stage answers for its fit no more than any other stage does
    assert (three_stage.converged, three_stage.iterations) == (all(flags), 111)
    assert gumbel_calls == [(1, 2)]
    assert staged_calls == [(1, 2), (0,)]
    assert joint_calls == [(0, 1, 2)]
    assert calls == order


@pytest.mark.parametrize("n", [30, 1001, 10_000])
def test_workspace_rows_start_on_cache_lines(n):
    x = np.zeros(n)
    samples, rows, mask, formed = _workspace(x)
    assert samples is x and formed == [None, None]
    assert rows.shape == (gev_module._WORK_ROWS, n) and mask.shape == (n,)
    assert all(row.flags.c_contiguous and row.__array_interface__["data"][0] % 64 == 0
               for row in rows)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, derandomize=True, database=None, max_examples=500)
@given(g=FINITE, h=FINITE.filter(lambda value: value != 0.0))
@example(g=1.0, h=5e-324)
@example(g=-0.0, h=2.0)
def test_one_coordinate_step_is_the_1x1_solve_bit_for_bit(g, h):
    solved = -np.linalg.solve([[h]], [g])
    with np.errstate(over="ignore"):  # as inside _newton
        step = gev_module._ascent_step(np.array([g]), np.array([[h]]), 1000)
        # the division takes the solve's step where it ascends, else the same score step
        expected = solved if solved @ [g] > 0 else np.array([g]) / 1000
    assert step.tobytes() == expected.tobytes()


@pytest.mark.parametrize("h", [0.0, -0.0])
def test_a_zero_one_coordinate_system_takes_the_score_step_as_the_solve_does(h):
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve([[h]], [1.0])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # as inside _newton
        for g in (1.0, -1.0):
            step = gev_module._ascent_step(np.array([g]), np.array([[h]]), 1000)
            assert step.tolist() == [g / 1000]


def test_the_shape_stage_steps_without_a_linear_solve(monkeypatch):
    solves = []
    solve = np.linalg.solve

    def counting(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    draws = cs.sample_gev(gev(0.1, 0.0427, 0.0183), 1000, seed=7)
    gumbel = cs.fit_gumbel_mle(draws)
    gumbel_solves = len(solves)
    staged = cs.fit_gev_mle(draws)
    assert staged.iterations > gumbel.iterations  # the shape stage stepped
    assert len(solves) == 2 * gumbel_solves and set(solves) == {(2, 2)}


# the fit that runs each stage of FREE_SETS
STAGE_FITS = {"gumbel": cs.fit_gumbel_mle, "shape": cs.fit_gev_mle,
              "joint": lambda x: cs.fit_gev_mle(x, refine=True)}


@pytest.mark.parametrize("hessian", [np.zeros((3, 3)), np.full((3, 3), np.nan)],
                         ids=["singular", "non-finite"])
@pytest.mark.parametrize("stage", STAGE_FITS.keys())
def test_a_degenerate_newton_system_takes_the_score_step(monkeypatch, stage, hessian):
    # the first evaluation of the stage hands _newton a system with no solution
    derivatives, broken = gev_module._derivatives, []
    free_set, fit = FREE_SETS[stage], STAGE_FITS[stage]

    def degenerate_once(work, theta, free=(0, 1, 2)):
        ll, score, full = derivatives(work, theta, free)
        if free == free_set and not broken:
            broken.append(free)
            return ll, score, hessian.copy()
        return ll, score, full

    monkeypatch.setattr(gev_module, "_derivatives", degenerate_once)
    report = fit(cs.sample_gev(gev(0.1, 0.0427, 0.0183), 1000, seed=7))
    assert broken == [free_set]
    assert isinstance(report, cs.FitReport) and np.isfinite(report.log_likelihood)
