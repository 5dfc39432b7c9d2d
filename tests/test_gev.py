"""Extreme value distribution and fitting tests.

Expected values were computed from independent oracles before the
implementation was written: scipy.stats.genextreme (shape c = -kappa) for
densities and CDFs, numerical quadrature for normalization, centered finite
differences for the pdf/cdf relation, and numeric CDF inversion for
quantiles/thresholds. Oracle constants are frozen below.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.stats import genextreme

import cyclosense as cs
import cyclosense.gev as gev_module
from cyclosense.gev import KAPPA_EPS, _derivatives, _quantile, log_likelihood

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

    @pytest.mark.parametrize("pf", [0.0, 1.0, -0.2, 1.7, np.nan])
    def test_domain_errors(self, pf):
        with pytest.raises(ValueError):
            cs.threshold_for_pf(pf, gev(0.0))


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

    def test_location_equivariance(self):
        draws = cs.sample_gev(gev(0.0, 0.0, 1.0), 2000, seed=3)
        base = cs.fit_gumbel_mle(draws)
        shifted = cs.fit_gumbel_mle(draws + 10.0)
        assert shifted.params.mu == pytest.approx(base.params.mu + 10.0, abs=1e-6)
        assert shifted.params.sigma == pytest.approx(base.params.sigma, rel=1e-7)

    def test_scale_equivariance(self):
        draws = cs.sample_gev(gev(0.0, 0.0, 1.0), 2000, seed=4)
        base = cs.fit_gumbel_mle(draws)
        scaled = cs.fit_gumbel_mle(3.0 * draws)
        assert scaled.params.mu == pytest.approx(3.0 * base.params.mu, rel=1e-6)
        assert scaled.params.sigma == pytest.approx(3.0 * base.params.sigma, rel=1e-6)

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

    @pytest.mark.parametrize("refine", [False, True])
    def test_fit_equivariance_under_affine_map(self, refine):
        draws = cs.sample_gev(gev(0.2, 1.0, 0.5), 5000, seed=11)
        base = cs.fit_gev_mle(draws, refine=refine)
        mapped = cs.fit_gev_mle(2.5 * draws + 4.0, refine=refine)
        assert mapped.params.kappa == pytest.approx(base.params.kappa, abs=1e-6)
        assert mapped.params.mu == pytest.approx(2.5 * base.params.mu + 4.0, rel=1e-6)
        assert mapped.params.sigma == pytest.approx(2.5 * base.params.sigma, rel=1e-6)

    def test_report_metadata(self):
        draws = cs.sample_gev(gev(0.0, 0.0, 1.0), 500, seed=12)
        report = cs.fit_gev_mle(draws)
        assert report.sample_count == 500
        assert report.solver_tol == 1e-9
        assert report.iterations > 0
        assert np.isfinite(report.log_likelihood)


def scale_free_score(draws, params):
    """Per-sample (dl/dkappa, sigma*dl/dmu, dl/dlog sigma) at params."""
    _, score, _ = _derivatives(draws, (params.kappa, params.mu, np.log(params.sigma)))
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

        value, score, hessian = _derivatives(draws, theta)
        assert value == pytest.approx(ll(theta), rel=1e-13)
        fd_score = [(ll(theta + e) - ll(theta - e)) / (2 * e.sum()) for e in steps]
        fd_hessian = [[(ll(theta + e + f) - ll(theta + e - f) - ll(theta - e + f)
                        + ll(theta - e - f)) / (4 * e.sum() * f.sum()) for f in steps]
                      for e in steps]
        np.testing.assert_allclose(score, fd_score, rtol=1e-4)
        np.testing.assert_allclose(hessian, fd_hessian, rtol=0, atol=1e-4 * np.max(np.abs(hessian)))

    def test_off_support_point_has_no_derivatives(self):
        draws = np.array([0.0, 1.0, 10.0])
        assert _derivatives(draws, (-0.5, 0.0, 0.0)) == (float("-inf"), None, None)
