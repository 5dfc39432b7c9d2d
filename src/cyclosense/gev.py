"""Generalized extreme value distribution: density, CDF, quantile threshold,
maximum likelihood fitting, and inverse-CDF sampling.

Parameterization: shape kappa, location mu, scale sigma > 0. For kappa away
from zero,

    F(x) = exp(-(1 + kappa*(x - mu)/sigma)**(-1/kappa))

on the support 1 + kappa*(x - mu)/sigma > 0; the kappa -> 0 limit is the
Gumbel law F(x) = exp(-exp(-(x - mu)/sigma)). |kappa| <= KAPPA_EPS selects
the Gumbel branch everywhere (pdf, cdf, quantiles, likelihood derivatives)
so the branches can never disagree about one parameter value.

Every fit runs one solver: a damped Newton ascent of the log likelihood in
(kappa, mu, log sigma) with the analytic score and observed information
(Hosking, AS 215, 1985; Coles 2001, section 3.3), over whichever coordinates
a stage frees. The default GEV fit is staged: a Gumbel fit for (mu, sigma),
then the shape alone with the location and scale held fixed. That is the
classic sequential recipe, not the joint maximum likelihood estimate when
the true shape is nonzero; refine=True then frees all three parameters.
A fit reports converged only when every score component its last stage was
free to move, in scale-free form per sample, is at most tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KAPPA_EPS = 1e-6

__all__ = [
    "KAPPA_EPS",
    "GevParams",
    "FitReport",
    "DegenerateDataError",
    "pdf",
    "cdf",
    "threshold_for_pf",
    "log_likelihood",
    "fit_gumbel_mle",
    "fit_gev_mle",
    "sample_gev",
]


class DegenerateDataError(ValueError):
    """Sample set cannot support a fit (too small or zero variance)."""


@dataclass(frozen=True)
class GevParams:
    """Shape, location, and scale of a generalized extreme value law."""

    kappa: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("kappa", "mu", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def is_gumbel(self) -> bool:
        return abs(self.kappa) <= KAPPA_EPS


@dataclass(frozen=True)
class FitReport:
    """Outcome of a maximum likelihood fit."""

    params: GevParams
    log_likelihood: float
    iterations: int
    converged: bool
    sample_count: int
    solver_tol: float


def _as_finite_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    return arr


def pdf(x, p: GevParams):
    """Density at x. Points outside the support have density zero."""
    arr = _as_finite_array(x)
    z = (arr - p.mu) / p.sigma
    if p.is_gumbel:
        # exp(-z) may overflow to inf far below the location; the density
        # underflows to the correct 0 there
        with np.errstate(over="ignore"):
            out = np.exp(-z - np.exp(-z)) / p.sigma
    else:
        t = 1.0 + p.kappa * z
        out = np.zeros_like(z)
        inside = t > 0
        log_t = np.log(t[inside])
        out[inside] = np.exp(
            -(1.0 + 1.0 / p.kappa) * log_t - np.exp(-log_t / p.kappa)
        ) / p.sigma
    return out if arr.ndim else float(out)


def cdf(x, p: GevParams):
    """Distribution function at x, clamped to {0, 1} outside the support."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(np.isnan(arr)):
        raise ValueError("x must not be NaN")
    z = (arr - p.mu) / p.sigma
    if p.is_gumbel:
        with np.errstate(over="ignore"):
            out = np.exp(-np.exp(-z))
    else:
        t = 1.0 + p.kappa * z
        out = np.empty_like(z)
        inside = t > 0
        out[inside] = np.exp(-np.power(t[inside], -1.0 / p.kappa))
        # below the lower endpoint (kappa > 0) the CDF is 0; above the upper
        # endpoint (kappa < 0) it is 1
        out[~inside] = 0.0 if p.kappa > 0 else 1.0
    return out if arr.ndim else float(out)


def _quantile(prob: np.ndarray, p: GevParams) -> np.ndarray:
    """Inverse CDF for probabilities in (0, 1)."""
    v = -np.log(prob)  # t**(-1/kappa) at the quantile
    if p.is_gumbel:
        return p.mu - p.sigma * np.log(v)
    # (v**-kappa - 1)/kappa, written with expm1 for small-kappa accuracy
    return p.mu + p.sigma * np.expm1(-p.kappa * np.log(v)) / p.kappa


def threshold_for_pf(pf: float, p: GevParams) -> float:
    """Detection threshold whose exceedance probability equals pf.

    With y_p = -log(1 - pf) the closed form is mu - (sigma/kappa)*(1 - y_p**-kappa),
    reducing to mu - sigma*log(y_p) on the Gumbel branch. The round trip
    1 - cdf(threshold_for_pf(pf)) == pf holds to ~1e-15.
    """
    if not (np.isfinite(pf) and 0.0 < pf < 1.0):
        raise ValueError("pf must lie strictly between 0 and 1")
    y_p = -np.log1p(-pf)
    if p.is_gumbel:
        return float(p.mu - p.sigma * np.log(y_p))
    return float(p.mu + p.sigma * np.expm1(-p.kappa * np.log(y_p)) / p.kappa)


def sample_gev(p: GevParams, n: int, seed: int) -> np.ndarray:
    """Draw n values by inverse-CDF sampling of uniform variates."""
    if n != int(n) or int(n) < 1:
        raise ValueError("n must be a positive integer")
    rng = np.random.default_rng(int(seed))
    u = rng.random(int(n))
    u = np.clip(u, np.finfo(np.float64).tiny, 1.0 - np.finfo(np.float64).epsneg)
    return _quantile(u, p)


def log_likelihood(samples, p: GevParams) -> float:
    """Joint log likelihood of the samples; -inf if any point is off-support."""
    x = _as_finite_array(samples)
    z = (x - p.mu) / p.sigma
    if p.is_gumbel:
        return float(-x.size * np.log(p.sigma) - np.sum(z) - np.sum(np.exp(-z)))
    t = 1.0 + p.kappa * z
    if np.any(t <= 0):
        return float("-inf")
    log_t = np.log(t)
    return float(
        -x.size * np.log(p.sigma)
        - (1.0 + 1.0 / p.kappa) * np.sum(log_t)
        - np.sum(np.exp(-log_t / p.kappa))
    )


def _derivatives(x: np.ndarray, theta):
    """Log likelihood, score and observed Hessian in theta = (kappa, mu, log sigma).

    With y = log(t)/kappa and u = exp(-y) each sample contributes
    -log sigma - log t - y - u. |kappa| <= KAPPA_EPS uses the Gumbel limit of
    every term (t = 1, y = z, dy/dkappa = -z**2/2, d2y/dkappa2 = 2*z**3/3), the
    same switch log_likelihood makes. Returns (-inf, None, None) when a sample
    lies outside the support.
    """
    kappa, mu, log_sigma = theta
    sigma = np.exp(log_sigma)
    z = (x - mu) / sigma
    if abs(kappa) <= KAPPA_EPS:
        kappa, sum_log_t, r, zr, y = 0.0, 0.0, 1.0, z, z
        y_k = -0.5 * z * z
        y_kk = (-4.0 / 3.0) * z * y_k
    else:
        t = 1.0 + kappa * z
        if np.any(t <= 0):
            return float("-inf"), None, None
        y = np.log(t)
        sum_log_t = y.sum()
        y /= kappa
        r = np.reciprocal(t, out=t)
        zr = z * r
        y_k = (zr - y) / kappa
        y_kk = -(zr * zr + 2.0 * y_k) / kappa
    u = np.exp(-y)
    ll = float(-x.size * log_sigma - sum_log_t - y.sum() - u.sum())
    if not ll > float("-inf"):
        return float("-inf"), None, None
    del y  # one n-length buffer fewer while the derivatives are formed
    # per-sample derivatives g of f = -log t - y - u in z and kappa, each
    # reduced at once to the sums (s_ = sum g, zs_ = sum z*g, zzs_ = sum z*z*g)
    # that the chain rule through z = (x - mu)/sigma needs
    a = kappa + 1.0 - u
    g = -a * r                                    # df/dz
    s_z, zs_z = g.sum(), z @ g
    g = (kappa * a - u) * r * r                   # d2f/dz2
    s_zz, zs_zz, zzs_zz = g.sum(), z @ g, (z * z) @ g
    g = (a * zr - 1.0 - u * y_k) * r              # d2f/dz dkappa
    s_zk, zs_zk = g.sum(), z @ g
    u_c = 1.0 - u
    s_k = -zr.sum() - u_c @ y_k
    s_kk = zr @ zr - (u * y_k) @ y_k - u_c @ y_kk
    score = np.array([s_k, -s_z / sigma, -x.size - zs_z])
    h_k_mu, h_k_s, h_mu_s = -s_zk / sigma, -zs_zk, (zs_zz + s_z) / sigma
    hessian = np.array([[s_kk, h_k_mu, h_k_s],
                        [h_k_mu, s_zz / sigma**2, h_mu_s],
                        [h_k_s, h_mu_s, zzs_zz + zs_z]])
    return ll, score, hessian


def _newton(x: np.ndarray, theta, free: tuple[int, ...], tol: float, max_iter: int):
    """Damped Newton ascent of the log likelihood over the coordinates in free.

    Works in the scale-free coordinates (kappa, mu/sigma, log sigma). A step
    is halved while it leaves the support, reaches kappa <= -1 (where the
    likelihood is unbounded) or lowers the likelihood beyond rounding; when
    the Newton direction is not an ascent direction the per-sample score is
    the step. Stops once every free scale-free score component per sample is
    at most tol. Returns (theta, Newton steps taken, converged).
    """
    theta = np.asarray(theta, dtype=np.float64)
    free = np.asarray(free)
    n = x.size
    ll, score, hessian = _derivatives(x, theta)
    for iteration in range(max_iter + 1):
        scale = np.array([1.0, np.exp(theta[2]), 1.0])[free]
        g = score[free] * scale
        if np.max(np.abs(g)) <= tol * n:
            return theta, iteration, True
        if iteration == max_iter:
            break
        h = hessian[np.ix_(free, free)] * np.outer(scale, scale)
        step = -np.linalg.solve(h, g)
        if not step @ g > 0:
            step = g / n
        delta = np.zeros(3)
        delta[free] = step * scale
        slack = 1e-12 * (n + abs(ll))
        for _ in range(60):
            trial = theta + delta
            if trial[0] > -1.0:
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    trial_ll, trial_score, trial_hessian = _derivatives(x, trial)
                if trial_ll >= ll - slack:
                    break
            delta *= 0.5
        else:
            return theta, iteration, False
        theta, ll, score, hessian = trial, trial_ll, trial_score, trial_hessian
    return theta, max_iter, False


def _report(x: np.ndarray, theta, iterations: int, converged: bool, tol: float) -> FitReport:
    params = GevParams(float(theta[0]), float(theta[1]), float(np.exp(theta[2])))
    return FitReport(
        params=params,
        log_likelihood=log_likelihood(x, params),
        iterations=iterations,
        converged=converged,
        sample_count=int(x.size),
        solver_tol=tol,
    )


def fit_gumbel_mle(samples, tol: float = 1e-9, max_iter: int = 200) -> FitReport:
    """Gumbel (kappa = 0) maximum likelihood fit.

    Newton over (mu, log sigma) from the moment-estimate scale and the
    location that maximizes the likelihood at that scale. converged means
    both per-sample score residuals, |mean(w) - 1| and
    |mean(z*(1 - w)) - 1| with z = (x - mu)/sigma and w = exp(-z), are at
    most tol; iterations counts Newton steps.
    """
    x = _as_finite_array(samples)
    if x.size < 30:
        raise DegenerateDataError(f"need at least 30 samples, got {x.size}")
    if np.var(x) == 0.0:
        raise DegenerateDataError("samples have zero variance")
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    sigma_0 = float(np.std(x)) * math.sqrt(6.0) / math.pi
    # the location that maximizes the likelihood at sigma_0, which bounds every
    # exp(-z) by the sample count; the shift by min(x) keeps the sum finite
    shift = float(np.min(x))
    mu_0 = shift - sigma_0 * math.log(float(np.mean(np.exp((shift - x) / sigma_0))))
    theta, iterations, converged = _newton(x, (0.0, mu_0, math.log(sigma_0)), (1, 2),
                                           tol, max_iter)
    return _report(x, theta, iterations, converged, tol)


def fit_gev_mle(samples, tol: float = 1e-9, max_iter: int = 200,
                refine: bool = False) -> FitReport:
    """GEV maximum likelihood fit, staged by default.

    The staged fit takes (mu, sigma) from fit_gumbel_mle and then maximizes
    the likelihood in kappa alone with them held fixed. That is the classic
    sequential recipe, not the joint maximum when the true shape is nonzero.
    refine=True continues with Newton over all three parameters, which gives
    the joint maximum likelihood estimate. converged means every score
    component the last stage was free to move, in the scale-free form
    (dl/dkappa, sigma*dl/dmu, dl/dlog sigma) per sample, is at most tol; for
    the staged fit the Gumbel stage must have converged too. iterations
    counts the Newton steps of all stages.
    """
    base = fit_gumbel_mle(samples, tol=tol, max_iter=max_iter)
    x = _as_finite_array(samples)
    theta = (0.0, base.params.mu, math.log(base.params.sigma))
    theta, steps, converged = _newton(x, theta, (0,), tol, max_iter)
    iterations = base.iterations + steps
    converged = base.converged and converged
    if refine:
        theta, steps, converged = _newton(x, theta, (0, 1, 2), tol, max_iter)
        iterations += steps
    return _report(x, theta, iterations, converged, tol)
