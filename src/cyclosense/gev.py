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
a stage frees, each stage through the same loop body: a one-coordinate
system divides where a larger one solves, and the fit's workspace keeps
z = (x - mu)/sigma while (mu, sigma) stays put, so the shape stage, which
holds them, forms z once. One function, _fit, runs each fit as a sequence
of stages from one start point, in one workspace:

    fit                          stages                          start
    fit_gumbel_mle               (mu, sigma)                     Gumbel
    fit_gev_mle                  (mu, sigma), then kappa alone   Gumbel
    fit_gev_mle(refine=True)     all three at once               L-moment
      where that fails           (mu, sigma), kappa, all three   Gumbel

The Gumbel start is the moment-estimate scale and the location that
maximizes the likelihood at that scale. The L-moment start is the
closed-form probability-weighted-moment estimate of all three parameters
(Hosking, Wallis & Wood, 1985); where it is no usable start, a sample off
its support among other things, the joint stage starts from the Gumbel start
instead, and where that stage fails the fit runs the last row's route. The
default, staged fit is the classic sequential recipe, not the joint maximum
likelihood estimate when the true shape is nonzero; the refined fit is. A
fit reports converged when every stage it ran converged: a stage converges
when each score component it is free to move, in scale-free form per sample,
is at most 1e-9 within 200 Newton steps. Both limits are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .siggen import _integer, _real, _samples

KAPPA_EPS = 1e-6

# solver limits: scale-free score per sample, Newton steps per stage
_TOL = 1e-9
_MAX_ITER = 200
# n-length float64 rows of a fit's _derivatives workspace
_WORK_ROWS = 7
# the score and Hessian of an evaluation before its free entries are formed
_NAN_SCORE, _NAN_HESSIAN = np.full(3, np.nan), np.full((3, 3), np.nan)

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
    """Sample set cannot support a fit (too small, zero variance, or too
    large for a finite start point)."""


@dataclass(frozen=True)
class GevParams:
    """Shape, location, and scale of a generalized extreme value law."""

    kappa: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        _real("kappa", self.kappa)
        _real("mu", self.mu)
        _real("sigma", self.sigma, 0.0)

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


def _real_array(x) -> np.ndarray:
    """x, of any shape, as a float64 array; ValueError if it is complex."""
    if np.iscomplexobj(x):
        raise ValueError("x must be real, not complex")
    return np.asarray(x, dtype=np.float64)


def pdf(x, p: GevParams):
    """Density at x. Points outside the support have density zero."""
    arr = _real_array(x)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
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
    arr = _real_array(x)
    if np.any(np.isnan(arr)):
        raise ValueError("x must not be NaN")
    z = (arr - p.mu) / p.sigma
    if p.is_gumbel:
        with np.errstate(over="ignore"):
            out = np.exp(-np.exp(-z))
    else:
        t = 1.0 + p.kappa * z
        inside = t > 0
        if inside.all():
            out = np.exp(-np.power(t, -1.0 / p.kappa))
        else:
            out = np.empty_like(z)
            out[inside] = np.exp(-np.power(t[inside], -1.0 / p.kappa))
            # below the lower endpoint (kappa > 0) the CDF is 0; above the
            # upper endpoint (kappa < 0) it is 1
            out[~inside] = 0.0 if p.kappa > 0 else 1.0
    return out if arr.ndim else float(out)


def _quantile(v, p: GevParams):
    """Inverse CDF at F = exp(-v), v > 0: v is t**(-1/kappa) at the quantile."""
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
    return float(_quantile(-np.log1p(-_real("pf", pf, 0.0, 1.0)), p))


def sample_gev(p: GevParams, n: int, seed: int) -> np.ndarray:
    """Draw n values by inverse-CDF sampling of uniform variates."""
    n = _integer("n", n, 1)
    u = np.random.default_rng(_integer("seed", seed, 0)).random(n)
    u = np.clip(u, np.finfo(np.float64).tiny, 1.0 - np.finfo(np.float64).epsneg)
    return _quantile(-np.log(u), p)


def log_likelihood(samples, p: GevParams) -> float:
    """Joint log likelihood of the samples; -inf if any point is off-support."""
    x = _samples(samples)
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


def _workspace(x: np.ndarray):
    """One fit's samples x and the buffers that every _derivatives evaluation
    of the fit writes into: _WORK_ROWS float64 rows and a bool mask, all of
    length x.size, and the record [mu, log sigma] that its first row last
    formed z = (x - mu)/sigma at, [None, None] until then.

    Each row starts on a 64-byte boundary, where malloc promises 16: on an
    AVX-512 CPU an evaluation at n = 10**4 ran 12-18 % slower on rows that
    straddle cache lines.
    """
    stride = -(-x.size // 8) * 8
    raw = np.empty(_WORK_ROWS * stride + 7)
    start = -raw.ctypes.data % 64 // 8
    rows = raw[start:start + _WORK_ROWS * stride].reshape(_WORK_ROWS, stride)[:, :x.size]
    return x, rows, np.empty(x.size, dtype=bool), [None, None]


def _derivatives(work, theta, free: tuple[int, ...] = (0, 1, 2)):
    """Log likelihood, score and observed Hessian in theta = (kappa, mu, log sigma).

    With y = log(t)/kappa and u = exp(-y) each sample contributes
    -log sigma - log t - y - u. |kappa| <= KAPPA_EPS uses the Gumbel limit of
    every term (t = 1, y = z, dy/dkappa = -z**2/2, d2y/dkappa2 = 2*z**3/3), the
    same switch log_likelihood makes, and forms the log likelihood by
    log_likelihood's expression, so a fit reports the value its solver held.
    Only the score and Hessian entries of the coordinates in free are formed,
    each by the expression the full evaluation uses; the others are nan.
    Every n-length value is written into work, the _workspace of the samples,
    by the same operations in the same order as the plain expressions in the
    comments, up to exact sign folds. z is formed only when work's record
    holds another (mu, log sigma) than theta's: no row is written over z, and
    the same inputs form the same z bits.
    Returns (-inf, None, None) when a sample lies outside the support or the
    log likelihood is -inf or nan.
    """
    kappa, mu, log_sigma = theta
    shape, location = 0 in free, 1 in free or 2 in free
    x, rows, mask, formed = work
    z, t, zr, y_k, u, v, w = rows  # -y lives in v or u, and y_kk in w, until they are spent
    sigma = np.exp(log_sigma)
    if formed != [mu, log_sigma]:
        np.subtract(x, mu, out=z)
        z /= sigma                                   # z = (x - mu) / sigma
        formed[:] = mu, log_sigma
    if abs(kappa) <= KAPPA_EPS:
        # t = 1: r is None where the general branch multiplies by 1/t
        kappa, r, zr = 0.0, None, z
        log_t_term = z.sum()  # the Gumbel limit of (1 + 1/kappa) * sum(log t)
        neg_y = np.negative(z, out=u)                # -y = -z
        if shape:
            np.multiply(z, -0.5, out=y_k)
            y_k *= z                                 # y_k = -0.5 * z * z
            y_kk = np.multiply(z, -4.0 / 3.0, out=w)
            y_kk *= y_k                              # y_kk = (-4/3) * z * y_k
    else:
        np.multiply(z, kappa, out=t)
        t += 1.0                                     # t = 1 + kappa * z
        if np.less_equal(t, 0, out=mask).any():
            return float("-inf"), None, None
        neg_y = np.log(t, out=v)
        log_t_term = (1.0 + 1.0 / kappa) * neg_y.sum()
        neg_y /= -kappa                              # -y = log(t) / -kappa
        r = np.reciprocal(t, out=t)
        if shape:
            np.multiply(z, r, out=zr)
            np.add(zr, neg_y, out=y_k)
            y_k /= kappa                             # y_k = (zr - y) / kappa
            y_kk = np.multiply(zr, zr, out=w)
            y_kk += np.multiply(y_k, 2.0, out=u)     # u's row is free until u is formed
            y_kk /= -kappa                           # y_kk = -(zr*zr + 2*y_k) / kappa
    np.exp(neg_y, out=u)                             # u = exp(-y)
    u_sum = u.sum()
    ll = float(-x.size * np.log(sigma) - log_t_term - u_sum)
    if not ll > float("-inf"):
        return float("-inf"), None, None
    # per-sample derivatives g of f = -log t - y - u in z and kappa, each
    # reduced at once to the sums (s_ = sum g, zs_ = sum z*g, zzs_ = sum z*z*g)
    # that the chain rule through z = (x - mu)/sigma needs; v and w are
    # scratch rows from here on, and y_k's row once u*y_k is formed
    score, hessian = _NAN_SCORE.copy(), _NAN_HESSIAN.copy()
    if shape:
        u_c = np.subtract(1.0, u, out=v)             # u_c = 1 - u
        score[0] = -zr.sum() - u_c @ y_k
        u_c_y_kk = u_c @ y_kk
        u_y_k = np.multiply(u, y_k, out=w)
        hessian[0, 0] = zr @ zr - u_y_k @ y_k - u_c_y_kk
    if location:
        a = np.subtract(kappa + 1.0, u, out=v)       # a = kappa + 1 - u
        if shape:
            g = np.multiply(a, zr, out=y_k)
            g -= 1.0
            g -= u_y_k
            if r is not None:
                g *= r                               # d2f/dz dkappa = (a*zr - 1 - u*y_k) * r
            s_zk, zs_zk = g.sum(), z @ g
            hessian[0, 1] = hessian[1, 0] = -s_zk / sigma
            hessian[0, 2] = hessian[2, 0] = -zs_zk
        if r is None:
            # df/dz = -a and d2f/dz2 = -u, whose sum the log likelihood holds
            s_z, zs_z = -a.sum(), -(z @ a)
            s_zz, zs_zz, zzs_zz = -u_sum, -(z @ u), -(np.multiply(z, z, out=v) @ u)
        else:
            g = np.multiply(a, r, out=w)
            s_z, zs_z = -g.sum(), -(z @ g)           # df/dz = -a * r
            np.multiply(a, kappa, out=g)
            g -= u
            g *= r
            g *= r                                   # d2f/dz2 = (kappa*a - u) * r * r
            s_zz, zs_zz, zzs_zz = g.sum(), z @ g, np.multiply(z, z, out=v) @ g
        score[1], score[2] = -s_z / sigma, -x.size - zs_z
        hessian[1, 1] = s_zz / sigma**2
        hessian[1, 2] = hessian[2, 1] = (zs_zz + s_z) / sigma
        hessian[2, 2] = zzs_zz + zs_z
    return ll, score, hessian


def _ascent_step(g: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """The Newton step -h^-1 g where it is an ascent direction, else the
    per-sample score g/n. A one-coordinate system divides, -(g/h), which is
    LAPACK's 1x1 solve bit for bit without its call, except that h = 0 goes
    to the solve, which refuses it; larger systems solve. A singular or
    non-finite system gives no ascent direction."""
    try:
        step = -(g / h[0]) if g.size == 1 and h[0, 0] else -np.linalg.solve(h, g)
    except np.linalg.LinAlgError:
        return g / n
    return step if step @ g > 0 else g / n


def _newton(work, theta, free: tuple[int, ...]):
    """Damped Newton ascent of the log likelihood of work's samples over the
    coordinates in free, one of (1, 2), (0,) and (0, 1, 2).

    Works in the scale-free coordinates (kappa, mu/sigma, log sigma), every
    stage in the same loop body over the score and Hessian of its free
    coordinates. A step is halved while it leaves the support, reaches
    kappa <= -1 (where the likelihood is unbounded) or lowers the likelihood
    beyond rounding; when the Newton direction is not an ascent direction
    the per-sample score is the step. Stops once every free scale-free score
    component per sample is at most _TOL, or after _MAX_ITER steps. Every
    evaluation writes into work, the fit's _workspace.
    Returns (theta, its log likelihood, Newton steps taken, converged).
    """
    n, limit = work[0].size, _TOL * work[0].size
    theta = [float(c) for c in theta]
    span = slice(free[0], free[-1] + 1)
    # the scale-free coordinates scale mu's entries by sigma and no other
    scale = np.ones(len(free))
    ll, score, hessian = _derivatives(work, theta, free)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iteration in range(_MAX_ITER + 1):
            if 1 in free:
                scale[free.index(1)] = np.exp(theta[2])
            g = score[span] * scale
            if all(abs(c) <= limit for c in g.tolist()):
                return theta, ll, iteration, True
            if iteration == _MAX_ITER:
                break
            h = hessian[span, span] * (scale[:, None] * scale)
            delta = [0.0, 0.0, 0.0]
            delta[span] = (_ascent_step(g, h, n) * scale).tolist()
            slack = 1e-12 * (n + abs(ll))
            for _ in range(60):
                trial = [c + d for c, d in zip(theta, delta)]
                if trial[0] > -1.0:
                    trial_ll, trial_score, trial_hessian = _derivatives(work, trial, free)
                    if trial_ll >= ll - slack:
                        break
                delta = [d * 0.5 for d in delta]
            else:
                return theta, ll, iteration, False
            theta, ll, score, hessian = trial, trial_ll, trial_score, trial_hessian
    return theta, ll, _MAX_ITER, False


# the free coordinates of each fit stage
_GUMBEL, _SHAPE, _JOINT = (1, 2), (0,), (0, 1, 2)


def _l_moment_start(x: np.ndarray):
    """The probability-weighted-moment estimate of (kappa, mu, log sigma)
    (Hosking, Wallis & Wood, Technometrics 27, 1985; Hosking, JRSS B 52,
    1990), or None where it is no usable Newton start.

    One sort and two dot products give the unbiased moments
    b_r = mean(x_(j) * C(j, r)/C(n - 1, r)) of the sorted samples, and from
    them lambda1 = b0, lambda2 = 2b1 - b0 and tau3. Then
    c = 2/(3 + tau3) - log 2/log 3, k = 7.8590c + 2.9554c**2,
    sigma = lambda2*k/((1 - 2**-k)*Gamma(1 + k)),
    mu = lambda1 - sigma*(1 - Gamma(1 + k))/k and kappa = -k, or their
    k -> 0 limits sigma = lambda2/log 2 and mu = lambda1 - euler_gamma*sigma
    where |k| <= KAPPA_EPS.

    Unusable means: kappa <= -1; a non-finite value; the smallest or largest
    sample off the support; lambda2 <= 0 or |tau3| >= 1, which only rounding
    of a near-constant sample gives; or an exp(-y) term above n at the
    smallest sample, where that term is largest. Those terms sum to n
    wherever the likelihood is stationary in (mu, sigma), and the Gumbel
    start bounds each by n, so such a start is far from every maximum; from
    one at the support's edge the Newton stage overflows or cannot step.
    """
    s, n = np.sort(x), x.size
    j = np.arange(n, dtype=np.float64)
    w1 = j / (n - 1)                                 # C(j, 1)/C(n - 1, 1)
    w2 = w1 * (j - 1) / (n - 2)                      # C(j, 2)/C(n - 1, 2)
    b0, b1, b2 = float(s.mean()), float(w1 @ s) / n, float(w2 @ s) / n
    lambda2 = 2.0 * b1 - b0
    tau3 = (6.0 * b2 - 6.0 * b1 + b0) / lambda2 if lambda2 > 0 else math.nan
    if not abs(tau3) < 1.0:
        return None
    c = 2.0 / (3.0 + tau3) - math.log(2.0) / math.log(3.0)
    k = 7.8590 * c + 2.9554 * c * c
    if abs(k) <= KAPPA_EPS:
        kappa, sigma = 0.0, lambda2 / math.log(2.0)
        mu = b0 - np.euler_gamma * sigma
    else:
        gamma = math.gamma(1.0 + k)
        kappa, sigma = -k, lambda2 * k / ((1.0 - 2.0 ** -k) * gamma)
        mu = b0 - sigma * (1.0 - gamma) / k
    if not (kappa > -1.0 and math.isfinite(mu) and math.isfinite(sigma)):
        return None
    z_low, z_high = (float(s[0]) - mu) / sigma, (float(s[-1]) - mu) / sigma
    t_low, t_high = 1.0 + kappa * z_low, 1.0 + kappa * z_high
    if not (t_low > 0 and t_high > 0):
        return None
    if -(math.log(t_low) / kappa if kappa else z_low) > math.log(n):
        return None
    return kappa, mu, math.log(sigma)


def _fit(samples, stages) -> FitReport:
    """Check the samples, then run one Newton stage per entry of stages in one
    workspace, from the L-moment estimate where the first stage is the joint
    one and that is usable, else from the Gumbel start point. A lone joint
    stage that fails is retried through all three; iterations counts both."""
    x = _samples(samples)
    if x.size < 30:
        raise DegenerateDataError(f"need at least 30 samples, got {x.size}")
    with np.errstate(over="ignore"):
        variance = float(np.var(x))
    if variance == 0.0:
        raise DegenerateDataError("samples have zero variance")
    sigma_0 = math.sqrt(variance) * math.sqrt(6.0) / math.pi
    # the location that maximizes the likelihood at sigma_0, which bounds every
    # exp(-z) by the sample count; the shift by min(x) keeps the sum finite
    shift = float(np.min(x))
    mu_0 = shift - sigma_0 * math.log(float(np.mean(np.exp((shift - x) / sigma_0))))
    if not (math.isfinite(sigma_0) and math.isfinite(mu_0)):
        raise DegenerateDataError(
            f"samples too large for float64: no finite start point (sigma {sigma_0}, mu {mu_0})")
    work, iterations, gumbel_start = _workspace(x), 0, (0.0, mu_0, math.log(sigma_0))
    for route in (stages, (_GUMBEL, _SHAPE, _JOINT)) if stages == (_JOINT,) else (stages,):
        theta, converged = (route[0] == _JOINT and _l_moment_start(x)) or gumbel_start, True
        for free in route:
            theta, ll, steps, stage_converged = _newton(work, theta, free)
            iterations += steps
            converged = converged and stage_converged
        if converged:
            break
    params = GevParams(float(theta[0]), float(theta[1]), float(np.exp(theta[2])))
    return FitReport(params, ll, iterations, converged, int(x.size), _TOL)


def fit_gumbel_mle(samples) -> FitReport:
    """Gumbel (kappa = 0) maximum likelihood fit.

    Newton over (mu, log sigma) from the moment-estimate scale and the
    location that maximizes the likelihood at that scale. converged means
    both per-sample score residuals, |mean(w) - 1| and
    |mean(z*(1 - w)) - 1| with z = (x - mu)/sigma and w = exp(-z), are at
    most 1e-9 (FitReport.solver_tol) within 200 steps; iterations counts
    Newton steps.
    """
    return _fit(samples, (_GUMBEL,))


def fit_gev_mle(samples, refine: bool = False) -> FitReport:
    """GEV maximum likelihood fit, staged by default.

    The staged fit takes (mu, sigma) from fit_gumbel_mle and then maximizes
    the likelihood in kappa alone with them held fixed. That is the classic
    sequential recipe, not the joint maximum when the true shape is nonzero.
    refine=True instead runs one Newton stage over all three parameters, which
    gives the joint maximum likelihood estimate. It starts from the sample
    L-moments' estimate of (kappa, mu, sigma), or from fit_gumbel_mle's start
    point where that estimate is no usable start: a sample off its support or
    so near its lower edge that the sample's exp(-y) term exceeds the sample
    count, kappa <= -1 or a value that is not finite. Where that stage fails,
    the fit reruns from fit_gumbel_mle's start through the Gumbel, shape and
    joint stages. converged means every score component that each stage was
    free to move, in the scale-free form (dl/dkappa, sigma*dl/dmu,
    dl/dlog sigma) per sample, is at most 1e-9 (FitReport.solver_tol) within
    200 steps per stage. iterations counts the Newton steps of every stage run.
    """
    return _fit(samples, (_JOINT,) if refine else (_GUMBEL, _SHAPE))
