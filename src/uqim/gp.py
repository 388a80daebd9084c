"""Gaussian-process model of the systematic model/reality discrepancy.

The observations are modeled as Y_i = m(X_i) + delta(X_i) + noise with a
stationary GP prior on the discrepancy delta: constant mean beta and
squared-exponential covariance

    c(z1, z2) = sigma2 * exp(-sum_j omega_j (z1_j - z2_j)^2).

With Theta = sigma2 * R + lam * I the log likelihood of the residual vector
r = y - m - beta is the usual multivariate normal expression; a MAP point
estimate maximizes likelihood times priors (normal priors on lam and beta,
truncated reciprocal priors p(t) = c/t on [eps, e^(1/c) eps] for sigma2 and
each omega).  The error law used for quantiles is the fitted MVN with mean
(beta, ..., beta) and covariance sigma2_hat * R + lam_hat * I.

The MAP fit has one objective: the log posterior with beta profiled, which
one core computes with its analytic gradient from one factor of Theta
(Rasmussen & Williams 2006, eq. 5.9).  The fit minimizes its negative over
the box of prior supports by projected BFGS on that gradient
(Bertsekas 1982; Byrd, Lu, Nocedal & Zhu 1995; Nocedal & Wright 2006, ch. 6
and 7): variables at a bound that the gradient pushes against are held
there, the rest take a quasi-Newton step from the last 10 curvature pairs,
and Armijo backtracking runs along the projected path.  A restart stops at
projected-gradient infinity norm <= 1e-5 or relative decrease <= 2.22e-9
(L-BFGS-B's defaults).  beta is profiled at beta* = u's / u'1 (u = Theta^-1
1, s = y - m), so the gradient follows beta*, and restarts that fail read
-inf.

Cholesky factorizations (numpy's) follow a fixed jitter policy: on failure,
add j * trace(Theta)/n to the diagonal for j = 1e-10, 1e-9, ..., 1e-6, then
give up with a conditioning error; a non-finite factor is a conditioning
error at once.  Error-quantile replicates are drawn from the same factor.
The module runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import _count, _level, _points, _readonly, _rows
from .density import _order_statistic
from .errors import ConditioningError, DomainError, FitError
from .randgen import make_rng

_JITTER_STEPS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
# L-BFGS-B's default stopping rule: projected-gradient infinity norm, and
# relative decrease factr * machine epsilon with factr = 1e7
_PGTOL = 1e-5
_FTOL = 1e7 * np.finfo(float).eps
_ARMIJO = 1e-4
_MEMORY = 10  # curvature pairs kept, L-BFGS-B's default


@dataclass(frozen=True)
class GpDiscrepancyParams:
    """Noise level, discrepancy mean, signal variance, inverse length scales."""

    lam: float
    beta: float
    sigma2: float
    omegas: tuple

    def __post_init__(self):
        omegas = tuple(float(w) for w in np.atleast_1d(self.omegas))
        vals = (self.lam, self.sigma2, *omegas)
        if not all(np.isfinite(v) and v >= 0 for v in vals):
            raise DomainError(
                "lam, sigma2 and omegas must be finite and nonnegative"
            )
        if not np.isfinite(self.beta):
            raise DomainError("beta must be finite")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "omegas", omegas)

    @property
    def dim(self) -> int:
        return len(self.omegas)


@dataclass(frozen=True)
class GpHyperParams:
    """Prior hyperparameters for the MAP estimate.

    Normal priors N(mu_lam, var_lam) and N(mu_beta, var_beta); reciprocal
    priors with constants ``c_sigma2`` and ``c_omegas`` truncated to
    [eps_trunc, e^(1/c) * eps_trunc] (each integrates to one).
    """

    mu_lam: float
    var_lam: float
    mu_beta: float
    var_beta: float
    c_sigma2: float
    c_omegas: tuple
    eps_trunc: float

    def __post_init__(self):
        c_omegas = tuple(float(c) for c in np.atleast_1d(self.c_omegas))
        pos = (self.var_lam, self.var_beta, self.c_sigma2, *c_omegas, self.eps_trunc)
        if not all(np.isfinite(v) and v > 0 for v in pos):
            raise DomainError(
                "variances, reciprocal constants and eps_trunc must be positive"
            )
        if not (np.isfinite(self.mu_lam) and np.isfinite(self.mu_beta)):
            raise DomainError("prior means must be finite")
        object.__setattr__(self, "c_omegas", c_omegas)

    def support(self, c: float) -> tuple[float, float]:
        """Truncation interval of a reciprocal prior in log space."""
        lo = math.log(self.eps_trunc)
        return lo, lo + 1.0 / c

    @classmethod
    def default_for(cls, data: "DiscrepancyData") -> "GpHyperParams":
        """Data-driven defaults; assumes inputs on a roughly O(1) scale.

        eps_trunc is 1e-6 times the squared output scale, so omegas (units of
        inverse squared input) can only reach values above that floor.  Pass
        explicit hyperparameters for strongly scaled inputs.
        """
        r = data.observed - data.model_outputs
        tiny = np.finfo(float).tiny
        vr = float(np.var(r)) + 1e-300
        scale = max(float(np.std(data.observed)), math.sqrt(vr), 1e-150)
        eps = 1e-6 * scale**2
        sb = float(np.std(r))
        upper_s2 = max(100.0 * vr, 10.0 * eps)
        c_sigma2 = 1.0 / math.log(upper_s2 / eps)
        c_omegas = []
        for j in range(data.inputs.shape[1]):
            vx = float(np.var(data.inputs[:, j])) + tiny
            upper = max(1e4 / vx, math.e * 10.0 * eps)
            c_omegas.append(1.0 / math.log(upper / eps))
        return cls(
            mu_lam=vr,
            var_lam=(2.0 * vr) ** 2,
            mu_beta=float(np.mean(r)),
            var_beta=(4.0 * sb + 1e-3 * scale) ** 2,
            c_sigma2=c_sigma2,
            c_omegas=tuple(c_omegas),
            eps_trunc=eps,
        )


@dataclass(frozen=True)
class DiscrepancyData:
    """Inputs with both the model output m(X_i) and the observation Y_i."""

    inputs: np.ndarray
    model_outputs: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        x, m, y = _rows(self.inputs, self.model_outputs, self.observed)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "model_outputs", m)
        object.__setattr__(self, "observed", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def _sqdists(x: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences, shape (d, n, n)."""
    return np.stack([(x[:, j, None] - x[None, :, j]) ** 2 for j in range(x.shape[1])])


def _correlation(d2: np.ndarray, omegas) -> np.ndarray:
    return np.exp(-np.tensordot(np.asarray(omegas, dtype=float), d2, axes=1))


def gp_cov_matrix(x: np.ndarray, params: GpDiscrepancyParams) -> np.ndarray:
    """Theta = sigma2 * R + lam * I on the rows of ``x``."""
    x = _points(x, params.dim)
    r = _correlation(_sqdists(x), params.omegas)
    return params.sigma2 * r + params.lam * np.eye(x.shape[0])


def _chol_jitter(theta: np.ndarray):
    """Lower Cholesky factor with the escalating jitter policy; returns (L, jitter)."""
    n = theta.shape[0]
    base = float(np.trace(theta)) / n
    for mult in _JITTER_STEPS:
        jitter = mult * base
        try:
            fac = np.linalg.cholesky(theta + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            continue
        # numpy returns inf and NaN factors of non-finite input without raising
        if not np.isfinite(fac).all():
            raise ConditioningError("covariance has a non-finite Cholesky factor")
        return fac, jitter
    raise ConditioningError(
        "covariance not factorizable within the jitter policy "
        f"(up to {_JITTER_STEPS[-1]:g} * trace/n)"
    )


def _log_normal_pdf(x: float, mu: float, var: float) -> float:
    return -0.5 * (math.log(2.0 * math.pi * var) + (x - mu) ** 2 / var)


def _log_reciprocal_pdf(t: float, c: float, eps: float) -> float:
    if t <= 0:
        return -math.inf
    lo = math.log(eps)
    hi = lo + 1.0 / c
    lt = math.log(t)
    if lt < lo - 1e-12 or lt > hi + 1e-12:
        return -math.inf
    return math.log(c) - lt


def _profiled_beta(linv: np.ndarray, s: np.ndarray) -> tuple[float, np.ndarray]:
    """beta* = u's / u'1 with u = Theta^-1 1, and the weights u / u'1.

    ``linv`` is L^-1 for the Cholesky factor L of Theta.
    """
    u = linv.T @ linv.sum(axis=1)
    u1 = float(np.sum(u))
    return float(u @ s) / u1, u / u1


class _Eval(NamedTuple):
    logpost: float  # -inf off the priors' support
    # d logpost / d (lam, sigma2, omegas...) along beta*(theta), then d / d beta
    grad: np.ndarray
    jitter: float
    beta: float


def _evaluate(lam, sigma2, omegas, d2, s, hyper: GpHyperParams) -> _Eval:
    """The log posterior that ``gp_fit_map`` maximizes, from one factor of Theta.

    ``s`` is observed minus model output and ``d2`` is ``_sqdists`` of the
    inputs.  beta is profiled at beta* = u's / u'1, and the gradient follows
    beta*.
    """
    log_s2 = _log_reciprocal_pdf(sigma2, hyper.c_sigma2, hyper.eps_trunc)
    log_w = sum(
        _log_reciprocal_pdf(w, c, hyper.eps_trunc)
        for w, c in zip(omegas, hyper.c_omegas)
    )
    if not math.isfinite(log_s2 + log_w):
        return _Eval(-math.inf, None, math.nan, math.nan)
    n = s.shape[0]
    r = _correlation(d2, omegas)
    fac, jitter = _chol_jitter(sigma2 * r + lam * np.eye(n))
    # the gradient needs all of Theta^-1 = L^-T L^-1, so solve against I once
    linv = np.linalg.solve(fac, np.eye(n))
    beta, w = _profiled_beta(linv, s)
    v = linv @ (s - beta)
    alpha = linv.T @ v
    logdet = 2.0 * float(np.sum(np.log(np.diag(fac))))
    ll = -0.5 * (float(v @ v) + logdet + n * math.log(2.0 * math.pi))
    # d ll / d theta_k = (alpha' Theta_k alpha - tr(Theta^-1 Theta_k)) / 2 with
    # Theta_k = I, R, -sigma2 R o D_j for lam, sigma2, omega_j; d ll / d beta = 1'alpha
    theta_inv = linv.T @ linv
    dthetas = np.concatenate((r[None], -sigma2 * r * d2))
    a_dtheta = np.vstack((alpha, dthetas @ alpha))
    traces = np.append(
        np.trace(theta_inv), dthetas.reshape(len(dthetas), -1) @ theta_inv.ravel()
    )
    grad = np.append(0.5 * (a_dtheta @ alpha - traces), np.sum(alpha))
    logpost = (
        ll
        + _log_normal_pdf(lam, hyper.mu_lam, hyper.var_lam)
        + _log_normal_pdf(beta, hyper.mu_beta, hyper.var_beta)
        + log_s2
        + log_w
    )
    grad += np.concatenate((
        [-(lam - hyper.mu_lam) / hyper.var_lam, -1.0 / sigma2],
        -1.0 / np.asarray(omegas, dtype=float),
        [-(beta - hyper.mu_beta) / hyper.var_beta],
    ))
    # total derivative along beta*(theta): d beta* / d theta_k = -w' Theta_k alpha
    grad[:-1] -= grad[-1] * (a_dtheta @ w)
    return _Eval(logpost, grad, jitter, beta)


@dataclass
class GpFitResult:
    """MAP estimate with per-restart diagnostics."""

    params: GpDiscrepancyParams
    objective: float
    restarts: int
    objectives: list
    jitter: float
    hyper: GpHyperParams
    # per restart: met the stopping rule at a finite objective, and steps taken
    converged: list
    iterations: list


def _pack_bounds(hyper: GpHyperParams, data: DiscrepancyData):
    vr = float(np.var(data.observed - data.model_outputs)) + 1e-300
    lam_hi = max(hyper.mu_lam + 8.0 * math.sqrt(hyper.var_lam), 100.0 * vr)
    lam_lo = min(1e-12 * vr, lam_hi * 1e-12)
    bounds = [(math.log(lam_lo), math.log(lam_hi)), hyper.support(hyper.c_sigma2)]
    return bounds + [hyper.support(c) for c in hyper.c_omegas]


class _Minimum(NamedTuple):
    x: np.ndarray
    fun: float
    converged: bool
    iterations: int


def _bfgs_matrix(pairs, n: int) -> np.ndarray:
    """theta * I updated by BFGS with each (s, y) pair in turn, oldest first.

    Uses the compact form theta I - W' M^-1 W with W = [theta S; Y] and
    M = [[theta S S', L], [L', -D]], where L and D are the strictly lower
    triangle and the diagonal of S Y' (Byrd, Nocedal & Schnabel 1994;
    Nocedal & Wright 2006, eq. 7.24), and theta = y'y / s'y of the newest
    pair.
    """
    b = np.eye(n)
    k = len(pairs)
    if not k:
        return b
    s, y = pairs[:, 0], pairs[:, 1]
    sy = s @ y.T
    theta = float(y[-1] @ y[-1]) / sy[-1, -1]
    low = np.tril(sy, -1)
    mid = np.empty((2 * k, 2 * k))
    mid[:k, :k] = theta * (s @ s.T)
    mid[:k, k:] = low
    mid[k:, :k] = low.T
    mid[k:, k:] = -np.diag(np.diag(sy))
    w = np.concatenate((theta * s, y))
    return theta * b - w.T @ np.linalg.solve(mid, w)


def _direction(pairs, x, g, lo, hi) -> np.ndarray | None:
    """Quasi-Newton step over the variables free to move, or None.

    A variable is held (step 0) where it sits at a bound and the gradient,
    or the step computed with it free, points out of the box; the rest step
    by d = -B_FF^-1 g_F.  None when no descent step remains.
    """
    at_lo, at_hi = x <= lo, x >= hi
    free = ~((at_lo & (g > 0)) | (at_hi & (g < 0)))
    d = np.zeros(x.size)
    try:
        b = _bfgs_matrix(pairs, x.size)
        while free.any():
            d[:] = 0.0
            d[free] = -np.linalg.solve(b[np.ix_(free, free)], g[free])
            out = free & ((at_lo & (d < 0)) | (at_hi & (d > 0)))
            if not out.any():
                break
            free &= ~out
    except np.linalg.LinAlgError:
        return None
    return d if free.any() and g @ d < 0 else None


def _projected_bfgs(fun, x0, lo, hi, maxiter: int) -> _Minimum:
    """Minimize ``fun`` (returning value and gradient) over the box [lo, hi].

    Projected BFGS for a few variables.  The Hessian model B is rebuilt each
    iteration from theta * I (theta = y'y / s'y of the newest pair) by BFGS
    updates with the last ``_MEMORY`` curvature pairs, skipping pairs with
    s'y <= eps * y'y, as L-BFGS-B does.  Variables at a bound are held there
    as ``_direction`` decides, and the others take the quasi-Newton step d;
    without a descent step the pairs are dropped and d = -g.  Steps halve
    from 1 along the projected path P(x + t d) until f decreases by at least
    1e-4 * g'(P(x + t d) - x); when none does, the pairs are dropped and the
    next iteration starts again from B = I.  Stops, converged, at
    projected-gradient infinity norm <= ``_PGTOL`` or relative decrease
    <= ``_FTOL``; not converged after ``maxiter`` iterations or when no step
    decreases f with B = I.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g = fun(x)
    pairs = np.empty((0, 2, x.size))  # (s, y) rows, oldest first
    for it in range(maxiter):
        if np.max(np.abs(x - np.clip(x - g, lo, hi))) <= _PGTOL:
            return _Minimum(x, f, True, it)
        d = _direction(pairs, x, g, lo, hi)
        if d is None:
            pairs, d = pairs[:0], -g
        t = 1.0
        for _ in range(60):
            x_new = np.clip(x + t * d, lo, hi)
            f_new, g_new = fun(x_new)
            if f_new < f and f_new <= f + _ARMIJO * float(g @ (x_new - x)):
                break
            t *= 0.5
        else:
            if not len(pairs):
                return _Minimum(x, f, False, it)
            pairs = pairs[:0]
            continue
        step, dg = x_new - x, g_new - g
        if float(step @ dg) > np.finfo(float).eps * float(dg @ dg):
            pairs = np.concatenate((pairs[1 - _MEMORY :], [(step, dg)]))
        done = f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if done:
            return _Minimum(x, f, True, it + 1)
    return _Minimum(x, f, False, maxiter)


def gp_fit_map(
    data: DiscrepancyData,
    hyper: GpHyperParams | None = None,
    beta_mode: str = "closed_form",
    restarts: int = 20,
    maxiter: int = 200,
    seed=0,
) -> GpFitResult:
    """MAP fit by multi-start box-constrained local search.

    lam, sigma2 and the omegas are optimized in log space within their prior
    supports by projected BFGS (``_projected_bfgs``) with the analytic
    gradient.  Each restart stops at projected-gradient infinity norm <= 1e-5,
    at relative decrease <= 2.22e-9 or after ``maxiter`` iterations;
    ``converged`` and ``iterations`` record which and how many per restart.
    The constant mean is profiled at the likelihood argmax beta* = u's / u'1
    (u = Theta^-1 1), and the gradient follows beta* with d beta*/d theta_k =
    -u' Theta_k alpha / u'1; ``beta_mode`` accepts only this
    ``"closed_form"``.  The reported objective is the full log posterior at
    beta*.  A restart that ends where Theta cannot be factored is recorded in
    ``objectives`` as ``-inf``; if every restart does, ``FitError`` is
    raised.  Deterministic for a given seed.
    """
    if beta_mode != "closed_form":
        raise DomainError(f"unknown beta_mode {beta_mode!r}")
    restarts, maxiter = _count(restarts, "restarts"), _count(maxiter, "maxiter", least=0)
    if hyper is None:
        hyper = GpHyperParams.default_for(data)
    if len(hyper.c_omegas) != data.dim:
        raise DomainError(
            f"{len(hyper.c_omegas)} omega priors for dimension {data.dim}"
        )
    d2 = _sqdists(data.inputs)
    s = data.observed - data.model_outputs
    lo, hi = np.array(_pack_bounds(hyper, data)).T
    bad = 1e300

    def negative(z: np.ndarray):
        lam, sigma2 = math.exp(z[0]), math.exp(z[1])
        omegas = np.exp(z[2:])
        try:
            ev = _evaluate(lam, sigma2, omegas, d2, s, hyper)
        except ConditioningError:
            return bad, np.zeros(z.size)
        # chain rule through the log parameterization; grad[-1] is beta's
        scale = np.concatenate(([lam, sigma2], omegas))
        return -ev.logpost, -(ev.grad[:-1] * scale)

    rng = make_rng(seed)
    starts = [lo + rng.random(lo.size) * (hi - lo) for _ in range(restarts)]
    results = [_projected_bfgs(negative, z0, lo, hi, maxiter) for z0 in starts]
    objs = [-float(r.fun) if r.fun < bad else -math.inf for r in results]
    best = int(np.argmax(objs))
    if not np.isfinite(objs[best]):
        raise FitError("every restart failed to produce a finite posterior")
    zb = results[best].x
    lam, sigma2 = math.exp(zb[0]), math.exp(zb[1])
    omegas = tuple(math.exp(v) for v in zb[2:])
    ev = _evaluate(lam, sigma2, omegas, d2, s, hyper)
    return GpFitResult(
        params=GpDiscrepancyParams(
            lam=lam, beta=ev.beta, sigma2=sigma2, omegas=omegas
        ),
        objective=ev.logpost,
        restarts=restarts,
        objectives=objs,
        jitter=ev.jitter,
        hyper=hyper,
        converged=[r.converged and math.isfinite(o) for r, o in zip(results, objs)],
        iterations=[r.iterations for r in results],
    )


@dataclass(frozen=True)
class ErrorQuantileResult:
    """Median over replications plus every per-replication quantile."""

    median: float
    quantiles: np.ndarray
    alpha: float
    reps: int

    def __post_init__(self):
        object.__setattr__(self, "quantiles", _readonly(self.quantiles))


def gp_error_quantile(
    params: GpDiscrepancyParams,
    data: DiscrepancyData,
    alpha: float,
    reps: int = 10_000,
    seed=0,
) -> ErrorQuantileResult:
    """Simulated quantile of the absolute model error under the fitted law.

    Each replication draws the n-vector of errors at the data inputs from
    MVN((beta, ..., beta), sigma2 R + lam I) as beta + L z, with L the
    Cholesky factor under the jitter policy (so draws move continuously with
    the parameters), and takes the plug-in alpha-quantile of the absolute
    values; the summary is the median over replications.
    """
    _level(alpha, "alpha")
    reps = _count(reps, "reps")
    cov = gp_cov_matrix(data.inputs, params)
    if np.trace(cov) == 0.0:  # no variance: every draw is the mean
        draws = np.full((reps, data.n), params.beta)
    else:
        fac, _ = _chol_jitter(cov)
        draws = make_rng(seed).standard_normal((reps, data.n)) @ fac.T
        draws += params.beta
    vals = _order_statistic(np.abs(draws, out=draws), alpha)
    return ErrorQuantileResult(
        median=float(np.median(vals)),
        quantiles=vals,
        alpha=float(alpha),
        reps=reps,
    )
