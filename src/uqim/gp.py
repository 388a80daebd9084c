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

Likelihood, posterior and fit all use one core that factors Theta once and
returns the log likelihood, log posterior and analytic gradient (Rasmussen &
Williams 2006, eq. 5.9).  The MAP fit runs L-BFGS-B on that gradient in every
beta mode; with beta profiled at beta* = u's / u'1 (u = Theta^-1 1, s = y - m)
the gradient follows beta*, and restarts that fail read -inf.

Cholesky factorizations follow a fixed jitter policy: on failure, add
j * trace(Theta)/n to the diagonal for j = 1e-10, 1e-9, ..., 1e-6, then
give up with a conditioning error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import PairedDataset
from .density import _order_index
from .errors import ConditioningError, DataError, DomainError, FitError
from .randgen import MvnParams, make_rng, sample_mvn

_JITTER_STEPS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


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
        x = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        m = np.asarray(self.model_outputs, dtype=float).ravel()
        y = np.asarray(self.observed, dtype=float).ravel()
        if x.shape[0] != m.shape[0] or x.shape[0] != y.shape[0]:
            raise DataError(
                f"mismatched lengths: {x.shape[0]} inputs, {m.shape[0]} model "
                f"outputs, {y.shape[0]} observations"
            )
        if x.shape[0] < 1:
            raise DataError("discrepancy data needs at least one row")
        for a in (x, m, y):
            if not np.all(np.isfinite(a)):
                raise DataError("discrepancy data contains non-finite values")
            a.flags.writeable = False
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "model_outputs", m)
        object.__setattr__(self, "observed", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @classmethod
    def from_datasets(
        cls, experimental: PairedDataset, simulated: PairedDataset
    ) -> "DiscrepancyData":
        """Pair an experimental set with model runs at the same inputs."""
        if experimental.kind != "experimental":
            raise DataError("first dataset must have kind 'experimental'")
        if simulated.kind != "simulated":
            raise DataError("second dataset must have kind 'simulated'")
        if not np.array_equal(experimental.inputs, simulated.inputs):
            raise DataError(
                "experimental and simulated inputs differ; the discrepancy "
                "model needs model runs at the experimental input points"
            )
        return cls(
            inputs=experimental.inputs,
            model_outputs=simulated.outputs,
            observed=experimental.outputs,
        )


def gp_covariance(z1, z2, params: GpDiscrepancyParams) -> float:
    """sigma2 * exp(-sum_j omega_j (z1_j - z2_j)^2) for two points."""
    z1 = np.asarray(z1, dtype=float).ravel()
    z2 = np.asarray(z2, dtype=float).ravel()
    if z1.shape != z2.shape or z1.shape[0] != params.dim:
        raise DomainError(
            f"points of dimension {z1.shape} / {z2.shape} for "
            f"{params.dim} inverse length scales"
        )
    d2 = (z1 - z2) ** 2
    return params.sigma2 * float(np.exp(-np.dot(params.omegas, d2)))


def _sqdists(x: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences, shape (d, n, n)."""
    return np.stack([(x[:, j, None] - x[None, :, j]) ** 2 for j in range(x.shape[1])])


def _correlation(d2: np.ndarray, omegas) -> np.ndarray:
    return np.exp(-np.tensordot(np.asarray(omegas, dtype=float), d2, axes=1))


def gp_cov_matrix(x: np.ndarray, params: GpDiscrepancyParams) -> np.ndarray:
    """Theta = sigma2 * R + lam * I on the rows of ``x``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != params.dim:
        raise DomainError(
            f"inputs of dimension {x.shape[1]} for {params.dim} length scales"
        )
    r = _correlation(_sqdists(x), params.omegas)
    return params.sigma2 * r + params.lam * np.eye(x.shape[0])


def _chol_jitter(theta: np.ndarray):
    """Cholesky with the escalating jitter policy; returns (factor, jitter)."""
    from scipy.linalg import cho_factor

    base = float(np.trace(theta)) / theta.shape[0]
    for mult in _JITTER_STEPS:
        jitter = mult * base
        try:
            fac = cho_factor(
                theta + jitter * np.eye(theta.shape[0]), lower=True
            )
            return fac, jitter
        except np.linalg.LinAlgError:
            continue
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


def _profiled_beta(fac, s: np.ndarray) -> tuple[float, np.ndarray]:
    """beta* = u's / u'1 with u = Theta^-1 1, and the weights u / u'1."""
    from scipy.linalg import cho_solve

    ones = np.ones(s.shape[0])
    u = cho_solve(fac, ones)
    u1 = float(u @ ones)
    return float(u @ s) / u1, u / u1


class _Eval(NamedTuple):
    loglik: float
    logpost: float  # nan without priors, -inf off their support
    # d logpost (d loglik without priors) / d (lam, sigma2, omegas..., beta)
    grad: np.ndarray
    jitter: float
    beta: float


def _evaluate(lam, sigma2, omegas, beta, d2, s, hyper=None) -> _Eval:
    """Everything the GP callers need from one Cholesky factor of Theta.

    ``s`` is observed minus model output and ``d2`` is ``_sqdists`` of the
    inputs.  ``beta=None`` profiles the mean out at its closed form.
    """
    from scipy.linalg import cho_solve

    if hyper is not None:
        log_s2 = _log_reciprocal_pdf(sigma2, hyper.c_sigma2, hyper.eps_trunc)
        log_w = sum(
            _log_reciprocal_pdf(w, c, hyper.eps_trunc)
            for w, c in zip(omegas, hyper.c_omegas)
        )
        if not math.isfinite(log_s2 + log_w):
            return _Eval(math.nan, -math.inf, None, math.nan, beta)
    n = s.shape[0]
    r = _correlation(d2, omegas)
    fac, jitter = _chol_jitter(sigma2 * r + lam * np.eye(n))
    profiled = beta is None
    if profiled:
        beta, w = _profiled_beta(fac, s)
    resid = s - beta
    alpha = cho_solve(fac, resid)
    logdet = 2.0 * float(np.sum(np.log(np.diag(fac[0]))))
    ll = -0.5 * (float(resid @ alpha) + logdet + n * math.log(2.0 * math.pi))
    # d ll / d theta_k = (alpha' Theta_k alpha - tr(Theta^-1 Theta_k)) / 2 with
    # Theta_k = I, R, -sigma2 R o D_j for lam, sigma2, omega_j; d ll / d beta = 1'alpha
    theta_inv = cho_solve(fac, np.eye(n))
    dthetas = [r] + [-sigma2 * r * d2j for d2j in d2]
    a_dtheta = [alpha] + [alpha @ m for m in dthetas]
    traces = [np.trace(theta_inv)] + [np.sum(theta_inv * m) for m in dthetas]
    grad = np.array(
        [0.5 * (float(a @ alpha) - float(t)) for a, t in zip(a_dtheta, traces)]
        + [float(np.sum(alpha))]
    )
    logpost = math.nan
    if hyper is not None:
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
    if profiled:
        # total derivative along beta*(theta): d beta* / d theta_k = -w' Theta_k alpha
        grad[:-1] -= grad[-1] * np.array([float(a @ w) for a in a_dtheta])
    return _Eval(ll, logpost, grad, jitter, beta)


def _evaluate_at(
    params: GpDiscrepancyParams, data: DiscrepancyData, hyper=None
) -> _Eval:
    if data.dim != params.dim:
        raise DomainError(
            f"data dimension {data.dim} vs parameter dimension {params.dim}"
        )
    return _evaluate(
        params.lam, params.sigma2, params.omegas, params.beta,
        _sqdists(data.inputs), data.observed - data.model_outputs, hyper,
    )


def gp_loglikelihood(params: GpDiscrepancyParams, data: DiscrepancyData) -> float:
    """Exact MVN log likelihood of the residuals under Theta."""
    return _evaluate_at(params, data).loglik


def gp_loglikelihood_grad(
    params: GpDiscrepancyParams, data: DiscrepancyData
) -> tuple[float, dict]:
    """Log likelihood and its analytic gradient.

    Gradient keys: ``lam``, ``beta``, ``sigma2`` and ``omegas`` (a vector).
    """
    ev = _evaluate_at(params, data)
    g = ev.grad
    return ev.loglik, {
        "beta": float(g[-1]), "lam": float(g[0]), "sigma2": float(g[1]),
        "omegas": g[2:-1],
    }


def gp_log_posterior(
    params: GpDiscrepancyParams, hyper: GpHyperParams, data: DiscrepancyData
) -> float:
    """Unnormalized log posterior: likelihood plus log priors.

    Parameters outside the truncated prior supports yield ``-inf`` (the
    explicit out-of-support flag), never an exception.
    """
    if len(hyper.c_omegas) != params.dim:
        raise DomainError(
            f"{len(hyper.c_omegas)} omega priors for {params.dim} omegas"
        )
    return _evaluate_at(params, data, hyper).logpost


def gp_beta_empirical(data: DiscrepancyData) -> float:
    """Mean observed-minus-model discrepancy."""
    return float(np.mean(data.observed - data.model_outputs))


def gp_beta_closed_form(data: DiscrepancyData, theta: np.ndarray) -> float:
    """Likelihood-maximizing constant mean for a fixed covariance Theta."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (data.n, data.n):
        raise DomainError(f"Theta shape {theta.shape} for n = {data.n}")
    fac, _ = _chol_jitter(theta)
    return _profiled_beta(fac, data.observed - data.model_outputs)[0]


@dataclass
class GpFitResult:
    """MAP estimate with per-restart diagnostics."""

    params: GpDiscrepancyParams
    objective: float
    beta_mode: str
    restarts: int
    objectives: list
    jitter: float
    hyper: GpHyperParams


def _pack_bounds(hyper: GpHyperParams, data: DiscrepancyData, beta_mode: str):
    vr = float(np.var(data.observed - data.model_outputs)) + 1e-300
    lam_hi = max(hyper.mu_lam + 8.0 * math.sqrt(hyper.var_lam), 100.0 * vr)
    lam_lo = min(1e-12 * vr, lam_hi * 1e-12)
    bounds = [(math.log(lam_lo), math.log(lam_hi)), hyper.support(hyper.c_sigma2)]
    bounds += [hyper.support(c) for c in hyper.c_omegas]
    if beta_mode == "free":
        half = 8.0 * math.sqrt(hyper.var_beta)
        bounds.append((hyper.mu_beta - half, hyper.mu_beta + half))
    return bounds


def gp_fit_map(
    data: DiscrepancyData,
    hyper: GpHyperParams | None = None,
    beta_mode: str = "closed_form",
    restarts: int = 20,
    maxiter: int = 200,
    seed=0,
    init: GpDiscrepancyParams | None = None,
) -> GpFitResult:
    """MAP fit by multi-start box-constrained local search.

    lam, sigma2 and the omegas are optimized in log space within their prior
    supports by L-BFGS-B with the analytic gradient in every mode.
    ``beta_mode`` chooses how the constant mean is handled: ``closed_form``
    (profiled at the likelihood argmax beta* = u's / u'1, u = Theta^-1 1;
    the gradient follows beta* with d beta*/d theta_k = -u' Theta_k alpha /
    u'1), ``empirical`` (fixed at the mean discrepancy) or ``free``
    (optimized jointly).  The reported objective is always the full log
    posterior, so modes are comparable.  A restart that ends where Theta
    cannot be factored is recorded in ``objectives`` as ``-inf``; if every
    restart does, ``FitError`` is raised.  Deterministic for a given seed;
    ``init`` overrides the first restart's starting point.
    """
    from scipy.optimize import minimize

    if beta_mode not in ("closed_form", "empirical", "free"):
        raise DomainError(f"unknown beta_mode {beta_mode!r}")
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    if hyper is None:
        hyper = GpHyperParams.default_for(data)
    if len(hyper.c_omegas) != data.dim:
        raise DomainError(
            f"{len(hyper.c_omegas)} omega priors for dimension {data.dim}"
        )
    d2 = _sqdists(data.inputs)
    s = data.observed - data.model_outputs
    beta_fixed = float(np.mean(s)) if beta_mode == "empirical" else None
    bounds = _pack_bounds(hyper, data, beta_mode)
    ndim = len(bounds)
    bad = 1e300

    def beta_of(z: np.ndarray):
        return float(z[-1]) if beta_mode == "free" else beta_fixed

    def negative(z: np.ndarray):
        lam, sigma2 = math.exp(z[0]), math.exp(z[1])
        omegas = np.exp(z[2 : 2 + data.dim])
        try:
            ev = _evaluate(lam, sigma2, omegas, beta_of(z), d2, s, hyper)
        except ConditioningError:
            return bad, np.zeros(ndim)
        # chain rule through the log parameterization (beta is not logged)
        scale = np.concatenate(([lam, sigma2], omegas, [1.0]))
        return -ev.logpost, -(ev.grad * scale)[:ndim]

    rng = make_rng(seed)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    starts = [lo + rng.random(ndim) * (hi - lo) for _ in range(restarts)]
    if init is not None:
        z0 = [math.log(max(v, 1e-300)) for v in (init.lam, init.sigma2, *init.omegas)]
        starts[0] = np.clip(np.array(z0 + [init.beta])[:ndim], lo, hi)

    results = [
        minimize(
            negative, z0, method="L-BFGS-B", jac=True, bounds=bounds,
            options={"maxiter": maxiter},
        )
        for z0 in starts
    ]
    objs = [-math.inf if r.fun >= bad else -float(r.fun) for r in results]
    best = int(np.argmax(objs))
    if not np.isfinite(objs[best]):
        raise FitError("every restart failed to produce a finite posterior")
    zb = results[best].x
    lam, sigma2 = math.exp(zb[0]), math.exp(zb[1])
    omegas = tuple(math.exp(v) for v in zb[2 : 2 + data.dim])
    ev = _evaluate(lam, sigma2, omegas, beta_of(zb), d2, s, hyper)
    return GpFitResult(
        params=GpDiscrepancyParams(
            lam=lam, beta=ev.beta, sigma2=sigma2, omegas=omegas
        ),
        objective=ev.logpost,
        beta_mode=beta_mode,
        restarts=restarts,
        objectives=objs,
        jitter=ev.jitter,
        hyper=hyper,
    )


@dataclass(frozen=True)
class ErrorQuantileResult:
    """Median over replications plus every per-replication quantile."""

    median: float
    quantiles: np.ndarray
    alpha: float
    reps: int

    def __post_init__(self):
        q = np.asarray(self.quantiles, dtype=float)
        q.flags.writeable = False
        object.__setattr__(self, "quantiles", q)


def gp_error_quantile(
    params: GpDiscrepancyParams,
    data: DiscrepancyData,
    alpha: float,
    reps: int = 10_000,
    seed=0,
) -> ErrorQuantileResult:
    """Simulated quantile of the absolute model error under the fitted law.

    Each replication draws the n-vector of errors at the data inputs from
    MVN((beta, ..., beta), sigma2 R + lam I) and takes the plug-in
    alpha-quantile of the absolute values; the summary is the median over
    replications.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    cov = gp_cov_matrix(data.inputs, params)
    mean = np.full(data.n, params.beta)
    draws = sample_mvn(MvnParams(mean=mean, cov=cov), count=reps, seed=seed)
    k = _order_index(data.n, alpha)
    vals = np.partition(np.abs(draws), k - 1, axis=1)[:, k - 1]
    return ErrorQuantileResult(
        median=float(np.median(vals)),
        quantiles=vals,
        alpha=float(alpha),
        reps=int(reps),
    )
