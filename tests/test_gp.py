import contextlib
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize, minimize_scalar
from scipy.stats import foldnorm, multivariate_normal

import uqim.gp as gp_mod
from uqim.cli import main
from uqim.data import parse_dataset, write_dataset
from uqim.errors import ConditioningError, DataError, DomainError, FitError
from uqim.gp import (
    DiscrepancyData,
    GpDiscrepancyParams,
    GpHyperParams,
    _chol_jitter,
    gp_cov_matrix,
    gp_error_quantile,
    gp_fit_map,
)
from uqim.randgen import MvnParams, make_rng, sample_mvn, spawn_seeds
from uqim.surrogate import (
    FunctionFamily,
    compute_residuals,
    fit_with_gcv,
    improved_surrogate,
    load_model,
    save_model,
    select_weight_and_penalty,
)
from uqim.synthetic import make_hidim_like


def _toy_data(rng, n, d=1, beta=0.3, noise=0.05):
    x = rng.random((n, d))
    m = np.sin(x[:, 0])
    y = m + beta + noise * rng.standard_normal(n)
    return DiscrepancyData(inputs=x, model_outputs=m, observed=y)


def _flat_hyper(dim=1, eps=1e-12):
    # wide normal priors, reciprocal supports spanning [1e-12, ~1e14]
    c = 1.0 / 60.0
    return GpHyperParams(
        mu_lam=0.0,
        var_lam=1e6,
        mu_beta=0.0,
        var_beta=1e6,
        c_sigma2=c,
        c_omegas=(c,) * dim,
        eps_trunc=eps,
    )


def _objective(data, hyper, lam, sigma2, omegas):
    """What gp_fit_map maximizes: the log posterior at the profiled beta*."""
    return gp_mod._evaluate(
        lam, sigma2, omegas, gp_mod._sqdists(data.inputs),
        data.observed - data.model_outputs, hyper,
    )


def _dense_logpdf(data, params, jitter=0.0):
    """scipy's dense MVN log density of the residuals: mean beta, Theta + jitter I."""
    theta = gp_cov_matrix(data.inputs, params) + jitter * np.eye(data.n)
    return float(multivariate_normal.logpdf(
        data.observed - data.model_outputs, mean=np.full(data.n, params.beta), cov=theta
    ))


def _log_priors(hyper, params):
    """The priors' log densities by hand: normal on lam and beta, c/t on the rest."""
    def log_normal(v, mu, var):
        return -0.5 * (math.log(2.0 * math.pi * var) + (v - mu) ** 2 / var)

    return (
        log_normal(params.lam, hyper.mu_lam, hyper.var_lam)
        + log_normal(params.beta, hyper.mu_beta, hyper.var_beta)
        + math.log(hyper.c_sigma2) - math.log(params.sigma2)
        + sum(math.log(c) - math.log(w) for c, w in zip(hyper.c_omegas, params.omegas))
    )


def _beta_closed_form(data, theta):
    """Likelihood-maximizing constant mean for a fixed Theta: u's / u'1, u = Theta^-1 1."""
    u = np.linalg.solve(theta, np.ones(data.n))
    return float(u @ (data.observed - data.model_outputs)) / float(u.sum())


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


# the covariance of two points is the off-diagonal entry of Theta on them


def test_covariance_same_point():
    params = GpDiscrepancyParams(lam=0.1, beta=0.0, sigma2=2.5, omegas=(3.0, 0.5))
    z = [0.4, -1.0]
    assert gp_cov_matrix([z, z], params)[0, 1] == 2.5


def test_covariance_zero_omegas():
    params = GpDiscrepancyParams(lam=0.0, beta=0.0, sigma2=1.7, omegas=(0.0, 0.0))
    assert gp_cov_matrix([[0.0, 0.0], [5.0, -9.0]], params)[0, 1] == 1.7


def test_covariance_unit_distance():
    params = GpDiscrepancyParams(lam=0.0, beta=0.0, sigma2=1.0, omegas=(1.0,))
    val = gp_cov_matrix([[0.0], [1.0]], params)[0, 1]
    assert val == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert val == pytest.approx(0.367879, abs=1e-6)


def test_covariance_dimension_mismatch():
    params = GpDiscrepancyParams(lam=0.0, beta=0.0, sigma2=1.0, omegas=(1.0,))
    with pytest.raises(DomainError):
        gp_cov_matrix([[0.0, 1.0], [1.0, 2.0]], params)


def test_cov_matrix_structure():
    params = GpDiscrepancyParams(lam=0.2, beta=0.0, sigma2=1.5, omegas=(2.0,))
    x = np.array([[0.0], [0.5], [1.0]])
    theta = gp_cov_matrix(x, params)
    assert np.allclose(theta, theta.T, atol=0)
    for i in range(3):
        assert theta[i, i] == pytest.approx(1.5 + 0.2, rel=1e-15)
        for j in range(3):
            if i != j:
                want = gp_covariance(x[i], x[j], params)
                assert theta[i, j] == pytest.approx(want, rel=1e-15)


def test_params_validation():
    with pytest.raises(DomainError):
        GpDiscrepancyParams(lam=-0.1, beta=0.0, sigma2=1.0, omegas=(1.0,))
    with pytest.raises(DomainError):
        GpDiscrepancyParams(lam=0.0, beta=np.nan, sigma2=1.0, omegas=(1.0,))
    with pytest.raises(DomainError):
        GpDiscrepancyParams(lam=0.0, beta=0.0, sigma2=1.0, omegas=(-2.0,))


def test_loglik_single_point_unit_variance():
    # one point: beta* is its residual, so with lam + sigma2 = 1 the likelihood
    # is a scalar standard normal at its mean
    data = DiscrepancyData(inputs=[[0.7]], model_outputs=[1.5], observed=[2.0])
    hyper = _flat_hyper()
    for lam, s2 in [(1.0 - 1e-9, 1e-9), (0.0, 1.0), (0.3, 0.7)]:
        ev = _objective(data, hyper, lam, s2, (4.0,))
        assert ev.beta == 0.5
        params = GpDiscrepancyParams(lam=lam, beta=0.5, sigma2=s2, omegas=(4.0,))
        ll = ev.logpost - _log_priors(hyper, params)
        assert ll == pytest.approx(-0.5 * math.log(2.0 * math.pi), rel=1e-12)


def test_loglik_single_point_omega_irrelevant():
    # one point has no distances: omega moves the objective by its prior alone
    data = DiscrepancyData(inputs=[[0.7]], model_outputs=[0.0], observed=[0.4])
    omegas = (1e-6, 1.0, 250.0)
    evs = [_objective(data, _flat_hyper(), 0.2, 0.5, (w,)) for w in omegas]
    assert evs[0].beta == evs[1].beta == evs[2].beta
    assert [ev.grad[2] for ev in evs] == [-1.0 / w for w in omegas]
    lik = [ev.logpost + math.log(w) for ev, w in zip(evs, omegas)]
    assert lik[1] == pytest.approx(lik[0], rel=1e-12)
    assert lik[2] == pytest.approx(lik[0], rel=1e-12)


def test_loglik_two_point_dense_oracle():
    data = DiscrepancyData(
        inputs=[[0.0], [1.0]], model_outputs=[1.0, 2.0], observed=[1.3, 1.9]
    )
    hyper = _flat_hyper()
    ev = _objective(data, hyper, 0.05, 0.4, (2.0,))
    params = GpDiscrepancyParams(lam=0.05, beta=ev.beta, sigma2=0.4, omegas=(2.0,))
    assert ev.jitter == 0.0
    theta = gp_cov_matrix(data.inputs, params)
    assert ev.beta == pytest.approx(_beta_closed_form(data, theta), rel=1e-12)
    want = _dense_logpdf(data, params) + _log_priors(hyper, params)
    assert ev.logpost == pytest.approx(want, abs=1e-8)


def test_loglik_five_point_dense_oracle():
    rng = make_rng(31)
    x = rng.random((5, 2))
    m = x[:, 0] + x[:, 1]
    y = m + 0.2 * rng.standard_normal(5)
    data = DiscrepancyData(inputs=x, model_outputs=m, observed=y)
    hyper = _flat_hyper(dim=2)
    ev = _objective(data, hyper, 0.02, 0.3, (1.2, 0.7))
    params = GpDiscrepancyParams(lam=0.02, beta=ev.beta, sigma2=0.3, omegas=(1.2, 0.7))
    assert ev.jitter == 0.0
    theta = gp_cov_matrix(x, params)
    assert ev.beta == pytest.approx(_beta_closed_form(data, theta), rel=1e-12)
    want = _dense_logpdf(data, params) + _log_priors(hyper, params)
    assert ev.logpost == pytest.approx(want, abs=1e-8)


def test_loglik_gradient_matches_finite_differences():
    rng = make_rng(32)
    x = rng.random((12, 2))
    m = np.sin(x[:, 0])
    y = m + 0.2 + 0.1 * rng.standard_normal(12)
    data = DiscrepancyData(inputs=x, model_outputs=m, observed=y)
    # a tight beta prior makes the d beta*/d theta term and beta's slope count
    hyper = dataclasses.replace(_flat_hyper(dim=2), var_beta=0.01)
    z = [0.01, 0.04, 3.0, 1.5]  # lam, sigma2, omegas
    ev = _objective(data, hyper, z[0], z[1], z[2:])
    h = 1e-6

    def shifted(k, v):
        zk = list(z)
        zk[k] += v
        return _objective(data, hyper, zk[0], zk[1], zk[2:]).logpost

    # d logpost / d (lam, sigma2, omegas...) along beta*
    for k in range(len(z)):
        fd = (shifted(k, h) - shifted(k, -h)) / (2.0 * h)
        assert abs(ev.grad[k] - fd) <= 1e-4 * max(abs(ev.grad[k]), 1.0)

    # d logpost / d beta at beta* with Theta held, from the dense oracle
    def dense(b):
        params = GpDiscrepancyParams(lam=z[0], beta=b, sigma2=z[1], omegas=z[2:])
        return _dense_logpdf(data, params) + _log_priors(hyper, params)

    fd = (dense(ev.beta + h) - dense(ev.beta - h)) / (2.0 * h)
    assert abs(ev.grad[-1] - fd) <= 1e-4 * max(abs(ev.grad[-1]), 1.0)


def test_jitter_handles_singular_correlation():
    # three copies of one point and lam = 0 make Theta a rank-1 ones matrix
    data = DiscrepancyData(
        inputs=[[1.0], [1.0], [1.0]],
        model_outputs=[0.0, 0.0, 0.0],
        observed=[0.2, 0.2, 0.2],
    )
    ev = _objective(data, _flat_hyper(), 0.0, 1.0, (1.0,))
    assert ev.jitter > 0.0
    assert np.isfinite(ev.logpost)


def test_jitter_gives_up_on_indefinite_matrix():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(ConditioningError):
        _chol_jitter(bad)


def test_non_finite_theta_is_a_conditioning_error():
    # numpy factors inf and NaN entries without raising
    for theta in (np.diag([np.inf, 1.0]), np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(ConditioningError, match="non-finite"):
            _chol_jitter(theta)
    # Theta's diagonal lam + sigma2 overflows to inf; c = 1/800 puts 1e308 in
    # sigma2's support
    data = _toy_data(make_rng(44), 5)
    hyper = dataclasses.replace(_flat_hyper(), c_sigma2=1.0 / 800.0)
    with np.errstate(over="ignore"), pytest.raises(ConditioningError):
        _objective(data, hyper, 1e308, 1e308, (1.0,))


def test_log_posterior_adds_hand_computed_priors():
    rng = make_rng(33)
    data = _toy_data(rng, 6)
    hyper = _flat_hyper()
    ev = _objective(data, hyper, 0.01, 0.5, (2.0,))
    params = GpDiscrepancyParams(lam=0.01, beta=ev.beta, sigma2=0.5, omegas=(2.0,))
    want = _dense_logpdf(data, params, ev.jitter) + _log_priors(hyper, params)
    assert ev.logpost == pytest.approx(want, rel=1e-12)


def test_log_posterior_support_flags():
    rng = make_rng(34)
    data = _toy_data(rng, 5)
    hyper = _flat_hyper(eps=1e-6)
    assert _objective(data, hyper, 0.01, 1e-7, (1.0,)).logpost == -math.inf
    lo, hi = hyper.support(hyper.c_omegas[0])
    assert _objective(data, hyper, 0.01, 1.0, (math.exp(hi) * 2.0,)).logpost == -math.inf


def test_reciprocal_prior_integrates_to_one():
    for c, eps in [(0.1, 1e-6), (1.0 / 30.0, 1e-9), (2.0, 0.5)]:
        hi = math.exp(1.0 / c) * eps
        total, err = quad(lambda t: c / t, eps, hi)
        assert total == pytest.approx(1.0, abs=max(1e-9, 10 * err))


def test_hyper_support_interval():
    hyper = _flat_hyper(eps=1e-6)
    lo, hi = hyper.support(0.5)
    assert lo == pytest.approx(math.log(1e-6), rel=1e-12)
    assert hi - lo == pytest.approx(2.0, rel=1e-12)


def test_hyper_validation():
    with pytest.raises(DomainError):
        GpHyperParams(
            mu_lam=0.0, var_lam=0.0, mu_beta=0.0, var_beta=1.0,
            c_sigma2=1.0, c_omegas=(1.0,), eps_trunc=1e-6,
        )
    with pytest.raises(DomainError):
        GpHyperParams(
            mu_lam=0.0, var_lam=1.0, mu_beta=0.0, var_beta=1.0,
            c_sigma2=1.0, c_omegas=(1.0,), eps_trunc=0.0,
        )


def test_beta_closed_form_identity_theta():
    # unit-spaced points with omega = 1e4: every correlation underflows to 0,
    # so Theta is (sigma2 + lam) I and beta* is the mean residual
    toy = _toy_data(make_rng(35), 8)
    data = DiscrepancyData(
        inputs=np.arange(8.0)[:, None], model_outputs=toy.model_outputs,
        observed=toy.observed,
    )
    ev = _objective(data, _flat_hyper(), 0.05, 0.3, (1e4,))
    params = GpDiscrepancyParams(lam=0.05, beta=ev.beta, sigma2=0.3, omegas=(1e4,))
    theta = gp_cov_matrix(data.inputs, params)
    assert np.array_equal(theta, np.diag(np.diag(theta)))
    assert ev.beta == pytest.approx(np.mean(data.observed - data.model_outputs), rel=1e-12)


def test_beta_closed_form_constant_shift():
    rng = make_rng(36)
    x = rng.random((6, 1))
    m = x[:, 0] ** 2
    data = DiscrepancyData(inputs=x, model_outputs=m, observed=m + 2.5)
    for _ in range(5):
        lam, s2, w = rng.uniform(0.01, 1.0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 10.0)
        ev = _objective(data, _flat_hyper(), lam, s2, (w,))
        assert ev.beta == pytest.approx(2.5, rel=1e-10)


def test_beta_closed_form_is_likelihood_argmax():
    rng = make_rng(37)
    data = _toy_data(rng, 5)
    hyper = _flat_hyper()
    beta_hat = _objective(data, hyper, 0.05, 0.3, (2.0,)).beta

    def nll(b):
        p = GpDiscrepancyParams(lam=0.05, beta=b, sigma2=0.3, omegas=(2.0,))
        return -_dense_logpdf(data, p)

    res = minimize_scalar(
        nll, bounds=(beta_hat - 5.0, beta_hat + 5.0), method="bounded",
        options={"xatol": 1e-10},
    )
    assert beta_hat == pytest.approx(res.x, abs=1e-6)
    for _ in range(10):
        lam, s2, w = rng.uniform(0.01, 1.0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 10.0)
        bh = _objective(data, hyper, lam, s2, (w,)).beta
        th = gp_cov_matrix(
            data.inputs, GpDiscrepancyParams(lam=lam, beta=bh, sigma2=s2, omegas=(w,))
        )
        assert bh == pytest.approx(_beta_closed_form(data, th), rel=1e-12)

        def ll_at(b, th=th):
            fac_free = np.linalg.solve(th, data.observed - data.model_outputs - b)
            return -0.5 * float(
                (data.observed - data.model_outputs - b) @ fac_free
            )

        assert ll_at(bh) >= ll_at(bh + 0.01) - 1e-12
        assert ll_at(bh) >= ll_at(bh - 0.01) - 1e-12


def test_fit_map_init_at_truth_does_not_decrease(monkeypatch):
    # started at the truth's log-parameters, the optimizer ends no higher on
    # the closed-form objective it is handed than where it began
    rng = make_rng(38)
    truth = GpDiscrepancyParams(lam=0.01, beta=0.2, sigma2=0.05, omegas=(3.0,))
    x = rng.random((20, 1))
    m = np.zeros(20)
    cov = gp_cov_matrix(x, truth)
    y = sample_mvn(MvnParams(mean=np.full(20, truth.beta), cov=cov), 1, seed=5)[0]
    data = DiscrepancyData(inputs=x, model_outputs=m, observed=y)
    seen = _spy_optimizer(monkeypatch)
    gp_fit_map(data, hyper=_flat_hyper(), restarts=1, maxiter=1)
    negative, _, lo, hi, _ = seen[0]
    z0 = np.log([truth.lam, truth.sigma2, *truth.omegas])
    assert np.all((lo <= z0) & (z0 <= hi))
    end = gp_mod._projected_bfgs(negative, z0, lo, hi, 200)
    assert end.fun <= negative(z0)[0]


def test_optimizer_steepest_descent_fallback_reaches_the_box_minimum(monkeypatch):
    # with no quasi-Newton direction every step is d = -g; on
    # 1/2 x'Ax - b'x the box [-5, 5] x [-1, 5] holds the minimizer at
    # x2 = -1, where x1 = (b1 - A12 x2) / A11 = 0.65
    a, b = np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([1.0, -4.0])
    calls = []

    def no_direction(*args):
        calls.append(args)

    monkeypatch.setattr(gp_mod, "_direction", no_direction)
    end = gp_mod._projected_bfgs(
        lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b),
        np.array([3.0, 3.0]), np.array([-5.0, -1.0]), np.array([5.0, 5.0]), 200,
    )
    assert calls and end.converged
    assert np.allclose(end.x, [0.65, -1.0], rtol=0, atol=1e-12)


def test_fit_map_deterministic():
    rng = make_rng(39)
    data = _toy_data(rng, 8)
    a = gp_fit_map(data, restarts=4, seed=7)
    b = gp_fit_map(data, restarts=4, seed=7)
    assert a.params == b.params
    assert a.objective == b.objective


def test_fit_map_validation():
    rng = make_rng(40)
    data = _toy_data(rng, 5)
    for beta_mode in ("mcmc", "empirical", "free"):
        with pytest.raises(DomainError):
            gp_fit_map(data, beta_mode=beta_mode)
    with pytest.raises(DomainError):
        gp_fit_map(data, restarts=0)
    with pytest.raises(DomainError):
        gp_fit_map(data, hyper=_flat_hyper(dim=3))


def _spy_optimizer(monkeypatch):
    """Record (objective, start, lo, hi, maxiter) of each restart of gp_fit_map."""
    seen = []
    real = gp_mod._projected_bfgs

    def spy(fun, x0, lo, hi, maxiter):
        seen.append((fun, np.array(x0), lo, hi, maxiter))
        return real(fun, x0, lo, hi, maxiter)

    monkeypatch.setattr(gp_mod, "_projected_bfgs", spy)
    return seen


@pytest.mark.parametrize("dim", [1, 5])
def test_closed_form_gradient_matches_finite_differences(monkeypatch, dim):
    # the objective closed_form hands to the optimizer, in log-parameter space
    rng = make_rng(50 + dim)
    x = rng.random((15, dim))
    m = np.sin(x.sum(axis=1))
    data = DiscrepancyData(
        inputs=x, model_outputs=m, observed=m + 0.3 + 0.1 * rng.standard_normal(15)
    )
    # a tight beta prior makes the d beta*/d theta term count
    hyper = GpHyperParams(
        mu_lam=0.0, var_lam=1.0, mu_beta=0.0, var_beta=0.01,
        c_sigma2=1.0 / 60.0, c_omegas=(1.0 / 60.0,) * dim, eps_trunc=1e-12,
    )
    seen = _spy_optimizer(monkeypatch)
    gp_fit_map(data, hyper=hyper, restarts=1, maxiter=1)
    negative = seen[0][0]
    h = 1e-5
    for lam, s2, w in [(0.01, 0.5, 2.0), (0.05, 0.1, 8.0), (0.002, 1.0, 0.5)]:
        z = np.log([lam, s2] + [w * (1.0 + 0.3 * j) for j in range(dim)])
        _, grad = negative(z)
        for k in range(z.size):
            step = np.zeros(z.size)
            step[k] = h
            fd = (negative(z + step)[0] - negative(z - step)[0]) / (2.0 * h)
            assert abs(grad[k] - fd) <= 1e-5 * max(abs(grad[k]), 1.0)


def _readme_fit_data(out_dir):
    """The README block's gp-error data: synth --seed 11, then fit-surrogate."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "synth", "--system", "mafds", "--bias-kind", "linear", "--n-exp", "50",
            "--n-sim", "200", "--seed", "11", "--out-dir", str(out_dir),
        ]) == 0
        assert main([
            "fit-surrogate", "--sim", str(out_dir / "sim.csv"), "--exp",
            str(out_dir / "exp.csv"), "--family", "spline1d", "--size", "8",
            "--res-family", "poly", "--res-size", "1", "--weighted", "--out",
            "model.json", "--out-dir", str(out_dir),
        ]) == 0
    exp = parse_dataset(out_dir / "exp.csv", ["x1"], "y", kind="experimental")
    model = load_model(out_dir / "model.json")
    data = DiscrepancyData(
        inputs=exp.inputs, model_outputs=model(exp.inputs), observed=exp.outputs
    )
    # the seeds gp-error derives from its default --seed 0
    return data, spawn_seeds(0, 2)


def _api_5d_fit_data(seed, work):
    """The benchmark's api_5d gp_fit_map data: the raw-scale 5-d field law,
    poly 2 by GCV improved by a weighted rbf 20 correction."""
    system = make_hidim_like(bias_kind="linear")
    seed_exp, seed_sim = spawn_seeds(seed, 2)
    exp0 = system.draw_experiment(50, seed_exp)
    sim0 = system.draw_simulation(200, seed_sim)
    names, out = list(exp0.input_names), exp0.output_name
    write_dataset(exp0, work / "exp.csv")
    write_dataset(sim0, work / "sim.csv")
    exp = parse_dataset(work / "exp.csv", names, out, kind="experimental")
    sim = parse_dataset(work / "sim.csv", names, out, kind="simulated")
    base = fit_with_gcv(FunctionFamily("poly", 2), sim)
    sel = select_weight_and_penalty(
        FunctionFamily("rbf", 20), exp, compute_residuals(base, exp), sim.inputs,
        seed=seed,
    )
    save_model(improved_surrogate(base, sel.model, weight=sel.weight), work / "model.json")
    model = load_model(work / "model.json")
    data = DiscrepancyData(
        inputs=exp.inputs, model_outputs=model(exp.inputs), observed=exp.outputs
    )
    return data, spawn_seeds(seed, 2)


@pytest.fixture(scope="module")
def readme_fit_data(tmp_path_factory):
    return _readme_fit_data(tmp_path_factory.mktemp("readme"))


def _noise_level_data(rep):
    truth = GpDiscrepancyParams(lam=0.0025, beta=0.3, sigma2=0.01, omegas=(4.0,))
    rng = make_rng(3000 + rep)
    x = rng.random((50, 1))
    m = np.sin(2.0 * np.pi * x[:, 0])
    cov = gp_cov_matrix(x, truth)
    delta = sample_mvn(
        MvnParams(mean=np.full(50, truth.beta), cov=cov), 1, seed=4000 + rep
    )[0]
    return DiscrepancyData(inputs=x, model_outputs=m, observed=m + delta)


def _oracle_cases():
    """(id, builder) for the fits of this file, README and api_5d."""
    def modes_agree(_):
        rng = make_rng(21)
        x = rng.random((10, 1))
        m = x[:, 0] ** 2
        y = m + 0.3 + 0.05 * rng.standard_normal(10)
        data = DiscrepancyData(inputs=x, model_outputs=m, observed=y)
        return data, {"restarts": 12, "seed": 0}

    def init_at_truth(_):
        rng = make_rng(38)
        truth = GpDiscrepancyParams(lam=0.01, beta=0.2, sigma2=0.05, omegas=(3.0,))
        x = rng.random((20, 1))
        cov = gp_cov_matrix(x, truth)
        y = sample_mvn(MvnParams(mean=np.full(20, truth.beta), cov=cov), 1, seed=5)[0]
        data = DiscrepancyData(inputs=x, model_outputs=np.zeros(20), observed=y)
        return data, {"hyper": _flat_hyper(), "restarts": 20, "seed": 0}

    def toy(seed, restarts, fit_seed):
        return lambda _: (
            _toy_data(make_rng(seed), 8), {"restarts": restarts, "seed": fit_seed}
        )

    def gradient(dim):
        def build(_):
            rng = make_rng(50 + dim)
            x = rng.random((15, dim))
            m = np.sin(x.sum(axis=1))
            data = DiscrepancyData(
                inputs=x, model_outputs=m,
                observed=m + 0.3 + 0.1 * rng.standard_normal(15),
            )
            hyper = GpHyperParams(
                mu_lam=0.0, var_lam=1.0, mu_beta=0.0, var_beta=0.01,
                c_sigma2=1.0 / 60.0, c_omegas=(1.0 / 60.0,) * dim, eps_trunc=1e-12,
            )
            return data, {"hyper": hyper, "restarts": 20, "seed": 0}
        return build

    def noise_level(rep):
        return lambda _: (_noise_level_data(rep), {"restarts": 20, "seed": rep})

    def readme(work):
        data, (seed_fit, _) = _readme_fit_data(work)
        return data, {"restarts": 20, "seed": seed_fit}

    def api_5d(seed):
        def build(work):
            data, (seed_fit, _) = _api_5d_fit_data(seed, work)
            return data, {"restarts": 20, "seed": seed_fit}
        return build

    cases = [
        ("modes_agree", modes_agree), ("init_at_truth", init_at_truth),
        ("deterministic", toy(39, 4, 7)), ("failed_restart", toy(42, 3, 0)),
        ("gradient_d1", gradient(1)), ("gradient_d5", gradient(5)),
    ]
    cases += [(f"noise_level_{rep}", noise_level(rep)) for rep in (0, 7, 13, 19)]
    cases += [("readme_seed11", readme)]
    cases += [(f"api_5d_seed{seed}", api_5d(seed)) for seed in (11, 12, 13)]
    return cases


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
def test_fit_map_matches_lbfgsb_oracle(monkeypatch, tmp_path, case):
    # scipy's L-BFGS-B, run on the same objective, bounds and starts, is the
    # oracle: the best MAP objective may not fall below its best
    data, kw = case[1](tmp_path)
    seen = _spy_optimizer(monkeypatch)
    fit = gp_fit_map(data, **kw)
    assert len(seen) == fit.restarts
    best = -math.inf
    for fun, x0, lo, hi, maxiter in seen:
        res = minimize(
            fun, x0, method="L-BFGS-B", jac=True, bounds=list(zip(lo, hi)),
            options={"maxiter": maxiter},
        )
        if res.fun < 1e300:
            best = max(best, -float(res.fun))
    assert fit.objective >= best - 1e-9 * abs(best)


def test_fit_map_reports_convergence_per_restart(readme_fit_data):
    data, (seed_fit, _) = readme_fit_data
    fit = gp_fit_map(data, restarts=20, seed=seed_fit)
    assert fit.converged == [True] * 20
    assert len(fit.iterations) == 20
    assert all(isinstance(k, int) and 0 < k < 200 for k in fit.iterations)


@pytest.mark.parametrize("case", ["readme_seed11", "api_5d_seed11"])
def test_fit_map_objective_is_the_dense_log_posterior(tmp_path, case):
    # the reported objective, rebuilt from the fit's own parameters, beta and
    # jitter: scipy's dense log density plus the priors by hand
    if case == "readme_seed11":
        data, (seed_fit, _) = _readme_fit_data(tmp_path)
    else:
        data, (seed_fit, _) = _api_5d_fit_data(11, tmp_path)
    fit = gp_fit_map(data, restarts=20, seed=seed_fit)
    want = _dense_logpdf(data, fit.params, fit.jitter) + _log_priors(fit.hyper, fit.params)
    assert fit.objective == pytest.approx(want, abs=1e-8)


def test_fit_map_maxiter_stops_restarts_unconverged():
    data = _toy_data(make_rng(39), 8)
    fit = gp_fit_map(data, restarts=4, maxiter=1, seed=7)
    assert fit.iterations == [1] * 4
    assert fit.converged == [False] * 4


# the one beta mode, passed by keyword as the api_5d benchmark worker passes it
@pytest.mark.parametrize("beta_mode", ["closed_form"])
def test_fit_map_failed_restart_reads_minus_inf(monkeypatch, beta_mode):
    data = _toy_data(make_rng(42), 8)
    real_chol = gp_mod._chol_jitter
    calls = []

    def fails_first(theta):
        calls.append(theta)
        if len(calls) == 1:
            raise ConditioningError("forced")
        return real_chol(theta)

    monkeypatch.setattr(gp_mod, "_chol_jitter", fails_first)
    fit = gp_fit_map(data, beta_mode=beta_mode, restarts=3, seed=0)
    assert fit.objectives[0] == -math.inf
    assert np.all(np.isfinite(fit.objectives[1:]))
    assert fit.objective == max(fit.objectives)
    assert fit.converged[0] is False


def test_fit_map_every_restart_failed(monkeypatch):
    def always_fails(theta):
        raise ConditioningError("forced")

    monkeypatch.setattr(gp_mod, "_chol_jitter", always_fails)
    with pytest.raises(FitError, match="every restart"):
        gp_fit_map(_toy_data(make_rng(43), 8), restarts=3, seed=0)


def test_fit_map_recovers_noise_level():
    # self-consistency: data generated by the model itself
    truth = GpDiscrepancyParams(lam=0.0025, beta=0.3, sigma2=0.01, omegas=(4.0,))
    hits = 0
    for rep in range(20):
        rng = make_rng(3000 + rep)
        x = rng.random((50, 1))
        m = np.sin(2.0 * np.pi * x[:, 0])
        cov = gp_cov_matrix(x, truth)
        delta = sample_mvn(
            MvnParams(mean=np.full(50, truth.beta), cov=cov), 1, seed=4000 + rep
        )[0]
        data = DiscrepancyData(inputs=x, model_outputs=m, observed=m + delta)
        fit = gp_fit_map(data, restarts=20, seed=rep)
        hits += truth.lam / 3.0 <= fit.params.lam <= truth.lam * 3.0
    assert hits >= 16  # >= 80% of 20 replications


def test_error_quantile_deterministic_errors():
    data = DiscrepancyData(
        inputs=np.linspace(0, 1, 7)[:, None],
        model_outputs=np.zeros(7),
        observed=np.zeros(7),
    )
    params = GpDiscrepancyParams(lam=0.0, beta=-0.4, sigma2=0.0, omegas=(1.0,))
    res = gp_error_quantile(params, data, alpha=0.9, reps=50, seed=0)
    assert np.all(res.quantiles == 0.4)
    assert res.median == 0.4


def test_error_quantile_continuous_in_parameters(readme_fit_data):
    # Cholesky draws move continuously with the law; eigenvector draws of a
    # near-multiple of I rotated with a 1e-8 change in lam
    data, (seed_fit, seed_q) = readme_fit_data
    p = gp_fit_map(data, restarts=20, seed=seed_fit).params
    nudged = GpDiscrepancyParams(
        lam=p.lam * (1.0 + 1e-8), beta=p.beta, sigma2=p.sigma2, omegas=p.omegas
    )
    a = gp_error_quantile(p, data, 0.95, reps=10_000, seed=seed_q).quantiles
    b = gp_error_quantile(nudged, data, 0.95, reps=10_000, seed=seed_q).quantiles
    assert np.all(np.abs(b - a) <= 1e-6 * np.abs(a))


def test_error_quantile_standard_normal():
    x = np.linspace(0.0, 1.0, 400)[:, None]
    data = DiscrepancyData(
        inputs=x, model_outputs=np.zeros(400), observed=np.zeros(400)
    )
    params = GpDiscrepancyParams(lam=1.0, beta=0.0, sigma2=0.0, omegas=(0.0,))
    res = gp_error_quantile(params, data, alpha=0.95, reps=2000, seed=1)
    assert res.median == pytest.approx(1.96, abs=0.05)


def test_error_quantile_single_point_folded_normal():
    data = DiscrepancyData(inputs=[[0.0]], model_outputs=[0.0], observed=[0.0])
    params = GpDiscrepancyParams(lam=0.05, beta=0.3, sigma2=0.04, omegas=(0.0,))
    res = gp_error_quantile(params, data, alpha=0.5, reps=4001, seed=2)
    sigma = math.sqrt(0.05 + 0.04)
    want = foldnorm.ppf(0.5, c=0.3 / sigma, scale=sigma)
    assert res.median == pytest.approx(want, abs=0.03)
    assert res.quantiles.shape == (4001,)


def test_error_quantile_median_is_sample_median():
    rng = make_rng(41)
    data = _toy_data(rng, 5)
    params = GpDiscrepancyParams(lam=0.1, beta=0.1, sigma2=0.2, omegas=(1.0,))
    res = gp_error_quantile(params, data, alpha=0.8, reps=101, seed=3)
    assert res.median == float(np.median(res.quantiles))
    again = gp_error_quantile(params, data, alpha=0.8, reps=101, seed=3)
    assert np.array_equal(res.quantiles, again.quantiles)


def test_error_quantile_holds_one_result_array():
    # 1-d, n = 50, 10,000 replications: a (reps, n) array is 3.8 MiB.  Only
    # the normal draws and their product with L^T are alive at once; beta,
    # abs and the partition work in place on the product
    data = _toy_data(make_rng(46), 50)
    params = GpDiscrepancyParams(lam=0.01, beta=0.3, sigma2=0.05, omegas=(3.0,))
    reps, alpha = 10_000, 0.95
    tracemalloc.start()
    try:
        res = gp_error_quantile(params, data, alpha=alpha, reps=reps, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * reps * data.n
    fac, _ = _chol_jitter(gp_cov_matrix(data.inputs, params))
    draws = make_rng(4).standard_normal((reps, data.n)) @ fac.T + params.beta
    k = math.ceil(alpha * data.n)
    assert np.array_equal(res.quantiles, np.sort(np.abs(draws), axis=1)[:, k - 1])


def test_error_quantile_validation():
    data = DiscrepancyData(inputs=[[0.0]], model_outputs=[0.0], observed=[0.0])
    params = GpDiscrepancyParams(lam=0.1, beta=0.0, sigma2=0.0, omegas=(0.0,))
    with pytest.raises(DomainError):
        gp_error_quantile(params, data, alpha=1.0, reps=10, seed=0)
    with pytest.raises(DomainError):
        gp_error_quantile(params, data, alpha=0.5, reps=0, seed=0)


def test_discrepancy_data_validation():
    with pytest.raises(DataError, match="mismatched"):
        DiscrepancyData(inputs=[[0.0]], model_outputs=[0.0, 1.0], observed=[0.0])
    with pytest.raises(DataError, match="non-finite"):
        DiscrepancyData(inputs=[[np.inf]], model_outputs=[0.0], observed=[0.0])

