"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Each test prints ``[PASS]``/``[FAIL] criterion N: ...`` with its runtime and
enforces the stated tolerance and time budget.
"""

import math
import time

import numpy as np
from scipy.stats import foldnorm, multivariate_normal

from uqim.avm import avm
from uqim.bootstrap import bootstrap_error_quantile
from uqim.confidence import (
    ci_feasibility,
    density_band,
    minimal_feasible_delta,
    minimal_feasible_n,
    minimize_eps_gamma,
    quantile_ci,
)
from uqim.density import KdeModel, kde_evaluate, select_bandwidth
from uqim.gp import (
    DiscrepancyData,
    GpDiscrepancyParams,
    GpHyperParams,
    _evaluate,
    _sqdists,
    gp_cov_matrix,
    gp_error_quantile,
)
from uqim.randgen import estimate_mvn, sample_mvn, spawn_seeds
from uqim.surrogate import (
    FunctionFamily,
    compute_residuals,
    fit_with_gcv,
    improved_surrogate,
    select_weight_and_penalty,
)
from uqim.synthetic import field_measurements, make_mafds_like


def _line(num, desc, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num}: {desc} ({detail}; {elapsed:.1f}s/"
          f"{budget:.0f}s budget)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_01_small_sample_feasibility():
    t0 = time.perf_counter()
    infeasible = not ci_feasibility(10, 0.95, 0.05).feasible
    n_min = minimal_feasible_n(0.95, 0.05)
    d_min = minimal_feasible_delta(10, 0.95)
    ok = infeasible and 55 <= n_min <= 70 and 0.58 <= d_min <= 0.68
    _line(1, "quantile-CI feasibility screening", ok,
          f"n=10 infeasible={infeasible}, minimal n={n_min}, "
          f"minimal delta={d_min:.4f}", time.perf_counter() - t0, 5.0)


def test_criterion_02_field_table_means():
    t0 = time.perf_counter()
    table = field_measurements()
    est = estimate_mvn(table.inputs)
    oracle = np.array([
        math.fsum(col) / table.n for col in table.inputs.T
    ])
    rel = float(np.max(np.abs(est.mean - oracle) / np.abs(oracle)))
    hand = abs(est.mean[0] - 124.9) / 124.9
    ok = rel <= 1e-12 and hand <= 1e-3
    _line(2, "measurement-table column means", ok,
          f"max rel dev vs fsum {rel:.2e}, first mean {est.mean[0]:.4f}",
          time.perf_counter() - t0, 1.0)


def test_criterion_03_kde_normalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        kind = rng.integers(0, 3)
        if kind == 0:
            values = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3), n)
        elif kind == 1:
            values = rng.uniform(-1, 1, n)
        else:
            values = np.round(rng.exponential(2.0, n), 1)
        h = float(10.0 ** rng.uniform(-2, 1))
        kde = KdeModel(values=np.sort(values), bandwidth=h)
        breaks = np.unique(np.concatenate([kde.values - h, kde.values + h]))
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        total = float(np.sum(kde_evaluate(kde, mids) * np.diff(breaks)))
        worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-9
    _line(3, "box-kernel density normalization", ok,
          f"worst |integral-1| {worst:.2e} over 1000 samples",
          time.perf_counter() - t0, 10.0)


def test_criterion_04_cdf_area_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_exact, worst_riemann = 0.0, 0.0
    for _ in range(200):
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2), 100)
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2), 100)
        res = avm(a, b, grid_steps=100_000)
        oracle = float(np.mean(np.abs(np.sort(a) - np.sort(b))))
        worst_exact = max(worst_exact, abs(res.exact - oracle))
        worst_riemann = max(worst_riemann, abs(res.riemann - res.exact))
    ok = worst_exact <= 1e-10 and worst_riemann <= 1e-3
    _line(4, "ECDF area distance vs sorted-difference oracle", ok,
          f"exact dev {worst_exact:.2e}, Riemann dev {worst_riemann:.2e}",
          time.perf_counter() - t0, 30.0)


def test_criterion_05_gp_likelihood_oracle():
    # the objective gp_fit_map maximizes, at the profiled mean beta*, against
    # scipy's dense log density plus the priors' log densities by hand
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    beta_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.05, 2.0))
        sigma2 = float(rng.uniform(0.0, 2.0))
        rng.normal()  # a mean, unused as beta is profiled; drawn so the cases stay
        omegas = tuple(rng.uniform(0.1, 3.0, d))
        # reciprocal supports [1e-12, ~1e14] hold every drawn sigma2 and omega
        hyper = GpHyperParams(
            mu_lam=0.0, var_lam=1.0, mu_beta=0.0, var_beta=0.01,
            c_sigma2=1.0 / 60.0, c_omegas=(1.0 / 60.0,) * d, eps_trunc=1e-12,
        )
        ev = _evaluate(lam, sigma2, omegas, _sqdists(x), y, hyper)
        params = GpDiscrepancyParams(lam=lam, sigma2=sigma2, beta=ev.beta, omegas=omegas)
        theta = gp_cov_matrix(x, params) + ev.jitter * np.eye(n)

        def dense(beta, theta=theta):
            return float(multivariate_normal.logpdf(
                y, mean=np.full(n, beta), cov=theta, allow_singular=False
            ))

        priors = (
            -0.5 * (math.log(2.0 * math.pi * hyper.var_lam) + lam**2 / hyper.var_lam)
            - 0.5 * (math.log(2.0 * math.pi * hyper.var_beta)
                     + ev.beta**2 / hyper.var_beta)
            + (d + 1) * math.log(1.0 / 60.0)
            - math.log(sigma2) - sum(math.log(w) for w in omegas)
        )
        worst = max(worst, abs(ev.logpost - (dense(ev.beta) + priors)))
        center = dense(ev.beta)
        for shift in (-0.01, 0.01):
            if dense(ev.beta + shift) >= center:
                beta_ok = False
    ok = worst <= 1e-8 and beta_ok
    _line(5, "GP objective vs dense MVN oracle plus priors", ok,
          f"worst |diff| {worst:.2e}, profiled location optimal={beta_ok}",
          time.perf_counter() - t0, 10.0)


def test_criterion_06_gp_error_quantile_sanity():
    t0 = time.perf_counter()
    n = 200
    data = DiscrepancyData(
        inputs=np.linspace(0.0, 1.0, n)[:, None],
        model_outputs=np.zeros(n),
        observed=np.zeros(n),
    )
    params = GpDiscrepancyParams(lam=1.0, sigma2=0.0, beta=0.0, omegas=(1.0,))
    eq = gp_error_quantile(params, data, 0.95, reps=10_000, seed=606)
    ok = abs(eq.median - 1.96) <= 0.05
    _line(6, "pure-noise GP error quantile", ok,
          f"median {eq.median:.4f} vs 1.96 +/- 0.05",
          time.perf_counter() - t0, 60.0)


def test_criterion_07_improved_surrogate_benefit():
    t0 = time.perf_counter()
    sys_ = make_mafds_like(bias_kind="smooth", bias_scale=0.02, sigma_obs=0.002)
    ref = sample_mvn(sys_.params, 20_000, 999)
    g_ref = sys_.truth(ref)
    wins = 0
    for rep in range(50):
        s_sim, s_exp = spawn_seeds(5000 + rep, 2)
        sim = sys_.draw_simulation(100, s_sim)
        exp = sys_.draw_experiment(10, s_exp)
        base = fit_with_gcv(FunctionFamily(kind="spline1d", size=8), sim)
        residuals = compute_residuals(base, exp)
        sel = select_weight_and_penalty(
            FunctionFamily(kind="poly", size=2), exp, residuals, sim.inputs,
            seed=6000 + rep,
        )
        improved = improved_surrogate(base, sel.model, weight=sel.weight)
        e_plain = float(np.sqrt(np.mean((base(ref) - g_ref) ** 2)))
        e_improved = float(np.sqrt(np.mean((improved(ref) - g_ref) ** 2)))
        wins += e_improved < e_plain
    ok = wins >= 45
    _line(7, "residual correction beats plain surrogate", ok,
          f"{wins}/50 replications improved (need >= 45)",
          time.perf_counter() - t0, 120.0)


def test_criterion_08_quantile_ci_coverage():
    t0 = time.perf_counter()
    sys_ = make_mafds_like(bias_kind="smooth", bias_scale=0.005, sigma_obs=0.0)
    q_true = sys_.true_quantile(0.95)
    hits = 0
    for rep in range(200):
        s_exp, s_out = spawn_seeds(8000 + rep, 2)
        exp = sys_.draw_experiment(100, s_exp)
        outputs = sys_.model(sample_mvn(sys_.params, 1_000_000, s_out))
        ci = quantile_ci(exp, sys_.model, outputs, alpha=0.95, delta=0.05)
        hits += ci.lower <= q_true <= ci.upper
    ok = hits >= 190
    _line(8, "quantile-CI coverage on the 1-d synthetic system", ok,
          f"{hits}/200 replications cover (need >= 190)",
          time.perf_counter() - t0, 600.0)


def test_criterion_09_density_band_coverage():
    t0 = time.perf_counter()
    sys_ = make_mafds_like(bias_kind="linear", bias_scale=0.005, sigma_obs=0.0)
    kappa, steps = 0.02, 46
    covered = 0
    for rep in range(100):
        s_exp, s_out = spawn_seeds(8800 + rep, 2)
        exp = sys_.draw_experiment(100, s_exp)
        outputs = sys_.model(sample_mvn(sys_.params, 100_000, s_out))
        band = density_band(
            outputs, exp, sys_.model, kappa=kappa, delta=0.05,
            bandwidths=[select_bandwidth(outputs)],
            interval=(0.06, 0.105), grid_steps=steps,
        )
        dg = np.diff(band.grid)
        cum_lo = np.concatenate(
            [[0.0], np.cumsum(0.5 * dg * (band.lower[:-1] + band.lower[1:]))]
        )
        cum_up = np.concatenate(
            [[0.0], np.cumsum(0.5 * dg * (band.upper[:-1] + band.upper[1:]))]
        )
        cdf = sys_.true_cdf(band.grid)
        span = band.grid[None, :] - band.grid[:, None]
        mask = span >= kappa
        truth = cdf[None, :] - cdf[:, None]
        low_int = cum_lo[None, :] - cum_lo[:, None]
        up_int = cum_up[None, :] - cum_up[:, None]
        covered += bool(
            np.all(low_int[mask] <= truth[mask] + 1e-12)
            and np.all(truth[mask] <= up_int[mask] + 2e-12)
        )
    ok = covered >= 95
    _line(9, "density-band interval coverage", ok,
          f"{covered}/100 replications cover all intervals (need >= 95)",
          time.perf_counter() - t0, 600.0)


def test_criterion_10_bootstrap_error_quantile():
    t0 = time.perf_counter()
    scale = 0.01
    sys_ = make_mafds_like(bias_kind="linear", bias_scale=scale, sigma_obs=0.0)
    exp = sys_.draw_experiment(100, 777)
    family = FunctionFamily(kind="poly", size=1)
    runs = [
        bootstrap_error_quantile(exp, sys_.model, family, b_reps=500,
                                 n_learn=10, alpha=0.95, seed=31)
        for _ in range(2)
    ]
    # |bias(X)| is folded normal: mean 0.5*scale, sd scale/4
    truth = float(foldnorm.ppf(0.95, c=2.0, scale=scale / 4.0))
    ratio = runs[0].median / truth
    ok = 0.5 <= ratio <= 2.0 and np.array_equal(runs[0].quantiles, runs[1].quantiles)
    _line(10, "bootstrap error quantile vs analytic bias", ok,
          f"median/truth {ratio:.3f} (need within factor 2), "
          f"deterministic={np.array_equal(runs[0].quantiles, runs[1].quantiles)}",
          time.perf_counter() - t0, 300.0)


def test_criterion_11_eps_gamma_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 500))
        big_n = float(10.0 ** rng.uniform(2, 7))
        delta = float(rng.uniform(0.02, 0.9))
        d_delta = delta * float(rng.uniform(0.1, 0.9))
        eg = minimize_eps_gamma(n, big_n, delta, d_delta)
        rem = delta - d_delta
        lb = 1.0 - rem ** (1.0 / n)
        eps = lb + (1.0 - lb) * np.linspace(1e-12, 1.0 - 1e-12, 100_000)
        arg = rem - (1.0 - eps) ** n
        valid = arg > 0.0
        obj = np.where(
            valid,
            eps + np.sqrt(-np.log(np.where(valid, arg, 1.0)) / (2.0 * big_n)),
            np.inf,
        )
        worst = max(worst, abs(eg.objective - float(obj.min())))
    ok = worst <= 1e-6
    _line(11, "epsilon/gamma split optimality vs grid oracle", ok,
          f"worst |objective diff| {worst:.2e} over 50 settings",
          time.perf_counter() - t0, 10.0)
