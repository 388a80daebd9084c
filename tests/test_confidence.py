import math
import tracemalloc

import numpy as np
import pytest

from uqim import confidence, density
from uqim.confidence import (
    DensityBand,
    _band_sups,
    _candidates,
    _window_max,
    EpsGamma,
    QuantileCi,
    ci_feasibility,
    default_d_delta_grid,
    density_band,
    _gamma_term as gamma_term,
    minimal_feasible_delta,
    minimal_feasible_n,
    minimize_eps_gamma,
    quantile_ci,
    _surrogate_error_bound as surrogate_error_bound,
)
from uqim.data import PairedDataset
from uqim.density import KdeModel, kde_cdf, mc_quantile
from uqim.errors import DomainError, InfeasibleError, InsufficientDataError
from uqim.randgen import make_rng


def _exp_with_error(n, err, seed=0):
    """Experimental set whose surrogate error bound is exactly ``err``."""
    rng = make_rng(seed)
    x = rng.random(n)[:, None]
    y = np.sin(x[:, 0])
    y = y.copy()
    y[0] += err
    data = PairedDataset(inputs=x, outputs=y, kind="experimental")
    return data, (lambda pts: np.sin(np.asarray(pts, float).ravel()))


# ---------------------------------------------------------------------------
# epsilon/gamma


def test_gamma_term_formula():
    n, big_n, delta, dd, eps = 20, 1e4, 0.1, 0.05, 0.2
    want = math.sqrt(-math.log(delta - dd - 0.8**n) / (2.0 * big_n))
    assert gamma_term(n, big_n, delta, dd, eps) == pytest.approx(want, rel=1e-12)


def test_gamma_term_constraint_violation():
    n, delta, dd = 10, 0.05, 0.025
    lb = 1.0 - (delta - dd) ** (1.0 / n)
    with pytest.raises(DomainError, match="infeasible"):
        gamma_term(n, 1e6, delta, dd, lb - 1e-12)
    # just above the boundary is fine
    assert gamma_term(n, 1e6, delta, dd, lb + 1e-6) > 0.0


def test_gamma_term_validation():
    with pytest.raises(DomainError):
        gamma_term(0, 1e4, 0.1, 0.05, 0.2)
    with pytest.raises(DomainError):
        gamma_term(10, 1e4, 1.2, 0.05, 0.2)
    with pytest.raises(DomainError):
        gamma_term(10, 1e4, 0.1, 0.1, 0.2)
    with pytest.raises(DomainError):
        gamma_term(10, 0.0, 0.1, 0.05, 0.2)


def test_minimize_eps_gamma_infinite_n_limit():
    n, delta, dd = 25, 0.1, 0.04
    eg = minimize_eps_gamma(n, 1e18, delta, dd)
    lb = 1.0 - (delta - dd) ** (1.0 / n)
    assert eg.gamma <= 1e-8
    assert eg.objective == pytest.approx(lb, rel=1e-7)
    assert eg.eps >= lb


def test_minimize_eps_gamma_grid_oracle():
    n, big_n, delta, dd = 100, 1e6, 0.05, 0.025
    eg = minimize_eps_gamma(n, big_n, delta, dd)
    rem = delta - dd
    lb = 1.0 - rem ** (1.0 / n)
    eps = lb + (1.0 - lb) * np.linspace(1e-12, 1.0 - 1e-12, 100_000)
    arg = rem - (1.0 - eps) ** n
    ok = arg > 0.0
    obj = np.where(
        ok, eps + np.sqrt(-np.log(np.where(ok, arg, 1.0)) / (2.0 * big_n)), np.inf
    )
    brute = float(obj.min())
    assert eg.objective <= brute + 1e-12
    assert abs(eg.objective - brute) <= 1e-6
    # returned pair satisfies the strict constraint and the formula
    assert (1.0 - eg.eps) ** n < rem
    assert eg.gamma == pytest.approx(
        gamma_term(n, big_n, delta, dd, eg.eps), rel=1e-12
    )


def test_minimize_eps_gamma_random_settings_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 300))
        big_n = float(10 ** rng.uniform(2, 7))
        delta = float(rng.uniform(0.02, 0.9))
        dd = delta * float(rng.uniform(0.1, 0.9))
        eg = minimize_eps_gamma(n, big_n, delta, dd)
        rem = delta - dd
        lb = 1.0 - rem ** (1.0 / n)
        eps = lb + (1.0 - lb) * np.linspace(1e-12, 1.0 - 1e-12, 20_000)
        arg = rem - (1.0 - eps) ** n
        ok = arg > 0.0
        obj = np.where(
            ok,
            eps + np.sqrt(-np.log(np.where(ok, arg, 1.0)) / (2.0 * big_n)),
            np.inf,
        )
        assert eg.objective <= float(obj.min()) + 1e-9


def _scipy_bounded_eps_gamma(n, big_n, delta, d_delta):
    """Log-spaced plus uniform grid, then scipy's bounded method in its argmin's bracket."""
    from scipy.optimize import minimize_scalar

    rem = delta - d_delta
    lb = 1.0 - rem ** (1.0 / n)
    span = 1.0 - lb

    def objective(eps):
        eps = np.asarray(eps, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            arg = rem - (1.0 - eps) ** n
            gam = np.sqrt(-np.log(arg) / (2.0 * big_n))
        return np.where(arg > 0.0, eps + gam, np.inf)

    t = np.unique(
        np.concatenate([np.logspace(-14.0, 0.0, 400), np.linspace(0.0, 1.0, 1200)])
    )
    cand = lb + span * t[(t > 0.0) & (t < 1.0)]
    vals = objective(cand)
    i = int(np.argmin(vals))
    lo = cand[i - 1] if i > 0 else lb + span * 1e-16
    hi = cand[i + 1] if i + 1 < cand.size else cand[-1]
    best_eps, best_val = float(cand[i]), float(vals[i])
    if hi > lo:
        res = minimize_scalar(
            lambda e: float(objective(e)), bounds=(lo, hi), method="bounded",
            options={"xatol": max(span * 1e-15, 1e-300)},
        )
        if np.isfinite(res.fun) and res.fun < best_val:
            best_eps = float(res.x)
    gam = gamma_term(n, big_n, delta, d_delta, best_eps)
    return best_eps, gam, best_eps + gam


def test_minimize_eps_gamma_matches_scipy_bounded():
    settings = [
        (n, big_n, delta, dd)
        for n in (1, 2, 10, 50, 100, 1000)
        for big_n in (1.0, 10.0, 1e5, 1e6, 1e18)
        for delta in (0.05, 0.2, 0.5, 0.999)
        for dd in default_d_delta_grid(delta)
    ]
    # the README's density band: ddelta = 2/N^2
    settings.append((50, 1e6, 0.05, 2.0 / 1e6**2))
    # the narrowing grid is no worse than scipy's bounded minimum beyond the
    # rounding of the objective at its flat minimum, and beats it where that
    # minimum lies near eps = 1 (n = 1, small N)
    for n, big_n, delta, dd in settings:
        eg = minimize_eps_gamma(n, big_n, delta, dd)
        _, _, ref = _scipy_bounded_eps_gamma(n, big_n, delta, dd)
        assert eg.objective <= ref * (1.0 + 1e-13), (n, big_n, delta, dd)
        assert (1.0 - eg.eps) ** n < delta - dd
        assert eg.gamma == gamma_term(n, big_n, delta, dd, eg.eps)
        assert [type(v) for v in (eg.eps, eg.gamma, eg.objective)] == [float] * 3


# ---------------------------------------------------------------------------
# feasibility


def test_feasibility_small_sample_regime():
    rep = ci_feasibility(10, 0.95, 0.05)
    assert not rep.feasible
    assert all(not e.feasible for e in rep.entries)
    assert ci_feasibility(10, 0.95, 0.05, big_n=1e6).feasible is False


def test_minimal_feasible_n_band():
    n_min = minimal_feasible_n(0.95, 0.05)
    assert 55 <= n_min <= 70
    assert n_min == 61
    assert not ci_feasibility(n_min - 1, 0.95, 0.05).feasible
    assert ci_feasibility(n_min, 0.95, 0.05).feasible


def test_minimal_feasible_delta_small_n():
    d_min = minimal_feasible_delta(10, 0.95)
    assert 0.6 <= d_min <= 0.7
    assert d_min == pytest.approx(0.6652632666367166, abs=1e-6)
    assert ci_feasibility(10, 0.95, d_min * 1.001).feasible
    assert not ci_feasibility(10, 0.95, d_min * 0.999).feasible


def _full_screen_min_delta(n, alpha, big_n, tol=1e-9):
    """The bisection with every trial delta's full feasibility report."""
    ratios = np.linspace(0.1, 0.9, 9)

    def ok(d):
        try:
            return ci_feasibility(n, alpha, d, d * ratios, big_n).feasible
        except DomainError:
            return False

    lo, hi = tol, 1.0 - 1e-12
    assert ok(hi) and not ok(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("n, alpha, big_n", [
    (50, 0.95, 1e5), (50, 0.95, 1e6), (20, 0.9, 1e4), (100, 0.99, 1e5),
])
def test_minimal_feasible_delta_stops_at_the_first_feasible_d_delta(n, alpha, big_n,
                                                                    monkeypatch):
    calls = []
    real = confidence.minimize_eps_gamma

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(confidence, "minimize_eps_gamma", counted)
    reference = _full_screen_min_delta(n, alpha, big_n)
    full = len(calls)
    calls.clear()
    assert minimal_feasible_delta(n, alpha, big_n=big_n) == reference
    assert len(calls) < full


def test_minimal_feasible_delta_bad_ratio_makes_every_delta_infeasible():
    # ratio 0.1 alone is feasible from delta ~ 0.15; a ratio of 1 gives
    # ddelta = delta, out of bounds for every trial delta
    assert minimal_feasible_delta(50, 0.95, ratio_grid=[0.1], big_n=1e5) < 0.5
    with pytest.raises(InfeasibleError):
        minimal_feasible_delta(50, 0.95, ratio_grid=[0.1, 1.0], big_n=1e5)


def test_feasibility_loose_settings():
    rep = ci_feasibility(100, 0.5, 0.5)
    assert rep.feasible
    assert rep.best_objective < 0.5
    finite = ci_feasibility(100, 0.5, 0.5, big_n=1e6)
    assert finite.feasible
    assert all(e.hoeffding > 0 for e in finite.entries)


def test_feasibility_infinite_limit_is_lower_envelope():
    # finite N can never beat the N -> infinity screening objective
    inf_rep = ci_feasibility(80, 0.9, 0.1)
    fin_rep = ci_feasibility(80, 0.9, 0.1, big_n=1e5)
    assert fin_rep.best_objective > inf_rep.best_objective


# ---------------------------------------------------------------------------
# quantile interval


def test_surrogate_error_bound():
    data, model = _exp_with_error(30, 0.25, seed=1)
    assert surrogate_error_bound(data, model) == pytest.approx(0.25, abs=1e-12)
    exact, model2 = _exp_with_error(30, 0.0, seed=1)
    assert surrogate_error_bound(exact, model2) == 0.0


def test_quantile_ci_zero_beta_uses_inner_order_statistics():
    data, model = _exp_with_error(100, 0.0, seed=2)
    outputs = make_rng(3).standard_normal(100_000)
    ci = quantile_ci(data, model, outputs, alpha=0.95, delta=0.05)
    assert ci.beta_hat == 0.0
    from uqim.density import mc_quantile

    assert ci.lower == mc_quantile(outputs, ci.level_low).value
    assert ci.upper == mc_quantile(outputs, ci.level_high).value
    assert ci.lower < ci.upper
    assert 0.0 < ci.level_low < ci.alpha < ci.level_high < 1.0


def test_quantile_ci_monotone_in_beta():
    outputs = make_rng(4).standard_normal(50_000)
    cis = []
    for err in (0.0, 0.1, 0.3):
        data, model = _exp_with_error(100, err, seed=5)
        cis.append(quantile_ci(data, model, outputs, alpha=0.9, delta=0.1))
    for a, b in zip(cis, cis[1:]):
        assert b.lower < a.lower
        assert b.upper > a.upper
        # levels do not depend on beta_hat
        assert b.level_low == a.level_low
        assert b.level_high == a.level_high


def test_quantile_ci_lower_below_upper_across_settings():
    outputs = make_rng(6).standard_normal(20_000)
    data, model = _exp_with_error(150, 0.05, seed=7)
    for alpha in (0.1, 0.5, 0.9):
        for delta in (0.2, 0.5):
            ci = quantile_ci(data, model, outputs, alpha=alpha, delta=delta)
            assert ci.lower < ci.upper
            assert ci.level_low < ci.level_high


def test_quantile_ci_infeasible_reports_min_delta():
    outputs = make_rng(8).standard_normal(1_000_000)
    data, model = _exp_with_error(10, 0.0, seed=9)
    # default split: no delta below 1 works at n=10, alpha=0.95
    with pytest.raises(InfeasibleError) as err:
        quantile_ci(data, model, outputs, alpha=0.95, delta=0.05)
    assert err.value.min_delta is None
    # the ddelta sweep has a finite minimal workable delta
    with pytest.raises(InfeasibleError) as err2:
        quantile_ci(data, model, outputs, alpha=0.95, delta=0.05, sweep=True)
    d_min = err2.value.min_delta
    assert d_min is not None and 0.6 < d_min < 0.8
    ci = quantile_ci(data, model, outputs, alpha=0.95, delta=d_min * 1.05, sweep=True)
    assert ci.lower < ci.upper


def test_quantile_ci_sweep_narrows_or_matches():
    outputs = make_rng(10).standard_normal(200_000)
    data, model = _exp_with_error(200, 0.01, seed=11)
    plain = quantile_ci(data, model, outputs, alpha=0.95, delta=0.05)
    swept = quantile_ci(data, model, outputs, alpha=0.95, delta=0.05, sweep=True)
    assert swept.width <= plain.width + 1e-15


def test_quantile_ci_sweep_matches_per_candidate_order_statistics():
    # outputs on a lattice, so the order statistics sit among ties; at
    # n = 200, N = 1e4 the narrowest interval is not the first candidate's
    outputs = np.round(make_rng(12).standard_normal(10_000), 3)
    data, model = _exp_with_error(200, 0.02, seed=13)
    ci = quantile_ci(data, model, outputs, alpha=0.9, delta=0.2, sweep=True)
    best = None
    for dd in default_d_delta_grid(0.2):
        hoeff = math.sqrt(-math.log(dd / 2.0) / (2.0 * outputs.size))
        eg = minimize_eps_gamma(200, outputs.size, 0.2, dd)
        low = 0.9 - hoeff - eg.eps - eg.gamma
        high = 0.9 + hoeff + eg.eps + eg.gamma
        if not (0.0 < low and high < 1.0):
            continue
        lower = mc_quantile(outputs, low).value - ci.beta_hat
        upper = mc_quantile(outputs, high).value + ci.beta_hat
        if best is None or upper - lower < best[1] - best[0]:
            best = (lower, upper, dd)
    assert best is not None and best[2] > 0.02 * 1.5
    assert (ci.lower, ci.upper, ci.d_delta) == best


def test_feasibility_screen_agrees_with_quantile_ci_at_the_level_edge():
    # alphas within a few ulp of where a level leaves (0, 1): the screen
    # calls a ddelta feasible exactly when the interval uses it
    outputs = make_rng(14).standard_normal(1000)
    disagreed = []
    for n, delta in [(20, 0.5), (35, 0.8), (62, 0.06), (170, 0.28)]:
        data, model = _exp_with_error(n, 0.0, seed=n)
        dd = delta / 2.0
        eg = minimize_eps_gamma(n, 1000, delta, dd)
        shift = math.sqrt(-math.log(dd / 2.0) / 2000.0) + eg.objective
        for edge in (shift, 1.0 - shift):
            for k in range(-3, 4):
                alpha = edge + k * math.ulp(edge)
                screen = ci_feasibility(n, alpha, delta, [dd], big_n=1000.0).feasible
                try:
                    quantile_ci(data, model, outputs, alpha, delta, d_delta=dd)
                    used = True
                except InfeasibleError:
                    used = False
                if screen != used:
                    disagreed.append((n, delta, alpha, screen))
    assert disagreed == []


def test_quantile_ci_validation():
    data, model = _exp_with_error(50, 0.0, seed=12)
    outputs = make_rng(13).standard_normal(1000)
    with pytest.raises(DomainError):
        quantile_ci(data, model, outputs, alpha=0.0, delta=0.1)
    with pytest.raises(DomainError):
        quantile_ci(data, model, outputs, alpha=0.5, delta=0.1, d_delta=0.1)
    with pytest.raises(InsufficientDataError):
        quantile_ci(data, model, [], alpha=0.5, delta=0.1)


# ---------------------------------------------------------------------------
# density band


def _band_inputs(n_exp=40, big_n=4000, err=0.0, seed=20):
    rng = make_rng(seed)
    outputs = rng.standard_normal(big_n)
    data, model = _exp_with_error(n_exp, err, seed=seed + 1)
    return outputs, data, model


def test_band_lower_nonnegative_and_shapes():
    outputs, data, model = _band_inputs(err=0.05)
    band = density_band(
        outputs, data, model, kappa=0.5, delta=0.1, bandwidths=[0.3, 0.6],
        interval=(-3.0, 3.0), grid_steps=101,
    )
    assert isinstance(band, DensityBand)
    assert band.grid.shape == band.lower.shape == band.upper.shape == (101,)
    assert np.all(np.diff(band.grid) > 0)
    assert np.all(band.lower >= 0.0)
    assert np.all(band.upper >= band.lower)
    assert band.beta_hat == pytest.approx(0.05, abs=1e-12)


def test_band_multi_bandwidth_never_widens():
    outputs, data, model = _band_inputs()
    kw = dict(kappa=0.4, delta=0.1, interval=(-2.5, 2.5), grid_steps=61)
    single = [
        density_band(outputs, data, model, bandwidths=[h], **kw)
        for h in (0.25, 0.5)
    ]
    combined = density_band(outputs, data, model, bandwidths=[0.25, 0.5], **kw)
    for b in single:
        assert np.all(combined.upper <= b.upper + 1e-12)
        assert np.all(combined.lower >= b.lower - 1e-12)


def test_band_width_nonincreasing_in_big_n():
    rng = make_rng(21)
    pool = rng.standard_normal(100_000)
    data, model = _exp_with_error(60, 0.01, seed=22)
    widths = []
    for big_n in (1_000, 10_000, 100_000):
        band = density_band(
            pool[:big_n], data, model, kappa=0.5, delta=0.1, bandwidths=[0.4],
            interval=(-2.0, 2.0), grid_steps=41,
        )
        widths.append(float(np.mean(band.upper - band.lower)))
    assert widths[0] >= widths[1] >= widths[2]


def test_band_clean_limit_half_width_tracks_correction():
    # beta = 0 and a huge well-matched sample: the sup terms are small, so
    # the half-width sits just above the additive correction term
    outputs, data, model = _band_inputs(n_exp=100, big_n=50_000, err=0.0, seed=23)
    kappa = 0.8
    band = density_band(
        outputs, data, model, kappa=kappa, delta=0.05, bandwidths=[0.35],
        interval=(-1.5, 1.5), grid_steps=41,
    )
    kde = KdeModel(values=np.sort(outputs), bandwidth=0.35)
    from uqim.density import kde_evaluate

    fhat = kde_evaluate(kde, band.grid)
    up_slack = band.upper - fhat - band.correction
    assert np.all(up_slack >= -1e-12)
    assert float(np.max(up_slack)) <= 0.6 * band.correction


def test_band_feasibility_and_validation():
    outputs, data, model = _band_inputs()
    with pytest.raises(InfeasibleError, match="2/N"):
        density_band(
            outputs[:2], data, model, kappa=0.5, delta=0.4, bandwidths=[0.3],
            interval=(-1.0, 1.0),
        )
    with pytest.raises(DomainError, match="kappa"):
        density_band(outputs, data, model, kappa=3.0, delta=0.1,
                     bandwidths=[0.3], interval=(-1.0, 1.0))
    # every bandwidth is checked before the first band is computed
    for bad in ([], [0.3, np.nan], [0.3, np.inf]):
        with pytest.raises(DomainError, match="bandwidths"):
            density_band(outputs, data, model, kappa=0.5, delta=0.1,
                         bandwidths=bad, interval=(-1.0, 1.0))
    with pytest.raises(DomainError, match="grid_steps"):
        density_band(outputs, data, model, kappa=0.5, delta=0.1,
                     bandwidths=[0.3], interval=(-1.0, 1.0), grid_steps=1)


# ---------------------------------------------------------------------------
# interval-mismatch supremum


def sup_interval_mismatch(
    direction: str,
    y: float,
    kappa: float,
    beta_hat: float,
    kde: KdeModel,
    grid=None,
) -> float:
    """Worst measure/KDE mismatch over intervals containing ``y``.

    ``direction="upper"`` takes sup of mu(J^beta) - integral of the KDE
    over J; ``"lower"`` takes sup of the KDE integral minus mu(J_beta).
    Candidate endpoints are the sample values, the sample values
    +/- beta_hat, the optional extra ``grid`` and ``y`` itself.
    """
    if direction not in ("upper", "lower"):
        raise DomainError(f"direction must be 'upper' or 'lower', got {direction!r}")
    if not (np.isfinite(kappa) and kappa > 0):
        raise DomainError(f"kappa must be positive, got {kappa}")
    if not (np.isfinite(beta_hat) and beta_hat >= 0):
        raise DomainError(f"beta_hat must be >= 0, got {beta_hat}")
    extra = np.array([float(y)])
    if grid is not None:
        extra = np.concatenate([extra, np.asarray(grid, dtype=float).ravel()])
    cand = _candidates(kde.values, beta_hat, extra)
    sup_up, sup_lo = _band_sups(kde, cand, extra[:1], kappa, beta_hat)
    return float(sup_up[0] if direction == "upper" else sup_lo[0])


def _brute_sup(direction, y, kappa, beta, kde, outputs, extra=()):
    """Exhaustive enumeration over all candidate endpoint pairs; ``extra``
    adds endpoints (the evaluation grid) to the candidates."""
    vals = np.sort(np.asarray(outputs, dtype=float))
    cand = np.unique(np.concatenate([vals, vals - beta, vals + beta, [y], extra]))
    n = vals.size
    best = -np.inf
    for i, a in enumerate(cand):
        if a > y:
            break
        for b in cand[i:]:
            if b < y:
                continue
            # longer than kappa as the program rounds it: a < fl(b - kappa)
            if not a < b - kappa:
                continue
            integral = float(kde_cdf(kde, b) - kde_cdf(kde, a))
            if direction == "upper":
                mu = (
                    np.searchsorted(vals, b + beta, side="right")
                    - np.searchsorted(vals, a - beta, side="left")
                ) / n
                best = max(best, mu - integral)
            else:
                # the shrunk interval (a + beta, b - beta), ends as computed
                if a + beta < b - beta:
                    mu = (
                        np.searchsorted(vals, b - beta, side="left")
                        - np.searchsorted(vals, a + beta, side="right")
                    ) / n
                else:
                    mu = 0.0
                best = max(best, integral - mu)
    return best


def test_sup_mismatch_exhaustive_oracle():
    rng = np.random.default_rng(24)
    for trial in range(12):
        outputs = rng.normal(size=5)
        beta = float(rng.uniform(0.0, 0.5))
        kappa = float(rng.uniform(0.05, 0.6))
        h = float(rng.uniform(0.2, 0.8))
        kde = KdeModel(values=outputs, bandwidth=h)
        for y in rng.uniform(outputs.min() - 0.3, outputs.max() + 0.3, size=4):
            for direction in ("upper", "lower"):
                got = sup_interval_mismatch(direction, float(y), kappa, beta, kde)
                want = _brute_sup(direction, float(y), kappa, beta, kde, outputs)
                assert got == pytest.approx(want, abs=1e-10), (
                    trial, direction, y, kappa, beta, h,
                )
    # a shrunk interval that is empty only as rounded: the -inf mask of the
    # short-interval term keeps its F(b) - F(a) out of the lower sup
    outputs = np.array([0.648900057577607, 0.7175154168372763,
                        0.8936967985054493, 0.9890924047511652])
    beta, kappa, y = 0.29170208999812425, 0.5612204389725656, 1.2090282890266457
    kde = KdeModel(values=outputs, bandwidth=0.001836918653662482)
    want = _brute_sup("lower", y, kappa, beta, kde, outputs)
    assert want == pytest.approx(0.75, abs=1e-10)
    got = sup_interval_mismatch("lower", y, kappa, beta, kde)
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize(
    "case",
    ["beta_zero", "short_beta", "long_beta", "tie_0.30", "tie_0.33",
     "lattice_29", "lattice_33"],
)
def test_band_sups_grid_exhaustive_oracle(case):
    """Every grid point at once, with the grid among the candidates.

    The ``tie`` cases have lower-direction intervals [v - beta, v + beta]
    whose shrunk interval is empty but, as rounded, can count -1 samples.
    The ``lattice`` cases round the outputs to 2 decimals, where fl(b - a)
    > kappa and a < fl(b - kappa) disagree about which intervals are long.
    """
    kappa = 0.3
    seed, n, beta, h = {
        "beta_zero": (26, 5, 0.0, 0.2), "short_beta": (26, 5, 0.12, 0.2),
        "long_beta": (26, 5, 2.0, 0.2), "tie_0.30": (26, 5, 0.3, 0.1),
        "tie_0.33": (26, 5, 0.33, 0.1), "lattice_29": (29, 6, 0.15, 0.2),
        "lattice_33": (33, 6, 0.3, 0.1),
    }[case]
    rng = np.random.default_rng(seed)
    for _ in range(2):
        outputs = np.sort(rng.normal(size=n))
        if case.startswith("lattice"):
            outputs = np.round(outputs, 2)
        kde = KdeModel(values=outputs, bandwidth=h)
        grid = np.linspace(outputs[0] - 0.5, outputs[-1] + 0.5, 21)
        cand = np.unique(
            np.concatenate([outputs, outputs - beta, outputs + beta, grid])
        )
        sups = _band_sups(kde, cand, grid, kappa, beta)
        for direction, got in zip(("upper", "lower"), sups):
            want = [
                _brute_sup(direction, float(y), kappa, beta, kde, outputs, grid)
                for y in grid
            ]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def _sup_separable_whole(u, w, before, k_y, r_y, k_split):
    pref = np.empty(w.size + 1)
    pref[0] = -np.inf
    np.maximum.accumulate(w, out=pref[1:])
    far = pref[r_y] + _window_max(u, k_split, np.full(k_split.shape, u.size))
    near = pref[before]
    near += u
    return np.maximum(far, _window_max(near, k_y, k_split))


def _band_sups_whole(kde, cand, y_grid, kappa, beta):
    """_band_sups with every search over all candidates at once, 64-bit
    index arrays and near in an array of its own."""
    sorted_outputs, n = kde.values, kde.n
    cdf = kde_cdf(kde, cand)
    e_hi = np.searchsorted(sorted_outputs, cand + beta, side="right") / n
    e_hi -= cdf
    e_lo = np.searchsorted(sorted_outputs, cand - beta, side="left") / n
    np.subtract(cdf, e_lo, out=e_lo)
    k_y = np.searchsorted(cand, y_grid, side="left")
    r_y = np.searchsorted(cand, y_grid, side="right")
    past_kappa = np.searchsorted(cand, cand - kappa, side="left")
    k_kappa = np.searchsorted(cand, y_grid + kappa, side="right")
    sup_up = _sup_separable_whole(e_hi, e_lo, past_kappa, k_y, r_y, k_kappa)
    ends = max(abs(cand[0]), abs(cand[-1])) + max(kappa, beta)
    if kappa - 2.0 * beta > 2.0 * np.spacing(ends):
        return sup_up, _sup_separable_whole(e_lo, e_hi, past_kappa, k_y, r_y, k_kappa)
    before = np.searchsorted(cand + beta, cand - beta, side="left")
    np.minimum(before, past_kappa, out=before)
    k_long = np.searchsorted(before, r_y, side="left")
    sup_lo = _sup_separable_whole(e_lo, e_hi, before, k_y, r_y, k_long)
    short = cdf[before]
    np.subtract(cdf, short, out=short)
    short[before == past_kappa] = -np.inf
    return sup_up, np.maximum(sup_lo, _window_max(short, k_y, k_long))


# kappa > 2 beta leaves only long shrunk intervals; kappa <= 2 beta adds the
# short-interval term.  The lattice rounds the outputs to 2 decimals, which
# makes ties at b - a = kappa and at 2 beta
@pytest.mark.parametrize("kappa, err, lattice", [
    (0.3, 0.05, False), (0.3, 0.2, False), (0.3, 0.15, True), (0.2, 0.1, True),
], ids=["long_only", "short", "short_lattice", "tie_lattice"])
def test_band_blocks_match_whole_searches(kappa, err, lattice, monkeypatch):
    # 70,000 outputs make about 210,000 candidates, more than 3 blocks
    outputs, data, model = _band_inputs(n_exp=30, big_n=70_000, err=err, seed=64)
    if lattice:
        outputs = np.round(outputs, 2)
    kw = dict(kappa=kappa, delta=0.05, bandwidths=[0.05, 0.2],
              interval=(-3.0, 3.0), grid_steps=200)
    got = density_band(outputs, data, model, **kw)
    monkeypatch.setattr(confidence, "_band_sups", _band_sups_whole)
    want = density_band(outputs, data, model, **kw)
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.upper, want.upper)
    monkeypatch.undo()
    kde = KdeModel(values=outputs, bandwidth=0.1)
    vals = kde.values
    beta = got.beta_hat
    for y in (-1.3, 0.0, 0.004, 2.2):
        cand = np.unique(np.concatenate([vals, vals - beta, vals + beta, [y]]))
        whole = _band_sups_whole(kde, cand, np.array([y]), kappa, beta)
        for direction, sup in zip(("upper", "lower"), whole):
            assert sup_interval_mismatch(direction, y, kappa, beta, kde) == sup[0]


def _band_data(shape, err, big_n, seed):
    outputs, data, model = _band_inputs(n_exp=30, big_n=big_n, err=err, seed=seed)
    if shape == "lattice":
        outputs = np.round(outputs, 2)
    elif shape == "clusters":
        # two clusters about 0.004 wide: the candidates just past a
        # cluster's end plus kappa have every candidate of the cluster
        # before them, so before[k] jumps by thousands between neighbours
        outputs = 0.001 * outputs + np.where(outputs > 0.0, 1.0, -1.0)
    return outputs, data, model


# kappa > 2 beta leaves only long shrunk intervals (long_only); kappa <= 2 beta
# adds the short-interval term (the others).  The first four cases are those
# of test_band_blocks_match_whole_searches, under the same ids; its lattices
# make ties at b - a = kappa and at 2 beta, the has_short boundary
@pytest.mark.parametrize("kappa, err, shape", [
    (0.3, 0.05, "normal"), (0.3, 0.2, "normal"), (0.3, 0.15, "lattice"),
    (0.2, 0.1, "lattice"), (0.3, 0.2, "clusters"),
], ids=["long_only", "short", "short_lattice", "tie_lattice", "clusters"])
def test_band_small_blocks_match_whole_searches(kappa, err, shape, monkeypatch):
    # 25,000 outputs make about 75,000 candidates: 2 blocks of 2**16 and 74
    # of 2**10, so the blocked dedupe, prefix maxima and window maxima cross
    # many block edges
    outputs, data, model = _band_data(shape, err, 25_000, seed=65)
    kw = dict(kappa=kappa, delta=0.05, bandwidths=[0.05, 0.2], interval=(-3.0, 3.0),
              grid_steps=200)
    monkeypatch.setattr(confidence, "_band_sups", _band_sups_whole)
    want = density_band(outputs, data, model, **kw)
    monkeypatch.undo()
    kde = KdeModel(values=outputs, bandwidth=0.1)
    vals, beta = kde.values, want.beta_hat
    grid = np.linspace(-3.0, 3.0, 200)
    cand = np.unique(np.concatenate([vals, vals - beta, vals + beta, grid]))
    whole = _band_sups_whole(kde, cand, grid, kappa, beta)
    for block in (density.BLOCK, 2**10):
        monkeypatch.setattr(density, "BLOCK", block)
        monkeypatch.setattr(confidence, "BLOCK", block)
        got = density_band(outputs, data, model, **kw)
        assert np.array_equal(got.lower, want.lower)
        assert np.array_equal(got.upper, want.upper)
        blocked = _band_sups(kde, cand.copy(), grid, kappa, beta)
        for w, b in zip(whole, blocked):
            assert np.array_equal(w, b)


def test_candidates_match_unique(monkeypatch):
    monkeypatch.setattr(confidence, "BLOCK", 2**6)
    rng = np.random.default_rng(67)
    # runs of ties longer than a block, zeros of both signs and a tie that
    # straddles the fill order (v + beta of one value is another value)
    v = np.sort(np.concatenate([
        np.round(rng.normal(size=500), 1), np.zeros(70), -np.zeros(70), [0.5, 0.75],
    ]))
    for beta in (0.0, 0.25, 0.1):
        extra = np.concatenate([[-0.0, 0.0], np.linspace(-1.0, 1.0, 9)])
        got = confidence._candidates(v, beta, extra)
        want = np.unique(np.concatenate([v, v - beta, v + beta, extra]))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("kappa, err", [(0.3, 0.05), (0.3, 0.2)], ids=["long_only", "short"])
def test_band_two_bandwidths_match_one_at_a_time(kappa, err):
    # each bandwidth's band is computed on its own and they combine pointwise
    outputs, data, model = _band_inputs(n_exp=30, big_n=20_000, err=err, seed=66)
    kw = dict(kappa=kappa, delta=0.05, interval=(-3.0, 3.0), grid_steps=150)
    both = density_band(outputs, data, model, bandwidths=[0.05, 0.2], **kw)
    one = [density_band(outputs, data, model, bandwidths=[h], **kw) for h in (0.05, 0.2)]
    assert np.array_equal(both.upper, np.minimum(one[0].upper, one[1].upper))
    assert np.array_equal(both.lower, np.maximum(one[0].lower, one[1].lower))


@pytest.mark.parametrize("kappa, err, big_n, bound", [
    (0.3, 0.05, 100_000, 5.4), (0.3, 0.2, 100_000, 5.9), (0.3, 0.2, 1_000_000, 4.5),
], ids=["long_only", "short", "short_1e6"])
def test_band_memory_peak(kappa, err, big_n, bound):
    # in multiples of the candidate array (3N + G floats), one bandwidth
    # peaks at 5.0 (long only) and 5.5 (short) at N = 1e5, where the block
    # temporaries weigh most, and at 3.85 at N = 1e6.  Holding the full
    # short, near and prefix arrays, the np.unique copies and two sorted
    # outputs, it peaked at 7.0 at N = 1e5 and 5.8 at N = 1e6
    outputs, data, model = _band_inputs(n_exp=40, big_n=big_n, err=err, seed=63)
    grid_steps = 200
    tracemalloc.start()
    try:
        density_band(outputs, data, model, kappa=kappa, delta=0.05, bandwidths=[0.1],
                     interval=(-3.0, 3.0), grid_steps=grid_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 8 * (3 * outputs.size + grid_steps)


def test_window_max_matches_loop():
    rng = np.random.default_rng(27)
    s = rng.normal(size=40)
    for count in [1, 2, 3, 4, 8, 60]:
        lo = rng.integers(0, 41, size=count)
        hi = rng.integers(0, 41, size=count)
        # full span, last element alone, empty at the end
        lo[:3], hi[:3] = [0, 39, 40][:count], [40, 40, 40][:count]
        want = [max(s[a:b], default=-np.inf) for a, b in zip(lo, hi)]
        assert np.array_equal(_window_max(s, lo, hi), want)


def test_sup_mismatch_nonnegative_for_matching_density():
    rng = make_rng(25)
    outputs = rng.random(20_000)
    kde = KdeModel(values=outputs, bandwidth=0.05)
    val = sup_interval_mismatch("upper", 0.5, 0.2, 0.0, kde)
    assert val >= -1e-12
    # the full-range interval forces a small positive sup here
    assert val <= 0.05


def test_sup_mismatch_single_point_full_mass():
    v = 1.0
    kappa, beta, h = 0.1, 0.2, 1.0
    kde = KdeModel(values=[v], bandwidth=h)
    got = sup_interval_mismatch(
        "upper", v, kappa, beta, kde, grid=[v - 0.06, v + 0.06]
    )
    # mu of the expanded interval is 1; kde integral over [v-0.06, v+0.06]
    assert got == pytest.approx(1.0 - 0.12 / (2.0 * h), abs=1e-12)

