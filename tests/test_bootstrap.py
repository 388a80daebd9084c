import tracemalloc

import numpy as np
import pytest
from scipy.stats import foldnorm

from uqim import bootstrap
from uqim.bootstrap import BootstrapErrorReport, bootstrap_error_quantile
from uqim.data import InputSample, PairedDataset
from uqim.errors import (
    ConditioningError,
    DomainError,
    RankDeficiencyError,
    UqError,
)
from uqim.randgen import make_rng, spawn_seeds
from uqim.surrogate import (
    FunctionFamily,
    SurrogateModel,
    _System,
    build_basis,
    compute_residuals,
)
from uqim.synthetic import make_hidim_like, make_mafds_like


class _Const:
    def __init__(self, value):
        self.value = value

    def __call__(self, pts):
        return np.full(np.shape(pts)[0], self.value)


def _exp(x, y):
    return PairedDataset(inputs=np.asarray(x, float)[:, None], outputs=y,
                         kind="experimental")


def test_perfect_surrogate_all_zero():
    x = np.linspace(0.0, 1.0, 20)
    exp = _exp(x, 0.7 * x)

    class Exact:
        def __call__(self, pts):
            return 0.7 * np.asarray(pts, float).ravel()

    report = bootstrap_error_quantile(
        exp, Exact(), FunctionFamily("poly", 1, penalty=1e-10),
        b_reps=50, n_learn=5, alpha=0.95, seed=0,
    )
    assert np.all(report.quantiles == 0.0)
    assert report.median == 0.0


def test_constant_bias_recovers_offset():
    x = np.linspace(0.0, 1.0, 15)
    c = -0.8
    exp = _exp(x, np.full(15, c))
    extra = InputSample(points=np.linspace(0.0, 1.0, 10))
    report = bootstrap_error_quantile(
        exp, _Const(0.0), FunctionFamily("poly", 0),
        b_reps=40, n_learn=4, alpha=0.9, seed=1,
        extra_inputs=extra, weight=1.0,
    )
    assert np.allclose(report.quantiles, abs(c), atol=1e-12)
    assert report.median == pytest.approx(abs(c), abs=1e-12)


def test_linear_bias_factor_two():
    # residual quantile against the analytic pushforward of the bias
    system = make_mafds_like(bias_kind="linear", bias_scale=0.01, sigma_obs=0.0)
    exp = system.draw_experiment(100, seed=5)
    sim_model = system.model  # imperfect simulator as the base surrogate
    report = bootstrap_error_quantile(
        exp, lambda pts: sim_model(np.atleast_2d(pts)),
        FunctionFamily("poly", 1, penalty=1e-12),
        b_reps=500, n_learn=10, alpha=0.95, seed=2,
    )
    # bias(X) ~ N(0.5 s, (s/4)^2) for s = 0.01 under the input law
    s = 0.01
    truth = foldnorm.ppf(0.95, c=0.5 * s / (s / 4.0), scale=s / 4.0)
    assert truth / 2.0 <= report.median <= truth * 2.0


def test_report_median_is_sample_median():
    rng = np.random.default_rng(3)
    x = rng.random(25)
    exp = _exp(x, rng.normal(size=25))
    report = bootstrap_error_quantile(
        exp, _Const(0.0), FunctionFamily("poly", 1, penalty=1e-8),
        b_reps=31, n_learn=8, alpha=0.8, seed=4,
    )
    assert report.median == float(np.median(report.quantiles))
    assert report.b_reps == 31
    assert isinstance(report, BootstrapErrorReport)


def test_deterministic_per_seed():
    rng = np.random.default_rng(5)
    x = rng.random(20)
    exp = _exp(x, rng.normal(size=20))
    fam = FunctionFamily("poly", 1, penalty=1e-8)
    a = bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=25, n_learn=6,
                                 alpha=0.9, seed=6)
    b = bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=25, n_learn=6,
                                 alpha=0.9, seed=6)
    c = bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=25, n_learn=6,
                                 alpha=0.9, seed=7)
    assert np.array_equal(a.quantiles, b.quantiles)
    assert not np.array_equal(a.quantiles, c.quantiles)


def _replicates_oracle(exp, base, family, b_reps, n_learn, alpha, seed,
                       extra=None, weight=None):
    """Each replicate as a user would run it: resample, fit on the basis of
    all rows plus the extra rows, predict with the model."""
    eps = compute_residuals(base, exp)
    basis = build_basis(family, exp.inputs if extra is None
                        else np.vstack([exp.inputs, extra]))
    b2 = None if extra is None else basis.design(extra)
    out = []
    for rep_seed in spawn_seeds(seed, b_reps):
        idx = make_rng(rep_seed).integers(0, exp.n, size=exp.n)
        learn = idx[:n_learn]
        fit = _System(basis, basis.design(exp.inputs[learn]), eps[learn], b2)
        model = SurrogateModel(family, basis,
                               fit.solve(family.penalty, 1.0 if weight is None else weight),
                               train_size=n_learn)
        absvals = np.sort(np.abs(model(exp.inputs[idx[n_learn:]])))
        m = absvals.size
        out.append(absvals[np.argmax(np.arange(1, m + 1) / m >= alpha)])
    return np.array(out)


@pytest.mark.parametrize("family, weighted", [
    (FunctionFamily("poly", 1), False),
    (FunctionFamily("poly", 2, penalty=1e-6), False),
    (FunctionFamily("poly", 1), True),
    (FunctionFamily("spline1d", 4, penalty=1e-4), False),
    (FunctionFamily("spline1d", 4, penalty=1e-4), True),
    (FunctionFamily("rbf", 6, penalty=1e-3), False),
    (FunctionFamily("rbf", 6, penalty=1e-3), True),
])
def test_replicates_match_oracle(family, weighted):
    rng = np.random.default_rng(7)
    x = rng.random(30)
    exp = _exp(x, np.sin(5.0 * x) + 0.1 * rng.normal(size=30))
    kw = {"extra_inputs": rng.random(40)[:, None], "weight": 0.6} if weighted else {}
    report = bootstrap_error_quantile(exp, _Const(0.0), family, b_reps=40,
                                      n_learn=12, alpha=0.9, seed=8, **kw)
    oracle = _replicates_oracle(exp, _Const(0.0), family, 40, 12, 0.9, 8,
                                kw.get("extra_inputs"), kw.get("weight"))
    assert np.array_equal(report.quantiles, oracle)


def test_replicates_match_oracle_5d():
    system = make_hidim_like(bias_kind="linear")
    exp = system.draw_experiment(50, seed=3)
    fam = FunctionFamily("poly", 1)
    report = bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=30,
                                      n_learn=25, alpha=0.95, seed=11)
    oracle = _replicates_oracle(exp, _Const(0.0), fam, 30, 25, 0.95, 11)
    assert np.array_equal(report.quantiles, oracle)


def _smooth(dim, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    exp = PairedDataset(inputs=x, outputs=np.sin(3.0 * x.sum(axis=1))
                        + 0.1 * rng.normal(size=n), kind="experimental")
    return exp, rng.random((40, dim))


@pytest.mark.parametrize("fit", ["plain", "weighted_pen0", "weighted_pen"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("dim", [1, 5])
def test_poly_stack_matches_oracle(dim, degree, fit):
    # poly 3 in 5-d has 56 coefficients: 120 learn rows, about 80 of them
    # distinct, fix it at penalty 0
    exp, extra = _smooth(dim, 150, 20 + dim)
    fam = FunctionFamily("poly", degree, penalty=1e-3 if fit == "weighted_pen" else 0.0)
    kw = {} if fit == "plain" else {"extra_inputs": extra, "weight": 0.7}
    report = bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=20, n_learn=120,
                                      alpha=0.9, seed=9, **kw)
    oracle = _replicates_oracle(exp, _Const(0.0), fam, 20, 120, 0.9, 9,
                                kw.get("extra_inputs"), kw.get("weight"))
    assert np.array_equal(report.quantiles, oracle)


@pytest.mark.parametrize("weighted", [False, True])
def test_poly_stack_blocks_match_oracle(monkeypatch, weighted):
    # a budget of 7 replicates per block: 40 replicates fill five blocks and
    # part of a sixth, each an independent stacked fit gathered from the one
    # system of all 30 rows
    exp, extra = _smooth(1, 30, 4)
    kw = {"extra_inputs": extra, "weight": 0.6} if weighted else {}
    monkeypatch.setattr(bootstrap, "_BLOCK_VALUES", 7 * 2 * 18)  # 2 coefs x 18 rows
    sizes = []

    class Recording(bootstrap._System):
        def __init__(self, basis, b1, *args):
            sizes.append(b1.shape[0])
            super().__init__(basis, b1, *args)

    monkeypatch.setattr(bootstrap, "_System", Recording)
    fam = FunctionFamily("poly", 1, penalty=1e-4 if weighted else 0.0)
    report = bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=40, n_learn=12,
                                      alpha=0.9, seed=8, **kw)
    assert sizes == [30, 7, 7, 7, 7, 7, 5]
    oracle = _replicates_oracle(exp, _Const(0.0), fam, 40, 12, 0.9, 8,
                                kw.get("extra_inputs"), kw.get("weight"))
    assert np.array_equal(report.quantiles, oracle)


def test_single_replicate_matches_oracle():
    exp, _ = _smooth(5, 40, 6)
    fam = FunctionFamily("poly", 2, penalty=1e-6)
    report = bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=1, n_learn=30,
                                      alpha=0.95, seed=3)
    assert report.b_reps == 1
    assert np.array_equal(report.quantiles,
                          _replicates_oracle(exp, _Const(0.0), fam, 1, 30, 0.95, 3))


def _raised(fn):
    with pytest.raises(UqError) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("penalty, error", [
    (0.0, RankDeficiencyError),
    (1e-300, ConditioningError),  # too small to lift x^2 = x off singular
])
def test_some_failing_replicates_fail_the_stack_as_the_loop(penalty, error):
    # x in {0, 1} but for two rows: a learn set without 2 or 3 cannot fix a
    # quadratic, one with either can: seed 3 gives 14 replicates that fit
    # and 6 that do not
    x = np.array([0.0, 1.0] * 9 + [2.0, 3.0])
    exp = _exp(x, np.cos(x))
    fam = FunctionFamily("poly", 2, penalty=penalty)
    fits = []
    for rep_seed in spawn_seeds(3, 20):
        learn = make_rng(rep_seed).integers(0, 20, size=20)[:8]
        fits.append(np.isin(x[learn], [2.0, 3.0]).any())
    assert 0 < sum(fits) < 20
    loop = _raised(lambda: _replicates_oracle(exp, _Const(0.0), fam, 20, 8, 0.95, 3))
    stack = _raised(lambda: bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=20,
                                                     n_learn=8, seed=3))
    assert stack == loop
    assert loop[0] is error


def test_weighted_zero_penalty_memory_does_not_grow_with_b_reps():
    # the rank check stacks the 12 learn and 20,000 extra rows of every
    # replicate in a block: 16 MB for 50 replicates in one stack, 160 MB for
    # 500; blocks keep both under the same few MB
    rng = np.random.default_rng(0)
    x = rng.random(30)
    exp, extra = _exp(x, np.sin(5.0 * x)), rng.random((20_000, 1))
    limit = 4 * 2**20
    for b_reps in (50, 500):
        tracemalloc.start()
        try:
            bootstrap_error_quantile(exp, _Const(0.0), FunctionFamily("poly", 1),
                                     b_reps=b_reps, n_learn=12, seed=1,
                                     extra_inputs=extra, weight=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (b_reps, peak, limit)


def test_rank_deficient_replicate_raises():
    # two distinct inputs cannot fix a quadratic without a penalty: every
    # learn set is rank-deficient, and the bootstrap must say so
    x = np.tile([0.0, 1.0], 10)
    exp = _exp(x, x)
    fam = FunctionFamily("poly", 2)
    with pytest.raises(RankDeficiencyError):
        bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=5, n_learn=8)
    with pytest.raises(RankDeficiencyError):
        bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=5, n_learn=8,
                                 extra_inputs=np.array([[0.0], [1.0]]), weight=0.5)


def test_non_finite_residuals_rejected():
    x = np.linspace(0.0, 1.0, 10)
    with pytest.raises(DomainError, match="finite"):
        bootstrap_error_quantile(_exp(x, x), _Const(np.inf), FunctionFamily("poly", 1),
                                 b_reps=5, n_learn=4)


def test_validation():
    x = np.linspace(0.0, 1.0, 10)
    exp = _exp(x, x)
    fam = FunctionFamily("poly", 0)
    with pytest.raises(DomainError, match="n_learn"):
        bootstrap_error_quantile(exp, _Const(0.0), fam, n_learn=10, b_reps=5)
    with pytest.raises(DomainError, match="n_learn"):
        bootstrap_error_quantile(exp, _Const(0.0), fam, n_learn=0, b_reps=5)
    with pytest.raises(DomainError, match="b_reps"):
        bootstrap_error_quantile(exp, _Const(0.0), fam, n_learn=2, b_reps=0)
    with pytest.raises(DomainError, match="alpha"):
        bootstrap_error_quantile(exp, _Const(0.0), fam, n_learn=2, b_reps=5,
                                 alpha=1.0)
    with pytest.raises(DomainError, match="extra_inputs"):
        bootstrap_error_quantile(exp, _Const(0.0), fam, n_learn=2, b_reps=5,
                                 weight=0.5)
