import numpy as np
import pytest
from scipy.stats import foldnorm

from uqim import bootstrap
from uqim.bootstrap import BootstrapErrorReport, bootstrap_error_quantile
from uqim.data import InputSample, PairedDataset
from uqim.errors import DomainError
from uqim.surrogate import FunctionFamily
from uqim.synthetic import make_mafds_like


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


def test_threaded_matches_sequential():
    rng = np.random.default_rng(7)
    x = rng.random(30)
    exp = _exp(x, np.sin(5.0 * x) + 0.1 * rng.normal(size=30))
    fam = FunctionFamily("poly", 2, penalty=1e-6)
    seq = bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=40, n_learn=12,
                                   alpha=0.9, seed=8, threads=1)
    par = bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=40, n_learn=12,
                                   alpha=0.9, seed=8, threads=4)
    assert np.array_equal(seq.quantiles, par.quantiles)


def test_thread_pool_capped_at_cores_and_reps(monkeypatch):
    # a stand-in pool records its size and maps in this thread: none start
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(bootstrap, "ThreadPoolExecutor", RecordingPool)
    x = np.linspace(0.0, 1.0, 12)
    exp = _exp(x, np.cos(3.0 * x))
    fam = FunctionFamily("poly", 1)

    def run(threads, b_reps):
        return bootstrap_error_quantile(exp, _Const(0.0), fam, b_reps=b_reps,
                                        n_learn=6, seed=3, threads=threads)

    seq = run(1, 10)
    monkeypatch.setattr(bootstrap.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert np.array_equal(run(10**6, 10).quantiles, seq.quantiles)
    run(10**6, 2)
    run(2, 10)
    assert sizes == [3, 2, 2]
    monkeypatch.setattr(bootstrap.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert np.array_equal(run(8, 10).quantiles, seq.quantiles)
    assert sizes == [3, 2, 2]


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
