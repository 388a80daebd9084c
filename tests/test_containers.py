"""Frozen containers copy the arrays their caller passed and freeze their own.

After a container is built from writeable caller arrays, those arrays stay
writeable, a later write to them leaves the container as it was, every array
the container holds is read-only, and none is a view that pins a larger
buffer than itself.
"""

import dataclasses

import numpy as np
import pytest

from uqim.avm import EmpiricalCdf
from uqim.bootstrap import BootstrapErrorReport, bootstrap_error_quantile
from uqim.confidence import DensityBand
from uqim.data import InputSample, PairedDataset
from uqim.density import KdeModel
from uqim.gp import DiscrepancyData, ErrorQuantileResult, GpDiscrepancyParams, gp_error_quantile
from uqim.randgen import MvnParams
from uqim.surrogate import FunctionFamily


def _paired_dataset(rng):
    x, y = rng.normal(size=(20, 2)), rng.normal(size=20)
    return PairedDataset(inputs=x, outputs=y, kind="experimental"), [x, y]


def _input_sample(rng):
    x = rng.normal(size=(20, 2))
    return InputSample(points=x), [x]


def _kde_model(rng):
    v = rng.normal(size=20)
    return KdeModel(values=v, bandwidth=0.3), [v]


def _empirical_cdf(rng):
    v = rng.normal(size=20)
    return EmpiricalCdf(values=v), [v]


def _mvn_params(rng):
    mean, cov = rng.normal(size=2), np.array([[2.0, 0.3], [0.3, 1.0]])
    return MvnParams(mean=mean, cov=cov), [mean, cov]


def _discrepancy_data(rng):
    x, m, y = rng.normal(size=(20, 2)), rng.normal(size=20), rng.normal(size=20)
    return DiscrepancyData(inputs=x, model_outputs=m, observed=y), [x, m, y]


def _density_band(rng):
    grid = np.linspace(0.0, 1.0, 11)
    lower, upper = np.zeros(11), rng.uniform(1.0, 2.0, size=11)
    band = DensityBand(
        grid=grid, lower=lower, upper=upper, kappa=0.1, delta=0.05, bandwidths=(0.2,),
        beta_hat=0.01, eps=0.1, gamma=0.01, correction=0.3, n=20, big_n=1000,
    )
    return band, [grid, lower, upper]


def _error_quantile_result(rng):
    q = rng.uniform(size=30)
    return ErrorQuantileResult(median=float(np.median(q)), quantiles=q, alpha=0.95, reps=30), [q]


def _bootstrap_error_report(rng):
    q = rng.uniform(size=30)
    return BootstrapErrorReport(quantiles=q, median=float(np.median(q)), alpha=0.95,
                                n_learn=10), [q]


def _gp_error_quantile(rng):
    # n = 50 and 10,000 replications: the (reps, n) draws are 4,000,000 bytes
    x, m, y = rng.uniform(size=(50, 1)), rng.normal(size=50), rng.normal(size=50)
    params = GpDiscrepancyParams(lam=0.01, beta=0.1, sigma2=1.0, omegas=(2.0,))
    data = DiscrepancyData(inputs=x, model_outputs=m, observed=y)
    result = gp_error_quantile(params, data, 0.95, reps=10_000, seed=3)
    assert result.quantiles.nbytes == 80_000
    return result, [x, m, y]


def _bootstrap_error_quantile(rng):
    x, y = rng.uniform(size=(20, 1)), rng.normal(size=20)
    data = PairedDataset(inputs=x, outputs=y, kind="experimental")
    report = bootstrap_error_quantile(
        data, lambda pts: np.zeros(len(pts)), FunctionFamily("poly", 1), b_reps=20, seed=4
    )
    return report, [x, y]


CASES = {
    f.__name__[1:]: f
    for f in (
        _paired_dataset, _input_sample, _kde_model, _empirical_cdf, _mvn_params,
        _discrepancy_data, _density_band, _error_quantile_result, _bootstrap_error_report,
        _gp_error_quantile, _bootstrap_error_quantile,
    )
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_container_copies_caller_arrays_and_freezes_its_own(case):
    box, given = CASES[case](np.random.default_rng(7))
    stored = {
        f.name: getattr(box, f.name)
        for f in dataclasses.fields(box)
        if isinstance(getattr(box, f.name), np.ndarray)
    }
    assert stored
    kept = {name: a.copy() for name, a in stored.items()}
    for a in given:
        assert a.flags.writeable
        a[...] = np.nan
    for name, a in stored.items():
        assert not a.flags.writeable, name
        assert a.base is None or a.base.nbytes <= a.nbytes, name
        assert np.array_equal(a, kept[name]), name
