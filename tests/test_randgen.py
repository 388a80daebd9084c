import math
import tracemalloc

import numpy as np
import pytest

from uqim.errors import DomainError, InsufficientDataError, InvalidCovarianceError
from uqim.randgen import (
    MvnParams,
    _transform,
    estimate_mvn,
    latin_hypercube,
    make_rng,
    sample_mvn,
    spawn_seeds,
)
from uqim.synthetic import field_measurements

# column means of the measurement table, summed by hand
FIELD_MEANS = (124.9, 125.8, 3.303e7, 3.279e7, 6.78e-4)


def test_estimate_field_table_means():
    ds = field_measurements()
    params = estimate_mvn(ds.inputs)
    assert params.dim == 5
    for j, expect in enumerate(FIELD_MEANS):
        # fsum removes summation-order doubt from the oracle itself
        oracle = math.fsum(ds.inputs[:, j]) / ds.n
        assert abs(oracle - expect) <= 1e-12 * abs(expect)
        assert abs(params.mean[j] - expect) <= 1e-12 * abs(expect)
    assert abs(params.mean[0] - 1.249e2) <= 1e-12 * 1.249e2


def test_estimate_uses_biased_normalizer():
    pts = np.array([[0.0], [2.0]])
    params = estimate_mvn(pts)
    assert params.mean[0] == 1.0
    # 1/N normalizer: ((0-1)^2 + (2-1)^2)/2 = 1, not 2
    assert params.cov[0, 0] == 1.0


def test_estimate_duplicate_points_zero_cov():
    pts = np.array([[1.5, -2.0], [1.5, -2.0]])
    params = estimate_mvn(pts)
    assert np.all(params.cov == 0.0)


def test_estimate_needs_two_rows():
    with pytest.raises(InsufficientDataError):
        estimate_mvn(np.array([[1.0, 2.0]]))


def test_estimate_matches_dense_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    params = estimate_mvn(x)
    mean = x.mean(axis=0)
    oracle = np.zeros((3, 3))
    for row in x:
        oracle += np.outer(row - mean, row - mean)
    oracle /= x.shape[0]
    assert np.allclose(params.cov, oracle, rtol=0, atol=1e-14)


def test_mvn_params_validation():
    with pytest.raises(InvalidCovarianceError, match="symmetric"):
        MvnParams(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InvalidCovarianceError, match="shape"):
        MvnParams(mean=[0.0, 0.0], cov=[[1.0]])
    with pytest.raises(InvalidCovarianceError, match="non-finite"):
        MvnParams(mean=[np.inf], cov=[[1.0]])
    with pytest.raises(InvalidCovarianceError, match="negative eigenvalue"):
        sample_mvn(MvnParams(mean=[0.0], cov=[[-1.0]]), 2, seed=0)


def test_sample_identity_cov_reproduces_raw_stream():
    params = MvnParams(mean=np.zeros(3), cov=np.eye(3))
    draws = sample_mvn(params, 50, seed=123)
    raw = make_rng(123).standard_normal((50, 3))
    assert np.array_equal(draws, raw)


def test_sample_degenerate_cov_is_constant():
    params = MvnParams(mean=[5.0], cov=[[0.0]])
    draws = sample_mvn(params, 5, seed=9)
    assert draws.shape == (5, 1)
    assert np.all(draws == 5.0)


def test_sample_tiny_negative_eigenvalue_clipped():
    # symmetric, eigenvalues {2, -1e-16}: inside the PSD tolerance
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    cov = cov + np.array([[1.0, -1.0], [-1.0, 1.0]]) * (-5e-17)
    draws = sample_mvn(MvnParams(mean=[0.0, 0.0], cov=cov), 10, seed=0)
    assert np.all(np.isfinite(draws))


def test_sample_moments_converge():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.6], [0.6, 0.5]])
    draws = sample_mvn(MvnParams(mean=mean, cov=cov), 100_000, seed=77)
    emp = estimate_mvn(draws)
    assert np.linalg.norm(emp.cov - cov) <= 0.05 * np.linalg.norm(cov)
    sigma_max = math.sqrt(np.max(np.diag(cov)))
    assert np.all(np.abs(emp.mean - mean) <= 3.0 * sigma_max / math.sqrt(100_000))


def test_sample_deterministic_per_seed():
    params = MvnParams(mean=[0.0], cov=[[1.0]])
    a = sample_mvn(params, 20, seed=5)
    b = sample_mvn(params, 20, seed=5)
    c = sample_mvn(params, 20, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_matches_product_plus_mean():
    # fixed seed: the draws keep the bits of z @ a.T + mean
    params = MvnParams(mean=[1.5, -2.0, 1e6], cov=[[2.0, 0.6, 0.0], [0.6, 0.5, 0.1],
                                                   [0.0, 0.1, 3e4]])
    z = make_rng(31).standard_normal((1000, 3))
    want = z @ _transform(params).T + params.mean
    assert np.array_equal(sample_mvn(params, 1000, seed=31), want)


def test_sample_memory_peak():
    # z and z @ a.T are alive together; the sum no longer makes a third
    # (count, dim) array, so the peak is twice the result, not three times
    params = MvnParams(mean=np.arange(5.0), cov=np.eye(5) + 0.3)
    tracemalloc.start()
    try:
        draws = sample_mvn(params, 200_000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * draws.nbytes


def test_sample_count_validation():
    params = MvnParams(mean=[0.0], cov=[[1.0]])
    with pytest.raises(DomainError):
        sample_mvn(params, 0, seed=0)


def test_lhs_stratification_1d():
    pts = latin_hypercube([(0.0, 1.0)], 4, seed=11)
    counts = np.histogram(pts[:, 0], bins=4, range=(0.0, 1.0))[0]
    assert list(counts) == [1, 1, 1, 1]


def test_lhs_single_point_inside_range():
    pts = latin_hypercube([(2.0, 3.0)], 1, seed=0)
    assert pts.shape == (1, 1)
    assert 2.0 <= pts[0, 0] <= 3.0


def test_lhs_stratification_2d():
    pts = latin_hypercube([(0.0, 1.0), (-1.0, 1.0)], 100, seed=4)
    for j, (lo, hi) in enumerate([(0.0, 1.0), (-1.0, 1.0)]):
        counts = np.histogram(pts[:, j], bins=100, range=(lo, hi))[0]
        assert np.all(counts == 1)


def test_lhs_range_validation():
    with pytest.raises(DomainError, match="range 1"):
        latin_hypercube([(0.0, 1.0), (2.0, 2.0)], 3, seed=0)
    with pytest.raises(DomainError, match="count"):
        latin_hypercube([(0.0, 1.0)], 0, seed=0)


def test_spawned_streams_differ_and_are_stable():
    kids = spawn_seeds(42, 3)
    draws = [make_rng(k).random(4) for k in kids]
    again = [make_rng(k).random(4) for k in spawn_seeds(42, 3)]
    for a, b in zip(draws, again):
        assert np.array_equal(a, b)
    assert not np.array_equal(draws[0], draws[1])
    # spawning from a SeedSequence continues its spawn sequence
    ss = np.random.SeedSequence(42)
    first = spawn_seeds(ss, 2)
    second = spawn_seeds(ss, 2)
    assert [k.spawn_key for k in first] != [k.spawn_key for k in second]


def test_negative_seed_is_a_domain_error():
    with pytest.raises(DomainError, match="seed"):
        make_rng(-1)
    with pytest.raises(DomainError, match="seed"):
        spawn_seeds(-5, 2)
    # 0 is the smallest seed
    assert np.array_equal(make_rng(0).random(3), make_rng(0).random(3))

