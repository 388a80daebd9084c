import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from uqim.avm import avm
from uqim.errors import DomainError
from uqim.synthetic import (
    field_measurements,
    make_hidim_like,
    make_mafds_like,
    mc_truth_quantile,
)


def test_field_table_output_mean():
    ds = field_measurements()
    assert ds.output_name == "freq"
    assert math.fsum(ds.outputs) / ds.n == pytest.approx(14.24, abs=1e-12)


def test_zero_bias_zero_noise_outputs_equal_model():
    system = make_mafds_like(bias_scale=0.0, sigma_obs=0.0)
    exp = system.draw_experiment(50, seed=1)
    assert np.array_equal(exp.outputs, system.model(exp.inputs))
    assert np.array_equal(exp.outputs, system.truth(exp.inputs))
    sim = system.draw_simulation(50, seed=1)
    assert np.array_equal(sim.outputs, system.truth(sim.inputs))


def test_true_quantile_closed_form():
    system = make_mafds_like()
    q = system.true_quantile(0.95)
    assert q == pytest.approx(
        0.37 * math.sqrt(0.05 + 0.0057 * ndtri(0.95)), rel=1e-12
    )
    assert q == pytest.approx(0.37 * math.sqrt(0.05 + 1.645 * 0.0057), rel=1e-4)
    with pytest.raises(DomainError):
        system.true_quantile(0.0)


def test_true_quantile_matches_ndtri_formula():
    # the stdlib normal quantile (AS 241) against scipy's ndtri, the formula
    # the closed form used before; z differs by a few ulp at most, and the
    # README's alpha gives the same bits
    alphas = np.concatenate([
        np.geomspace(1e-9, 0.1, 200), np.linspace(0.1, 0.9, 161)[1:-1],
        1.0 - np.geomspace(0.1, 1e-9, 200),
    ])
    system = make_mafds_like()
    for a in alphas:
        want = 0.37 * np.sqrt(max(0.05 + 0.0057 * ndtri(a), 0.0))
        assert system.true_quantile(float(a)) == pytest.approx(want, rel=1e-14, abs=0)
    assert system.true_quantile(0.95) == 0.09015835308344447


def test_true_cdf_matches_ndtr_formula():
    # Phi through the stdlib erfc against scipy's ndtr, the formula the
    # closed form used before, from far below the mean to far above it
    system = make_mafds_like()
    ys = np.concatenate([[-0.01, 0.0], np.linspace(0.04, 0.12, 801)])
    z = ((ys / 0.37) ** 2 - 0.05) / 0.0057
    want = np.where(ys < 0.0, 0.0, ndtr(z))
    got = system.true_cdf(ys)
    assert got.shape == ys.shape
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert np.ndim(system.true_cdf(0.09)) == 0


def test_oracle_cdf_density_consistency():
    system = make_mafds_like()
    for a in (0.1, 0.5, 0.9):
        assert system.true_cdf(system.true_quantile(a)) == pytest.approx(a, abs=1e-12)
    # density is the cdf derivative
    ys = np.linspace(0.07, 0.095, 9)
    h = 1e-7
    fd = (system.true_cdf(ys + h) - system.true_cdf(ys - h)) / (2.0 * h)
    assert np.allclose(system.true_density(ys), fd, rtol=1e-5)
    total, _ = quad(lambda y: float(system.true_density(y)), 0.0, 0.3)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert system.true_density(-0.01) == 0.0


def test_truth_quantile_matches_monte_carlo():
    system = make_mafds_like()
    mc = mc_truth_quantile(system, 0.95, count=200_000, seed=0)
    assert mc == pytest.approx(system.true_quantile(0.95), abs=2e-4)


def test_constant_bias_avm_recovers_offset():
    system = make_mafds_like(bias_kind="constant", bias_scale=0.02, sigma_obs=0.0)
    exp = system.draw_experiment(20_000, seed=1)
    sim = system.draw_simulation(20_000, seed=2)
    res = avm(exp.outputs, sim.outputs, grid_steps=1000)
    assert res.exact == pytest.approx(0.02, rel=0.05)


def test_bias_shapes():
    mean, sd, s = 0.05, 0.0057, 0.004
    x = np.array([[mean], [mean + sd], [mean - 2.0 * sd]])
    const = make_mafds_like("constant", s, 0.0)
    assert np.allclose(const.model(x) - const.truth(x), s, atol=1e-15)
    lin = make_mafds_like("linear", s, 0.0)
    want = s * (0.5 + (x[:, 0] - mean) / (4.0 * sd))
    assert np.allclose(lin.model(x) - lin.truth(x), want, atol=1e-15)
    smooth = make_mafds_like("smooth", s, 0.0)
    want = s * np.cos(2.0 * np.pi * (x[:, 0] - mean) / (6.0 * sd))
    assert np.allclose(smooth.model(x) - smooth.truth(x), want, atol=1e-15)
    with pytest.raises(DomainError, match="bias_kind"):
        make_mafds_like("quadratic")
    with pytest.raises(DomainError, match="bias_kind"):
        make_hidim_like("quadratic")


@pytest.mark.parametrize("make", [make_mafds_like, make_hidim_like])
@pytest.mark.parametrize("kwargs, name", [
    ({"sigma_obs": -1.0}, "sigma_obs"),
    ({"sigma_obs": math.inf}, "sigma_obs"),
    ({"sigma_obs": math.nan}, "sigma_obs"),
    ({"bias_scale": math.nan}, "bias_scale"),
    ({"bias_scale": -math.inf}, "bias_scale"),
], ids=["negative_noise", "inf_noise", "nan_noise", "nan_bias", "inf_bias"])
def test_bias_and_noise_parameters_are_checked(make, kwargs, name):
    with pytest.raises(DomainError, match=name):
        make(**kwargs)


def test_zero_noise_and_negative_bias_are_allowed():
    system = make_mafds_like("constant", bias_scale=-0.01, sigma_obs=0.0)
    ds = system.draw_simulation(5, seed=1)
    assert np.allclose(ds.outputs, system.truth(ds.inputs) - 0.01)


def test_empty_draw_rejected():
    system = make_mafds_like()
    with pytest.raises(DomainError):
        system.draw_experiment(0)
    with pytest.raises(DomainError):
        system.draw_simulation(0)


def test_reproducible_per_seed():
    system = make_mafds_like(sigma_obs=0.0)
    a = system.draw_experiment(30, seed=9)
    b = system.draw_experiment(30, seed=9)
    c = system.draw_experiment(30, seed=10)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.outputs, b.outputs)
    assert not np.array_equal(a.inputs, c.inputs)
    noisy = make_mafds_like(sigma_obs=0.01)
    d = noisy.draw_experiment(30, seed=9)
    e = noisy.draw_experiment(30, seed=9)
    assert np.array_equal(d.outputs, e.outputs)
    # noise stream is separate from the input stream
    assert np.array_equal(d.inputs, a.inputs)


def test_output_mean_clt():
    system = make_mafds_like(bias_scale=0.0, sigma_obs=0.0)
    big = system.draw_experiment(100_000, seed=3)
    mu, sd, amp = 0.05, 0.0057, 0.37
    # second-order Taylor expansion of E[amp sqrt(X)]
    taylor = amp * math.sqrt(mu) * (1.0 - sd**2 / (8.0 * mu**2))
    shat = float(np.std(big.outputs, ddof=1))
    assert abs(float(np.mean(big.outputs)) - taylor) <= 4.0 * shat / math.sqrt(1e5)


def test_hidim_truth_and_bias():
    system = make_hidim_like()
    assert system.dim == 5
    mean = system.params.mean
    # standardized coordinates vanish at the input mean
    assert system.truth(mean[None, :]) == pytest.approx(13.95, rel=1e-12)
    x = system.params.mean[None, :] * 1.01
    assert np.allclose(system.model(x) - system.truth(x), 0.2, atol=1e-12)
    lin = make_hidim_like("linear", 0.3)
    z = (x - mean) / np.sqrt(np.diag(system.params.cov))
    want = 0.3 * (0.5 + np.mean(z, axis=1) / 4.0)
    assert np.allclose(lin.model(x) - lin.truth(x), want, atol=1e-12)


def test_hidim_input_law_from_field_table():
    system = make_hidim_like()
    ds = field_measurements()
    assert np.allclose(system.params.mean, ds.inputs.mean(axis=0), atol=1e-12)
    centered = ds.inputs - ds.inputs.mean(axis=0)
    assert np.allclose(
        system.params.cov, centered.T @ centered / ds.n, atol=1e-9 * 1e14
    )


def test_hidim_has_no_closed_forms():
    system = make_hidim_like()
    with pytest.raises(DomainError, match="closed-form"):
        system.true_quantile(0.9)
    mc = mc_truth_quantile(system, 0.5, count=50_000, seed=1)
    assert 13.0 <= mc <= 15.0


def test_mc_truth_quantile_monotone():
    system = make_mafds_like()
    qs = [mc_truth_quantile(system, a, count=20_000, seed=2) for a in (0.1, 0.5, 0.9)]
    assert qs[0] < qs[1] < qs[2]
