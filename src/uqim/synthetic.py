"""Synthetic systems with known truth for validation studies.

Two families:

* a one-dimensional system with a scaled square-root response, normal
  inputs and a choice of simulator bias shapes, where quantiles, cdf and
  density of the true output have closed forms;
* a five-dimensional system whose input law is estimated from the bundled
  field measurement table, with a documented polynomial response.

All response and bias constants here are plumbing for test scenarios, not
quantities anyone should tune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import PairedDataset
from .density import mc_quantile
from .errors import DomainError
from .randgen import MvnParams, estimate_mvn, make_rng, sample_mvn, spawn_seeds

# Field measurements from ten nominally identical rotating-machine
# foundations: rotational stiffnesses about y and z, lateral stiffnesses
# along y and z, a geometry offset, and the measured fundamental frequency.
_FIELD_ROWS = np.array(
    [
        [131.0, 131.0, 3.27e7, 3.07e7, 6.79e-4, 14.5],
        [134.0, 128.0, 3.28e7, 3.22e7, 6.77e-4, 14.2],
        [131.0, 143.0, 3.35e7, 3.29e7, 6.82e-4, 14.4],
        [123.0, 125.0, 3.29e7, 3.25e7, 6.80e-4, 14.2],
        [114.0, 130.0, 3.22e7, 3.30e7, 6.79e-4, 14.3],
        [129.0, 134.0, 3.26e7, 3.18e7, 6.76e-4, 13.5],
        [135.0, 122.0, 3.19e7, 3.16e7, 6.81e-4, 14.7],
        [128.0, 116.0, 3.54e7, 3.51e7, 6.74e-4, 13.2],
        [104.0, 118.0, 3.21e7, 3.37e7, 6.68e-4, 13.1],
        [120.0, 111.0, 3.42e7, 3.44e7, 6.84e-4, 16.3],
    ]
)

FIELD_INPUT_NAMES = ("k_rot_y", "k_rot_z", "k_lat_y", "k_lat_z", "h_x")


def field_measurements() -> PairedDataset:
    """The bundled ten-system stiffness/frequency measurement table."""
    return PairedDataset(
        inputs=_FIELD_ROWS[:, :5],
        outputs=_FIELD_ROWS[:, 5],
        kind="experimental",
        input_names=FIELD_INPUT_NAMES,
        output_name="freq",
    )


BIAS_KINDS = ("constant", "linear", "smooth")


@dataclass(frozen=True)
class SyntheticSystem:
    """A known truth, an imperfect simulator and the input distribution."""

    name: str
    params: MvnParams
    truth: Callable
    model: Callable
    bias_kind: str
    bias_scale: float
    sigma_obs: float
    quantile_fn: Callable | None = None
    cdf_fn: Callable | None = None
    density_fn: Callable | None = None

    @property
    def dim(self) -> int:
        return self.params.dim

    def draw_experiment(self, count: int, seed: int = 0) -> PairedDataset:
        """Inputs from the input law, outputs = truth + observation noise."""
        seed_x, seed_noise = spawn_seeds(seed, 2)
        x = sample_mvn(self.params, count, seed_x)
        y = self.truth(x)
        if self.sigma_obs > 0.0:
            y = y + self.sigma_obs * make_rng(seed_noise).standard_normal(count)
        return PairedDataset(inputs=x, outputs=y, kind="experimental")

    def draw_simulation(self, count: int, seed: int = 0) -> PairedDataset:
        """Simulator runs: inputs from the input law, outputs from the model."""
        x = sample_mvn(self.params, count, seed)
        return PairedDataset(inputs=x, outputs=self.model(x), kind="simulated")

    def _oracle(self, fn, what):
        if fn is None:
            raise DomainError(f"system {self.name!r} has no closed-form {what}")
        return fn

    def true_quantile(self, alpha: float) -> float:
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
        return float(self._oracle(self.quantile_fn, "quantile")(alpha))

    def true_cdf(self, y):
        return self._oracle(self.cdf_fn, "cdf")(np.asarray(y, dtype=float))

    def true_density(self, y):
        return self._oracle(self.density_fn, "density")(np.asarray(y, dtype=float))


_erfc = np.vectorize(math.erfc, otypes=[float])


def _check_bias_noise(bias_scale: float, sigma_obs: float) -> None:
    if not math.isfinite(bias_scale):
        raise DomainError(f"bias_scale must be finite, got {bias_scale}")
    if not (math.isfinite(sigma_obs) and sigma_obs >= 0.0):
        raise DomainError(f"sigma_obs must be finite and >= 0, got {sigma_obs}")


def _bias(kind: str, scale: float, offset: Callable, sd: float) -> Callable:
    """The bias shape ``kind`` in the centred coordinate ``offset(x)`` of SD ``sd``."""
    if kind == "constant":
        return lambda x: np.full(np.shape(x)[0], scale)
    if kind == "linear":
        return lambda x: scale * (0.5 + offset(x) / (4.0 * sd))
    if kind == "smooth":
        return lambda x: scale * np.cos(2.0 * np.pi * offset(x) / (6.0 * sd))
    raise DomainError(f"bias_kind must be one of {BIAS_KINDS}, got {kind!r}")


def make_mafds_like(
    bias_kind: str = "smooth",
    bias_scale: float = 0.005,
    sigma_obs: float = 0.002,
) -> SyntheticSystem:
    """1-d square-root response with normal input.

    X ~ N(0.05, 0.0057^2), truth g(x) = 0.37 sqrt(max(x, 0)); the simulator
    adds the chosen bias shape.  Closed forms (ignoring the negligible mass
    of X below zero): quantile(a) = 0.37 sqrt(max(mu + sd z_a, 0)),
    cdf(y) = Phi(((y/0.37)^2 - mu)/sd) for y >= 0,
    density(y) = phi(((y/0.37)^2 - mu)/sd)/sd * 2 y / 0.37^2.
    """
    _check_bias_noise(bias_scale, sigma_obs)
    mean, sd, amp = 0.05, 0.0057, 0.37
    params = MvnParams(mean=np.array([mean]), cov=np.array([[sd**2]]))

    def truth(x):
        x = np.asarray(x, dtype=float)
        return amp * np.sqrt(np.clip(x[:, 0], 0.0, None))

    bias = _bias(bias_kind, bias_scale, lambda x: x[:, 0] - mean, sd)

    def model(x):
        x = np.asarray(x, dtype=float)
        return truth(x) + bias(x)

    def quantile_fn(alpha):
        # Wichura's AS 241, within a few ulp of scipy.special.ndtri
        from statistics import NormalDist

        return amp * np.sqrt(max(mean + sd * NormalDist().inv_cdf(alpha), 0.0))

    def cdf_fn(y):
        # Phi(z) = erfc(-z / sqrt 2) / 2 keeps the lower tail's relative accuracy
        y = np.asarray(y, dtype=float)
        z = ((y / amp) ** 2 - mean) / sd
        return np.where(y < 0.0, 0.0, 0.5 * _erfc(-z / math.sqrt(2.0)))

    def density_fn(y):
        y = np.asarray(y, dtype=float)
        z = ((y / amp) ** 2 - mean) / sd
        phi = np.exp(-0.5 * z**2) / (sd * np.sqrt(2.0 * np.pi))
        return np.where(y <= 0.0, 0.0, phi * 2.0 * y / amp**2)

    return SyntheticSystem(
        name="mafds_like",
        params=params,
        truth=truth,
        model=model,
        bias_kind=bias_kind,
        bias_scale=float(bias_scale),
        sigma_obs=float(sigma_obs),
        quantile_fn=quantile_fn,
        cdf_fn=cdf_fn,
        density_fn=density_fn,
    )


def make_hidim_like(
    bias_kind: str = "constant",
    bias_scale: float = 0.2,
    sigma_obs: float = 0.1,
) -> SyntheticSystem:
    """5-d system with the field-table input law.

    The response is a documented polynomial in standardized coordinates
    z_j = (x_j - mean_j)/sd_j:

        t(x) = 14 + 0.8 z_1 + 0.5 z_2 - 0.3 z_3 + 0.2 z_4 + 0.1 z_5
                  + 0.05 (z_1^2 - 1)

    so the output lives near the measured frequencies.  Bias shapes act on
    the average standardized coordinate.  No closed-form output law; use
    :func:`mc_truth_quantile` for reference values.
    """
    _check_bias_noise(bias_scale, sigma_obs)
    params = estimate_mvn(field_measurements().inputs)
    mean = params.mean
    sd = np.sqrt(np.diag(params.cov))
    coef = np.array([0.8, 0.5, -0.3, 0.2, 0.1])

    def standardize(x):
        return (np.asarray(x, dtype=float) - mean) / sd

    def truth(x):
        z = standardize(x)
        return 14.0 + z @ coef + 0.05 * (z[:, 0] ** 2 - 1.0)

    bias = _bias(bias_kind, bias_scale, lambda x: np.mean(standardize(x), axis=1), 1.0)

    def model(x):
        return truth(x) + bias(x)

    return SyntheticSystem(
        name="hidim_like",
        params=params,
        truth=truth,
        model=model,
        bias_kind=bias_kind,
        bias_scale=float(bias_scale),
        sigma_obs=float(sigma_obs),
    )


def mc_truth_quantile(
    system: SyntheticSystem, alpha: float, count: int = 1_000_000, seed: int = 0
) -> float:
    """Monte Carlo reference quantile of the true output."""
    x = sample_mvn(system.params, count, seed)
    return mc_quantile(system.truth(x), alpha).value
