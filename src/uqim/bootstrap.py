"""Bootstrap quantiles of the residual-model error.

Each replicate resamples the n (X_i, eps_i) pairs with replacement, fits the
residual model on the first n_l resampled pairs, evaluates its absolute
value on the remaining n - n_l resampled points and records

    q_b = min { y : (1/(n - n_l)) sum 1{|m_eps_b(X_i)| <= y} >= alpha },

the plug-in order statistic.  The report carries every replicate value plus
their exact sample median.  Each replicate owns a spawned RNG stream and
solves the surrogate module's one least-squares system directly, plain or
zero-anchored through the same call, one replicate after another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PairedDataset
from .density import _order_index
from .errors import DataError, DomainError
from .randgen import make_rng, spawn_seeds
from .surrogate import (
    FunctionFamily,
    _check_weight,
    _extra_points,
    _System,
    compute_residuals,
)


@dataclass(frozen=True)
class BootstrapErrorReport:
    """Per-replicate error quantiles and their median."""

    quantiles: np.ndarray
    median: float
    alpha: float
    n_learn: int

    def __post_init__(self):
        q = np.asarray(self.quantiles, dtype=float)
        q.flags.writeable = False
        object.__setattr__(self, "quantiles", q)

    @property
    def b_reps(self) -> int:
        return self.quantiles.size


def bootstrap_error_quantile(
    experimental: PairedDataset,
    base_model,
    family: FunctionFamily,
    b_reps: int = 500,
    n_learn: int = 10,
    alpha: float = 0.95,
    seed=0,
    extra_inputs=None,
    weight: float | None = None,
    threads: int = 1,
) -> BootstrapErrorReport:
    """Bootstrap the residual-model error quantile.

    ``base_model`` supplies the residuals eps_i = Y_i - m_hat(X_i).  When
    ``extra_inputs`` (and ``weight``, default 1) are given the per-replicate
    fit uses the zero-anchored weighted variant.  Deterministic per seed.
    ``threads`` is accepted for compatibility and ignored: the replicates
    run in one thread.  A replicate whose fit fails raises its error.
    """
    n = experimental.n
    if not 1 <= n_learn < n:
        raise DomainError(f"n_learn must lie in [1, {n - 1}], got {n_learn}")
    if b_reps < 1:
        raise DomainError(f"b_reps must be >= 1, got {b_reps}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if weight is not None and extra_inputs is None:
        raise DomainError("weight given without extra_inputs")
    residuals = compute_residuals(base_model, experimental)
    if not np.all(np.isfinite(residuals)):
        raise DataError("base model gives non-finite residuals")
    x = experimental.inputs
    w = _check_weight(1.0 if weight is None else weight)
    extra = None if extra_inputs is None else _extra_points(extra_inputs, experimental.dim)
    k = _order_index(n - n_learn, alpha)

    quantiles = np.empty(b_reps)
    for r, rep_seed in enumerate(spawn_seeds(seed, b_reps)):
        idx = make_rng(rep_seed).integers(0, n, size=n)
        learn, rest = idx[:n_learn], idx[n_learn:]
        fit = _System.on_data(family, x[learn], residuals[learn], extra)
        pred = fit.basis.predict(fit.solve(family.penalty, w), x[rest])
        quantiles[r] = np.partition(np.abs(pred), k - 1)[k - 1]
    return BootstrapErrorReport(
        quantiles=quantiles,
        median=float(np.median(quantiles)),
        alpha=float(alpha),
        n_learn=int(n_learn),
    )
