"""Bootstrap quantiles of the residual-model error.

Each replicate resamples the n (X_i, eps_i) pairs with replacement, fits the
residual model on the first n_l resampled pairs, evaluates its absolute
value on the remaining n - n_l resampled points and records

    q_b = min { y : (1/(n - n_l)) sum 1{|m_eps_b(X_i)| <= y} >= alpha },

the plug-in order statistic.  The report carries every replicate value plus
their exact sample median.  Each replicate owns a spawned RNG stream.  The
residual basis is built once, on all n rows plus the extra rows, as the
reported residual model's is.  Replicates gather their rows from its designs
and solve in blocks, each block one stack of the surrogate module's
least-squares systems, plain or zero-anchored; their quantiles equal those of
one replicate after another bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PairedDataset, _count, _level, _readonly
from .density import _order_statistic
from .errors import DomainError
from .randgen import make_rng, spawn_seeds
from .surrogate import (
    FunctionFamily,
    _check_weight,
    _extra_points,
    _System,
    compute_residuals,
)

# values in the largest stacked array of a block of replicates, so that
# memory does not grow with b_reps.  At 128 KB an array stays in L2 and glibc
# reuses freed heap chunks for it; 2**16 and more raised the api_5d pipeline's
# peak RSS by 8 MB (glibc, 2-vCPU x86_64), for no faster bootstrap.
_BLOCK_VALUES = 2**14


@dataclass(frozen=True)
class BootstrapErrorReport:
    """Per-replicate error quantiles and their median."""

    quantiles: np.ndarray
    median: float
    alpha: float
    n_learn: int

    def __post_init__(self):
        object.__setattr__(self, "quantiles", _readonly(self.quantiles))

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
    n_learn, b_reps = _count(n_learn, "n_learn"), _count(b_reps, "b_reps")
    if n_learn >= n:
        raise DomainError(f"n_learn must lie in [1, {n - 1}], got {n_learn}")
    _level(alpha, "alpha")
    if weight is not None and extra_inputs is None:
        raise DomainError("weight given without extra_inputs")
    residuals = compute_residuals(base_model, experimental)
    x = experimental.inputs
    w = _check_weight(1.0 if weight is None else weight)
    extra = None if extra_inputs is None else _extra_points(extra_inputs, experimental.dim)
    m = n - n_learn

    # a block's replicates gather their rows from one system; at zero penalty
    # the rank check stacks the extra rows under each one's learn rows
    full = _System.on_data(family, x, residuals, extra)
    rows = n_learn + (extra.shape[0] if extra is not None and family.penalty == 0 else 0)
    block = max(1, _BLOCK_VALUES // (full.basis.n_coef * max(rows, m)))
    seeds = spawn_seeds(seed, b_reps)
    quantiles = np.empty(b_reps)
    for a in range(0, b_reps, block):
        idx = np.array([make_rng(s).integers(0, n, size=n) for s in seeds[a : a + block]])
        learn, rest = idx[:, :n_learn], idx[:, n_learn:]
        coef = full.rows(learn, residuals[learn]).solve(family.penalty, w)
        pred = full.predict_rows(x, coef, rest)
        quantiles[a : a + len(idx)] = _order_statistic(np.abs(pred), alpha)
    return BootstrapErrorReport(
        quantiles=quantiles,
        median=float(np.median(quantiles)),
        alpha=float(alpha),
        n_learn=n_learn,
    )
