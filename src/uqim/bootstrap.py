"""Bootstrap quantiles of the residual-model error.

Each replicate resamples the n (X_i, eps_i) pairs with replacement, fits the
residual model on the first n_l resampled pairs, evaluates its absolute
value on the remaining n - n_l resampled points and records

    q_b = min { y : (1/(n - n_l)) sum 1{|m_eps_b(X_i)| <= y} >= alpha },

the plug-in order statistic.  The report carries every replicate value plus
their exact sample median.  Each replicate owns a spawned RNG stream and a
fixed output slot, so the threaded path is bit-identical to the sequential
one.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import PairedDataset
from .density import _order_index
from .errors import DomainError
from .randgen import make_rng, spawn_seeds
from .surrogate import (
    FunctionFamily,
    compute_residuals,
    fit_residual_model,
    fit_residual_model_weighted,
)


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    ``extra_inputs`` (and ``weight``) are given the per-replicate fit uses
    the zero-anchored weighted variant.  Deterministic per seed, with or
    without threads.  The pool holds at most ``min(threads, cores, b_reps)``
    workers, ``cores`` being the CPUs this process may run on.
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
    x = experimental.inputs
    n_eval = n - n_learn
    k = _order_index(n_eval, alpha)

    def one(rep_seed) -> float:
        idx = make_rng(rep_seed).integers(0, n, size=n)
        xi, ei = x[idx], residuals[idx]
        learn = PairedDataset(
            inputs=xi[:n_learn], outputs=ei[:n_learn], kind="experimental"
        )
        if extra_inputs is None:
            model = fit_residual_model(family, learn, ei[:n_learn])
        else:
            model = fit_residual_model_weighted(
                family, learn, ei[:n_learn], extra_inputs,
                1.0 if weight is None else weight,
            )
        absvals = np.abs(model(xi[n_learn:]))
        return float(np.partition(absvals, k - 1)[k - 1])

    seeds = spawn_seeds(seed, b_reps)
    workers = min(threads, _available_cores(), b_reps)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            quantiles = np.fromiter(pool.map(one, seeds), dtype=float, count=b_reps)
    else:
        quantiles = np.fromiter(map(one, seeds), dtype=float, count=b_reps)
    return BootstrapErrorReport(
        quantiles=quantiles,
        median=float(np.median(quantiles)),
        alpha=float(alpha),
        n_learn=int(n_learn),
    )
