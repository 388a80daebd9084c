"""Input-law estimation and random design generation.

Stream protocol v1: every stochastic operation takes an integer ``seed`` (or
a ``numpy.random.SeedSequence``) and builds a counter-based Philox generator
from ``SeedSequence(seed)``.  Independent sub-streams are derived with
``SeedSequence.spawn``, so parallel draws do not depend on scheduling.  The
contract is determinism per seed, not a fixed bit pattern across numpy
versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _count, _points
from .errors import DomainError, InsufficientDataError, InvalidCovarianceError

# relative tolerances for covariance validation
_SYM_TOL = 1e-8
_PSD_TOL = 1e-10


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(seed)


def make_rng(seed) -> np.random.Generator:
    """Philox generator for ``seed`` (int >= 0 or SeedSequence)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed)))


def spawn_seeds(seed, count: int) -> list[np.random.SeedSequence]:
    """Independent child seeds for per-task streams."""
    return _seed_sequence(seed).spawn(count)


@dataclass(frozen=True)
class MvnParams:
    """Mean vector and covariance matrix of a multivariate normal law."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).ravel()
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise InvalidCovarianceError(
                f"covariance shape {cov.shape} does not match dimension {d}"
            )
        scale = float(np.max(np.abs(cov))) or 1.0
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise InvalidCovarianceError("non-finite mean or covariance")
        if np.max(np.abs(cov - cov.T)) > _SYM_TOL * scale:
            raise InvalidCovarianceError("covariance is not symmetric")
        mean.flags.writeable = False
        cov = (cov + cov.T) / 2.0
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def estimate_mvn(points: np.ndarray) -> MvnParams:
    """Maximum-likelihood normal fit: sample mean and 1/N covariance.

    The covariance uses the biased 1/N normalizer (the ML estimate), not
    1/(N-1).  Requires N >= 2 rows; a 1-d array is N points of one
    coordinate.
    """
    x = _points(points)
    if x.shape[0] < 2:
        raise InsufficientDataError(
            f"need at least 2 rows to estimate a covariance, got {x.shape[0]}"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    return MvnParams(mean=mean, cov=cov)


def _transform(params: MvnParams) -> np.ndarray:
    """Factor A with A A^T = cov, via eigendecomposition (not Cholesky).

    Negative eigenvalues within the PSD tolerance are clipped to zero;
    anything further below fails validation.
    """
    vals, vecs = np.linalg.eigh(params.cov)
    scale = float(np.max(np.abs(vals))) or 1.0
    if vals[0] < -_PSD_TOL * scale:
        raise InvalidCovarianceError(
            f"covariance has negative eigenvalue {vals[0]:.3e}"
        )
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_mvn(params: MvnParams, count: int, seed) -> np.ndarray:
    """Draw ``count`` vectors X = A Z + mean with Z iid standard normal.

    Z is drawn as ``rng.standard_normal((count, dim))`` so the identity
    covariance reproduces the raw normal stream exactly.  Z is dropped once
    A Z is formed and the mean is added in place, so two (count, dim)
    arrays are alive at most.
    """
    count = _count(count, "count")
    a = _transform(params)
    rng = make_rng(seed)
    x = rng.standard_normal((count, params.dim)) @ a.T
    x += params.mean
    return x


def latin_hypercube(ranges, count: int, seed) -> np.ndarray:
    """Latin hypercube design: one point per equal-width stratum per axis.

    ``ranges`` is a sequence of (lo, hi) pairs, one per dimension.  Each
    coordinate lands uniformly inside its stratum.
    """
    count = _count(count, "count")
    ranges = [(float(lo), float(hi)) for lo, hi in ranges]
    for j, (lo, hi) in enumerate(ranges):
        if not lo < hi:
            raise DomainError(f"range {j}: need lo < hi, got ({lo}, {hi})")
    rng = make_rng(seed)
    d = len(ranges)
    pts = np.empty((count, d))
    for j, (lo, hi) in enumerate(ranges):
        strata = rng.permutation(count)
        u = rng.random(count)
        pts[:, j] = lo + (strata + u) / count * (hi - lo)
    return pts
