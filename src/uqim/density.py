"""Kernel density estimation and Monte Carlo quantiles.

The density of a surrogate output m(X) is estimated from a large evaluation
sample v_1..v_N as

    g_hat(y) = (1/(N h)) sum_i K((y - v_i)/h)

with the naive (box) kernel K(u) = 1/2 on [-1, 1], the kernel of the
density band (:func:`uqim.confidence.density_band`).  Quantiles are plug-in
order statistics of the evaluation sample.  Both evaluators work off a sorted
copy of the sample, so a point query costs O(log N); sorted queries close
together are merged with the sample instead (:func:`_searchsorted_blocks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _level, _points, _values
from .errors import DomainError, ZeroSpreadError

# queries per block of the elementwise KDE CDF and the density band's
# searches: each temporary of a block is 512 KB and stays in cache
BLOCK = 2**16
# a sorted block is merged with the haystack slice it spans while the slice
# holds at most this many values per needle; past about 6-8 a binary search
# per needle is faster (65,536 needles in 1e6 and 3e6 normal values)
MERGE_SPAN = 4


def _searchsorted_blocks(haystack, needles, side, out=None, shift=None):
    """``out[i] = np.searchsorted(haystack, needles[i] (+ shift), side)``.

    ``haystack`` is sorted and 1-d.  The needles go in blocks of BLOCK.  A
    nondecreasing block whose haystack slice ``[lo, hi)`` (the values its
    first and last needle bound) holds at most MERGE_SPAN values per needle
    is merged with that slice by one stable argsort, the needles placed
    before the slice for ``side="left"`` and after it for ``"right"``, so
    that ties order as the search orders them: a needle's position in the
    merged order, minus the needles before it, plus ``lo``, is its index.
    Other blocks take ``np.searchsorted``.  Both give the same integers.
    The slices of consecutive sorted blocks do not overlap, so the merged
    blocks of M needles in N values cost O(N + M) in all.
    """
    if out is None:
        out = np.empty(needles.shape, np.intp)
    for a in range(0, needles.size, BLOCK):
        part = needles[a : a + BLOCK]
        if shift is not None:
            part = part + shift
        m = part.size
        lo, hi = np.searchsorted(haystack, part[[0, -1]], side=side)
        if hi - lo > MERGE_SPAN * m or not np.all(part[:-1] <= part[1:]):
            out[a : a + m] = np.searchsorted(haystack, part, side=side)
            continue
        if side == "left":
            order = np.argsort(np.concatenate([part, haystack[lo:hi]]), kind="stable")
            pos = np.flatnonzero(order < m)
        else:
            order = np.argsort(np.concatenate([haystack[lo:hi], part]), kind="stable")
            pos = np.flatnonzero(order >= hi - lo)
        pos -= np.arange(m)
        pos += lo
        out[a : a + m] = pos
    return out


@dataclass(frozen=True)
class KdeModel:
    """Sample and bandwidth of a box-kernel KDE; values are stored sorted."""

    values: np.ndarray
    bandwidth: float

    def __post_init__(self):
        v = np.sort(_values(self.values, "kde values"))
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise DomainError(f"bandwidth must be positive, got {self.bandwidth}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


def kde_evaluate(model: KdeModel, y) -> np.ndarray:
    """Density estimate at ``y`` (scalar or array): the count of values
    within h of ``y``, over 2Nh."""
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    t = np.atleast_1d(y)
    v, h, n = model.values, model.bandwidth, model.n
    lo = np.searchsorted(v, t - h, side="left")
    hi = np.searchsorted(v, t + h, side="right")
    out = (hi - lo) / (2.0 * n * h)
    return float(out[0]) if scalar else out


def kde_cdf(model: KdeModel, y) -> np.ndarray:
    """Integral of the density estimate over (-inf, y], exactly.

    The sum of clip(t - v + h, 0, 2h) comes from sorted prefix sums, taken
    relative to v[0] so that a large common offset does not cancel.  Blocks
    of BLOCK queries keep the temporaries in cache, and a sorted block is
    searched by merge.
    """
    y = np.asarray(y, dtype=float)
    t = np.atleast_1d(y)
    out = _kde_cdf_into(model, t.ravel(), np.empty(t.size)).reshape(t.shape)
    return float(out[0]) if y.ndim == 0 else out


def _kde_cdf_into(model: KdeModel, t, out):
    """:func:`kde_cdf` of the 1-d queries ``t``, written into ``out``.

    ``out`` may be ``t`` itself: each block of queries is read in full
    before its results are written.
    """
    v, h, n = model.values, model.bandwidth, model.n
    prefix = np.zeros(n + 1)
    np.subtract(v, v[0], out=prefix[1:])
    np.cumsum(prefix[1:], out=prefix[1:])  # in place: no temporary of n values
    for a in range(0, t.size, BLOCK):
        tb = t[a : a + BLOCK]
        full = _searchsorted_blocks(v, tb - h, "right")
        part = _searchsorted_blocks(v, tb + h, "left")
        mid = (part - full) * (tb + h - v[0]) - (prefix[part] - prefix[full])
        out[a : a + BLOCK] = (2.0 * h * full + mid) / (2.0 * n * h)
    np.clip(out, 0.0, 1.0, out=out)  # the prefix sums round
    return out


def select_bandwidth(values) -> float:
    """Normal-reference rule h = 1.06 sigma N^(-1/5).

    sigma is the smaller of the sample standard deviation and IQR/1.349;
    a zero candidate falls back to the other, and all-identical values are
    rejected.
    """
    v = _values(values, "bandwidth rule values", least=2)
    sd = float(np.std(v, ddof=1))
    q1, q3 = np.percentile(v, [25.0, 75.0])
    iqr_sigma = float(q3 - q1) / 1.349
    candidates = [s for s in (sd, iqr_sigma) if s > 0.0]
    if not candidates:
        raise ZeroSpreadError("all values identical; bandwidth rule undefined")
    return 1.06 * min(candidates) * v.size ** (-0.2)


@dataclass(frozen=True)
class QuantileEstimate:
    """Plug-in quantile: level, value and the sample size it came from."""

    level: float
    value: float
    size: int


def _order_index(n: int, alpha: float) -> int:
    """Smallest k with k/n >= alpha (the ceil(n*alpha) order statistic).

    The comparison is done on k/n rather than ceil(n*alpha) so that cases
    like n=20, alpha=0.95 resolve to k=19 as the exact arithmetic demands.
    """
    k = int(math.ceil(n * alpha))
    k = min(max(k, 1), n)
    while k < n and k / n < alpha:
        k += 1
    while k > 1 and (k - 1) / n >= alpha:
        k -= 1
    return k


def mc_quantile(values, alpha: float) -> QuantileEstimate:
    """alpha-quantile as the ceil(N*alpha)-th ascending order statistic."""
    v = _values(values, "quantile sample")
    _level(alpha, "alpha")
    val = float(_order_statistic(v.copy(), alpha))
    return QuantileEstimate(level=float(alpha), value=val, size=v.size)


def _order_statistic(values: np.ndarray, alpha: float) -> np.ndarray:
    """The ceil(n*alpha)-th ascending value of each row of n values (the
    last axis), in an array of its own rather than a view of the partition.
    ``values`` is partitioned in place."""
    k = _order_index(values.shape[-1], alpha)
    values.partition(k - 1)
    return values[..., k - 1].copy()


def surrogate_density(model, inputs, *, bandwidth: float | None = None) -> KdeModel:
    """KDE of m(X) from a surrogate and an input sample.

    ``inputs`` is an :class:`~uqim.data.InputSample` or an (n, d) array; a
    1-d array is n points of one coordinate.
    ``bandwidth=None`` applies :func:`select_bandwidth` to the outputs.
    """
    values = np.asarray(model(_points(inputs)), dtype=float)
    if bandwidth is None:
        bandwidth = select_bandwidth(values)
    return KdeModel(values=values, bandwidth=bandwidth)
