"""Finite-sample confidence statements for quantiles and densities.

Both constructions combine a Monte Carlo sample of N surrogate outputs with
an experimental worst-case surrogate error bound

    beta_hat = max_i |Y_i - m_hat(X_i)|.

The quantile interval widens two order statistics of the output sample by
beta_hat; the admissible order-statistic levels involve an epsilon/gamma
pair chosen to minimize eps + gamma subject to (1 - eps)^n < delta - ddelta
with gamma = sqrt(-log(delta - ddelta - (1-eps)^n) / (2N)).  The density
band inflates/deflates a naive-kernel KDE by a correction term plus the
worst mismatch between the empirical output measure and the KDE integral
over intervals J containing the evaluation point with length > kappa,
with J expanded (upper) or shrunk (lower) by beta_hat.

The sup over intervals is approximated over a finite candidate family whose
endpoints are the sample values, the sample values +/- beta_hat and the
evaluation grid.  The sup splits into prefix maxima and window maxima over
the candidates.  Per bandwidth, sorting them costs O(N log N), the searches
of the sorted candidates merge them with the haystack block by block in
O(N), the KDE cdf at the candidates costs O(N), and the window maxima for G
grid points take O(N + G^2) time and O(G) memory.
Boundary conventions are conservative: expanded intervals count their
endpoints, shrunk intervals do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import PairedDataset, _count, _level, _readonly, _values
from .density import (
    BLOCK, KdeModel, _kde_cdf_into, _order_index, _searchsorted_blocks, kde_evaluate,
)
from .errors import DomainError, InfeasibleError

_N_MAX = 100_000  # largest n that minimal_feasible_n tries
_DELTA_TOL = 1e-9  # minimal_feasible_delta's bisection tolerance, and its smallest delta
_D_DELTA_RATIOS = np.linspace(0.1, 0.9, 9)  # the default ddelta/delta sweep


# ---------------------------------------------------------------------------
# epsilon/gamma machinery


def _check_core(n: int, delta: float, d_delta: float) -> float:
    _count(n, "n")
    _level(delta, "delta")
    if not 0.0 < d_delta < delta:
        raise DomainError(
            f"ddelta must lie in (0, delta)=(0, {delta}), got {d_delta}"
        )
    return delta - d_delta


def _check_big_n(big_n: float) -> None:
    if not (np.isfinite(big_n) and big_n >= 1):
        raise DomainError(f"N must be finite and >= 1, got {big_n}")


def gamma_term(n: int, big_n: float, delta: float, d_delta: float, eps: float) -> float:
    """gamma = sqrt(-log(delta - ddelta - (1-eps)^n) / (2N)).

    Raises :class:`DomainError` when eps violates the strict feasibility
    constraint (1-eps)^n < delta - ddelta.
    """
    rem = _check_core(n, delta, d_delta)
    _check_big_n(big_n)
    _level(eps, "eps")
    arg = rem - (1.0 - eps) ** n
    if arg <= 0.0:
        raise DomainError(
            f"eps={eps} infeasible: (1-eps)^n = {(1.0 - eps) ** n:.6g} "
            f">= delta - ddelta = {rem:.6g}"
        )
    return math.sqrt(-math.log(arg) / (2.0 * big_n))


@dataclass(frozen=True)
class EpsGamma:
    eps: float
    gamma: float
    objective: float


def minimize_eps_gamma(n: int, big_n: float, delta: float, d_delta: float) -> EpsGamma:
    """Minimize eps + gamma over the feasible eps in (1-(delta-ddelta)^(1/n), 1).

    An evenly spaced grid over [lb, 1], with eps = 1 scored +inf, narrows
    to the two neighbors of its argmin until that bracket stops changing;
    the best point seen is kept.  This assumes that the neighbors of the
    argmin bracket the minimum.  Its objective is at most about 1e-14
    relative above that of a bounded Brent search.
    """
    rem = _check_core(n, delta, d_delta)
    _check_big_n(big_n)
    lo, hi = 1.0 - rem ** (1.0 / n), 1.0
    best_eps, best_val = lo, math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):
            eps = np.linspace(lo, hi, 129)
            arg = rem - (1.0 - eps) ** n
            vals = np.where((arg > 0.0) & (eps < 1.0),
                            eps + np.sqrt(-np.log(arg) / (2.0 * big_n)), np.inf)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_eps, best_val = float(eps[i]), float(vals[i])
            bracket = float(eps[max(i - 1, 0)]), float(eps[min(i + 1, eps.size - 1)])
            if bracket == (lo, hi):
                break
            lo, hi = bracket
    gam = gamma_term(n, big_n, delta, d_delta, best_eps)
    return EpsGamma(eps=best_eps, gamma=gam, objective=best_eps + gam)


# ---------------------------------------------------------------------------
# feasibility screening


def default_d_delta_grid(delta: float) -> np.ndarray:
    return delta * _D_DELTA_RATIOS


@dataclass(frozen=True)
class FeasibilityEntry:
    d_delta: float
    feasible: bool
    objective: float
    hoeffding: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    n: int
    alpha: float
    delta: float
    big_n: float | None
    best_d_delta: float | None
    best_objective: float | None
    entries: tuple


def _screen(n, big_n, alpha, delta, d_deltas):
    """(ddelta, ok, objective, hoeffding, eps/gamma split, level_low,
    level_high) per ddelta, ascending, once all pass their checks.

    The levels are alpha -/+ (hoeffding + eps + gamma); ``ok`` says whether
    both lie inside (0, 1), the rule that both the feasibility screen and the
    quantile interval apply.  With ``big_n=None`` it is the N -> infinity
    limit: no shift, objective 1 - (delta-ddelta)^(1/n), and no split or levels.
    """
    _level(alpha, "alpha")
    if big_n is not None:
        _check_big_n(big_n)
    d_deltas = sorted(float(v) for v in np.atleast_1d(d_deltas))
    for dd in d_deltas:
        _check_core(n, delta, dd)
    for dd in d_deltas:
        if big_n is None:
            obj = 1.0 - (delta - dd) ** (1.0 / n)
            yield dd, obj < min(alpha, 1.0 - alpha), obj, 0.0, None, None, None
        else:
            hoeff = math.sqrt(-math.log(dd / 2.0) / (2.0 * big_n))
            eg = minimize_eps_gamma(n, big_n, delta, dd)
            low = alpha - hoeff - eg.eps - eg.gamma
            high = alpha + hoeff + eg.eps + eg.gamma
            yield dd, 0.0 < low and high < 1.0, eg.objective, hoeff, eg, low, high


def ci_feasibility(
    n: int,
    alpha: float,
    delta: float,
    d_delta_grid=None,
    big_n: float | None = None,
) -> FeasibilityReport:
    """Can the quantile interval exist at these levels?

    For each ddelta in the sweep the minimal achievable eps + gamma (plus
    the Hoeffding level shift) must keep both order-statistic levels inside
    (0, 1).  ``big_n=None`` screens in the N -> infinity limit.
    """
    if d_delta_grid is None:
        d_delta_grid = default_d_delta_grid(delta)
    rows = _screen(n, big_n, alpha, delta, d_delta_grid)
    entries = tuple(FeasibilityEntry(*row[:4]) for row in rows)
    best = min(entries, key=lambda e: e.objective + e.hoeffding, default=None)
    return FeasibilityReport(
        feasible=any(e.feasible for e in entries),
        n=_count(n, "n"),
        alpha=float(alpha),
        delta=float(delta),
        big_n=big_n,
        best_d_delta=None if best is None else best.d_delta,
        best_objective=None if best is None else best.objective + best.hoeffding,
        entries=entries,
    )


def minimal_feasible_n(alpha: float, delta: float, d_delta_grid=None, big_n=None) -> int:
    """Smallest n for which :func:`ci_feasibility` succeeds."""
    for n in range(1, _N_MAX + 1):
        if ci_feasibility(n, alpha, delta, d_delta_grid, big_n).feasible:
            return n
    raise InfeasibleError(f"no feasible n up to {_N_MAX}")


def minimal_feasible_delta(n: int, alpha: float, ratio_grid=None, big_n=None) -> float:
    """Smallest delta at which the construction becomes feasible.

    ``ratio_grid`` holds ddelta/delta ratios (default 0.1 .. 0.9) so the
    sweep scales with the trial delta during the bisection.  A trial delta
    is screened as :func:`ci_feasibility` screens it, up to its first
    feasible ddelta.
    """
    ratios = _D_DELTA_RATIOS if ratio_grid is None else np.atleast_1d(ratio_grid)

    def ok(d: float) -> bool:
        try:
            return any(row[1] for row in _screen(n, big_n, alpha, d, d * ratios))
        except DomainError:
            return False

    hi = 1.0 - 1e-12
    if not ok(hi):
        raise InfeasibleError(f"no feasible delta below 1 for n={n}, alpha={alpha}")
    lo = _DELTA_TOL
    if ok(lo):
        return lo
    while hi - lo > _DELTA_TOL:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# quantile confidence interval


@dataclass(frozen=True)
class QuantileCi:
    lower: float
    upper: float
    alpha: float
    delta: float
    d_delta: float
    n: int
    big_n: int
    beta_hat: float
    eps: float
    gamma: float
    level_low: float
    level_high: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def surrogate_error_bound(experimental: PairedDataset, model) -> float:
    """beta_hat = max_i |Y_i - m_hat(X_i)| on the experimental data."""
    residuals = _values(experimental.outputs - model(experimental.inputs), "residuals")
    return float(np.max(np.abs(residuals)))


def quantile_ci(
    experimental: PairedDataset,
    model,
    outputs,
    alpha: float,
    delta: float,
    d_delta: float | None = None,
    sweep: bool = False,
) -> QuantileCi:
    """Quantile confidence interval from N surrogate outputs.

    The interval is [q(level_low) - beta_hat, q(level_high) + beta_hat]
    with levels alpha -/+ (hoeffding + eps + gamma).  ``d_delta=None``
    uses delta/2; ``sweep=True`` tries the 0.1..0.9 delta grid and keeps
    the narrowest valid interval (ties toward smaller ddelta).
    """
    # one sort serves the order statistics of every ddelta candidate
    outputs = np.sort(_values(outputs, "surrogate outputs"))
    n, big_n = experimental.n, outputs.size
    beta_hat = surrogate_error_bound(experimental, model)
    if sweep:
        candidates = default_d_delta_grid(delta)
    else:
        candidates = [delta / 2.0 if d_delta is None else float(d_delta)]
    best = None
    for dd, ok, _, _, eg, low, high in _screen(n, big_n, alpha, delta, candidates):
        if not ok:
            continue
        lo_q = float(outputs[_order_index(big_n, low) - 1]) - beta_hat
        hi_q = float(outputs[_order_index(big_n, high) - 1]) + beta_hat
        ci = QuantileCi(
            lower=lo_q, upper=hi_q, alpha=float(alpha), delta=float(delta),
            d_delta=dd, n=n, big_n=big_n, beta_hat=beta_hat,
            eps=eg.eps, gamma=eg.gamma, level_low=low, level_high=high,
        )
        if best is None or ci.width < best.width:
            best = ci
    if best is None:
        ratios = None if sweep else [candidates[0] / delta]
        try:
            min_delta = minimal_feasible_delta(n, alpha, ratio_grid=ratios, big_n=big_n)
        except InfeasibleError:
            min_delta = None
        raise InfeasibleError(
            f"no valid quantile levels at alpha={alpha}, delta={delta} with "
            f"n={n}, N={big_n}"
            + (f"; smallest workable delta is about {min_delta:.4g}" if min_delta else ""),
            min_delta=min_delta,
        )
    return best


# ---------------------------------------------------------------------------
# density band


def _window_max(s, lo, hi):
    """max(s[lo[q]:hi[q]]) for every window q; -inf where it is empty.

    The distinct window ends cut ``s`` into at most 2G blocks, reduced once
    by ``np.maximum.reduceat``; a second reduceat over the block maxima,
    at the interleaved (first, stop) block of each window, takes the window
    maxima.  G windows cost O(N + G^2) time and O(G) extra memory.
    """
    ends = np.unique(np.concatenate([lo, hi]))
    ends = ends[ends < s.size]
    # a trailing -inf block keeps the stop index of a window at s's end in range
    blocks = np.append(np.maximum.reduceat(s, ends), -np.inf)
    first, stop = np.searchsorted(ends, lo), np.searchsorted(ends, hi)
    # odd slots reduce the gaps between windows and are dropped
    got = np.maximum.reduceat(blocks, np.column_stack([first, stop]).ravel())[::2]
    return np.where(first < stop, got, -np.inf)


def _fold_window_max(acc, part, start, lo, hi):
    """acc[q] = max(acc[q], max of ``part`` over its share of [lo[q], hi[q])).

    ``part`` holds entries start, start + 1, ... of a longer array, so the
    folds of its blocks, in any order, give that array's window maxima.
    """
    m = part.size
    np.maximum(acc, _window_max(part, np.clip(lo - start, 0, m), np.clip(hi - start, 0, m)),
               out=acc)


def _prefix_max_at(w, idx, start, carry):
    """max(carry, max(w[start:i])) for each i of the nondecreasing ``idx``.

    Every i is >= start.  w[start:idx[-1]] is scanned once, BLOCK values at a
    time, by a running maximum that starts from ``carry``.
    """
    got = np.empty(idx.size)
    done = np.searchsorted(idx, start, side="right")
    got[:done] = carry
    while done < idx.size:
        stop = min(start + BLOCK, idx[-1])
        run = np.maximum.accumulate(w[start:stop])
        np.maximum(run, carry, out=run)  # run[i] = max(carry, max(w[start:start + i + 1]))
        upto = np.searchsorted(idx, stop, side="right")
        got[done:upto] = run[idx[done:upto] - (start + 1)]
        start, carry, done = stop, run[-1], upto
    return got


def _sup_separable(u, w, before, k_y, r_y, k_split):
    """For each y: sup{u[k] + w[j] : cand[j] <= y <= cand[k], j < before[k]}.

    ``before`` is nondecreasing with before[k] <= k.  ``k_y`` and ``r_y``
    count the candidates < y and <= y; ``k_split`` splits the k into those
    with before[k] <= r_y and those from which on before[k] >= r_y.  With
    pref[i] = max(w[:i]), a k from k_split on pairs with every j <= y and
    scores pref[r_y] + u[k]; a nearer k scores pref[before[k]] + u[k].  These
    near scores are made block by block, pref[before[k]] from a running
    maximum, and folded into their window maxima at once, so no array of u's
    length is made.
    """
    far = _window_max(w, np.zeros_like(r_y), r_y)
    far += _window_max(u, k_split, np.full(k_split.shape, u.size))
    near_max = np.full(k_y.shape, -np.inf)
    start, carry = 0, -np.inf
    for a in range(0, u.size, BLOCK):
        idx = before[a : a + BLOCK]
        near = _prefix_max_at(w, idx, start, carry)
        start, carry = idx[-1], near[-1]
        near += u[a : a + BLOCK]
        _fold_window_max(near_max, near, a, k_y, k_split)
    return np.maximum(far, near_max)


def _band_sups(kde, cand, y_grid, kappa, beta):
    """(sup_upper, sup_lower) of ``kde`` over the points y_grid.

    ``cand`` holds the sorted distinct candidates and is overwritten.  Only
    intervals [a, b] longer than kappa count, in both directions, and
    "longer" means a < fl(b - kappa), the rounded ends of the one
    ``cand - kappa`` search.  With F the KDE cdf and mu the empirical measure
    of the KDE's values, an interval scores e_hi[b] + e_lo[a] upward, where
    e_hi = mu(-inf, t + beta] - F(t) and e_lo = F(t) - mu(-inf, t - beta).
    Downward it scores e_lo[b] + e_hi[a] when its shrunk interval
    (a + beta, b - beta), with both ends rounded as computed, is nonempty,
    and F(b) - F(a) when it is empty, so no interval counts a negative
    number of samples.  The needles of every full-candidate search are
    sorted, so ``_searchsorted_blocks`` merges them block by block.

    Arrays alive at once, in candidate arrays of 8 bytes per candidate:
    ``cand`` (1); ``past_kappa`` and ``before`` (1/2 each, 32-bit below
    2**31 candidates); the ``cand + beta`` haystack of the ``before`` search
    (1), freed before the rank pairs (1) are searched.  The cdf overwrites
    ``cand`` block by block, e_lo then the cdf and e_hi the rank pairs, so
    scoring adds no candidate array.  The short-interval term and the near
    scores of ``_sup_separable`` are never whole: each block of them is
    folded into the G window maxima.  So at most three candidate arrays are
    alive, plus arrays of the N values: the sorted values and kde_cdf's
    prefix sums.
    """
    n, size = kde.n, cand.size
    index = np.int32 if size < 2**31 else np.intp
    k_y = np.searchsorted(cand, y_grid, side="left")
    r_y = np.searchsorted(cand, y_grid, side="right")
    k_kappa = np.searchsorted(cand, y_grid + kappa, side="right")
    past_kappa = _searchsorted_blocks(cand, cand, "left", np.empty(size, index), -kappa)
    # once kappa exceeds 2 beta by more than the rounding of the interval
    # ends, every interval longer than kappa has a nonempty shrunk interval
    ends = max(abs(cand[0]), abs(cand[-1])) + max(kappa, beta)
    has_short = not kappa - 2.0 * beta > 2.0 * np.spacing(ends)
    before, k_long = past_kappa, k_kappa
    if has_short:
        # the a < before[b] are exactly the partners of b with b - a > kappa
        # and a nonempty shrunk interval, its ends rounded as in e_hi and
        # e_lo; before is nondecreasing
        before = _searchsorted_blocks(cand + beta, cand, "left", np.empty(size, index), -beta)
        np.minimum(before, past_kappa, out=before)
        # the b below k_long[q] have only partners a <= y[q], the b from it
        # on every a <= y[q]; needles of int64 would copy before to int64
        k_long = np.searchsorted(before, r_y.astype(index), side="left")
    # the ECDF ranks at cand + beta and cand - beta, a pair per candidate in
    # the 8 bytes (16 for 64-bit indices) that its e_hi takes
    ranks = np.empty((size, 2), index)
    _searchsorted_blocks(kde.values, cand, "right", ranks[:, 0], beta)
    _searchsorted_blocks(kde.values, cand, "left", ranks[:, 1], -beta)
    cdf = _kde_cdf_into(kde, cand, cand)
    short_max = np.full(k_y.shape, -np.inf)
    if has_short:
        # an empty shrunk interval with b - a > kappa scores F(b) - F(a),
        # best at the smallest such a = cand[before[b]], which must be
        # <= y: b < k_long
        for a in range(0, size, BLOCK):
            j = before[a : a + BLOCK]
            short = cdf[a : a + BLOCK] - cdf[j]
            short[j == past_kappa[a : a + BLOCK]] = -np.inf
            _fold_window_max(short_max, short, a, k_y, k_long)
    e_hi, e_lo = ranks.view(np.float64)[:, 0], cdf
    for a in range(0, size, BLOCK):
        hi = ranks[a : a + BLOCK, 0] / n
        lo = ranks[a : a + BLOCK, 1] / n
        hi -= cdf[a : a + BLOCK]
        np.subtract(cdf[a : a + BLOCK], lo, out=lo)
        e_hi[a : a + BLOCK] = hi  # overwrites this block's ranks
        e_lo[a : a + BLOCK] = lo
    sup_up = _sup_separable(e_hi, e_lo, past_kappa, k_y, r_y, k_kappa)
    sup_lo = _sup_separable(e_lo, e_hi, before, k_y, r_y, k_long)
    return sup_up, np.maximum(sup_lo, short_max)


def _candidates(sorted_outputs, beta, extra):
    """np.unique(np.concatenate([v, v - beta, v + beta, extra])), in one buffer.

    The buffer is filled in that order and sorted in place by the sort
    np.unique uses, so equal values (0.0 and -0.0) end in the same order;
    then each run of equal values keeps its first, and the kept values move
    down block by block.
    """
    v = sorted_outputs
    n = v.size
    cand = np.empty(3 * n + extra.size)
    cand[:n] = v
    np.subtract(v, beta, out=cand[n : 2 * n])
    np.add(v, beta, out=cand[2 * n : 3 * n])
    cand[3 * n :] = extra
    cand.sort()
    size, prev = 0, np.nan  # nan equals nothing: the first value is kept
    for a in range(0, cand.size, BLOCK):
        part = cand[a : a + BLOCK]
        keep = np.empty(part.size, bool)
        keep[0] = part[0] != prev
        np.not_equal(part[1:], part[:-1], out=keep[1:])
        prev = part[-1]
        kept = part[keep]
        cand[size : size + kept.size] = kept  # ends at or before a + BLOCK
        size += kept.size
    return cand[:size]


@dataclass(frozen=True)
class DensityBand:
    """Pointwise band for the output density on an evaluation grid."""

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    kappa: float
    delta: float
    bandwidths: tuple
    beta_hat: float
    eps: float
    gamma: float
    correction: float
    n: int
    big_n: int

    def __post_init__(self):
        for name in ("grid", "lower", "upper"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def density_band(
    outputs,
    experimental: PairedDataset,
    model,
    kappa: float,
    delta: float,
    bandwidths,
    interval: tuple[float, float],
    grid_steps: int = 200,
) -> DensityBand:
    """Simultaneous confidence band for the density of the true output.

    Guarantees hold for integrals over intervals of length > kappa inside
    ``interval``.  Multiple bandwidths combine by pointwise min of uppers
    and max of lowers; each bandwidth's band is computed on its own.
    Requires 2/N^2 < delta.

    Memory, per bandwidth: the KDE holds one sorted copy of the outputs.
    The 3N + G candidates fill one buffer, sorted and deduplicated in place,
    which ``_band_sups`` then overwrites.  About four candidate arrays are
    alive at once: ``cand``, the two index arrays, the rank pairs (or,
    before them, the ``before`` haystack), and the sorted outputs with
    kde_cdf's prefix sums.
    """
    outputs = _values(outputs, "surrogate outputs")
    big_n = outputs.size
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise DomainError(f"empty evaluation interval ({lo}, {hi})")
    if not (np.isfinite(kappa) and 0.0 < kappa < hi - lo):
        raise DomainError(
            f"kappa must lie in (0, interval length={hi - lo:.6g}), got {kappa}"
        )
    grid_steps = _count(grid_steps, "grid_steps", least=2)
    bandwidths = tuple(float(h) for h in np.atleast_1d(bandwidths))
    if not bandwidths or not all(0.0 < h < math.inf for h in bandwidths):
        raise DomainError("bandwidths must be a nonempty list of positive values")
    _level(delta, "delta")
    slack = 2.0 / big_n**2
    if slack >= delta:
        raise InfeasibleError(
            f"need 2/N^2 < delta: N={big_n} gives {slack:.3g} >= {delta}"
        )
    n = experimental.n
    beta_hat = surrogate_error_bound(experimental, model)
    eg = minimize_eps_gamma(n, big_n, delta, slack)
    corr = (eg.eps + eg.gamma + 2.0 * math.sqrt(math.log(big_n)) / math.sqrt(big_n)) / kappa

    grid = np.linspace(lo, hi, grid_steps)
    upper = np.full(grid.size, np.inf)
    lower = np.full(grid.size, -np.inf)
    for h in bandwidths:
        kde = KdeModel(values=outputs, bandwidth=h)
        outputs = kde.values  # a converted input is not held beside its sorted copy
        sup_up, sup_lo = _band_sups(
            kde, _candidates(outputs, beta_hat, grid), grid, kappa, beta_hat
        )
        fhat = kde_evaluate(kde, grid)
        upper = np.minimum(upper, fhat + corr + sup_up / kappa)
        lower = np.maximum(lower, fhat - corr - sup_lo / kappa)
    lower = np.clip(lower, 0.0, None)
    return DensityBand(
        grid=grid,
        lower=lower,
        upper=upper,
        kappa=float(kappa),
        delta=float(delta),
        bandwidths=bandwidths,
        beta_hat=beta_hat,
        eps=eg.eps,
        gamma=eg.gamma,
        correction=corr,
        n=n,
        big_n=big_n,
    )
