"""Penalized least-squares surrogates and residual correction.

A surrogate is a linear-in-coefficients model f(x) = sum_j c_j b_j(x) fitted
by minimizing

    (1/L) sum_i |f(X_i) - y_i|^2 + pen * c^T R c

where ``pen`` is the penalty weight carried by the function family and R is
the family's roughness matrix.  Three basis families are provided:

* ``spline1d``  cubic B-splines on equally spaced knots with a
  second-difference (P-spline) roughness, for d = 1;
* ``rbf``       Gaussian radial basis functions on a deterministic subset of
  the training points plus an intercept, ridge roughness, for any d;
* ``poly``      raw monomials up to a total degree, each the product of its
  factors (no pow()), ridge roughness on the non-constant terms.  Intercept
  coefficient comes first.

Outside the training range splines continue linearly (value and slope frozen
at the boundary).  The residual-correction machinery fits a second model to
(X_i, eps_i) pairs, optionally anchored toward zero on extra input points,
with the weight and penalty selected by k-fold cross validation scored on
the experimental data only.

Every fit (plain, GCV, zero-anchored, each CV fold and each bootstrap
replicate) assembles and solves one penalized normal-equation system,
``_System``, from ``design``.  CV folds and stacks of bootstrap replicates
gather their rows from the one basis and design of all the experimental
plus extra rows.  rbf and poly evaluate through ``_TableBasis``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data import PairedDataset, _count, _points, _rows, _values
from .errors import (
    ConditioningError,
    DataError,
    DomainError,
    InsufficientDataError,
    RankDeficiencyError,
)
from .randgen import make_rng

FAMILY_KINDS = ("spline1d", "rbf", "poly")

_DEGREE = 3  # cubic splines throughout
_BLOCK_ROWS = 4096  # predict's block: at 21 coefficients faster than 2048 or 8192


@dataclass(frozen=True)
class FunctionFamily:
    """Structural description of a basis family plus its penalty weight.

    ``size`` means: number of spline segments (``spline1d``), number of RBF
    centers (``rbf``), or total polynomial degree (``poly``).
    """

    kind: str
    size: int
    penalty: float = 0.0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}")
        least = 0 if self.kind == "poly" else 1
        object.__setattr__(self, "size", _count(self.size, f"{self.kind} size", least))
        if not np.isfinite(self.penalty) or self.penalty < 0:
            raise DomainError(f"penalty must be finite and >= 0, got {self.penalty}")

    def with_penalty(self, penalty: float) -> "FunctionFamily":
        return replace(self, penalty=float(penalty))


def _bspline(t: np.ndarray, c: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    """sum_i c_i B_{i,k}(x) at points x in [t[k], t[n]] (n = len(t) - k - 1).

    Cox-de Boor recursion (de Boor, A Practical Guide to Splines, 1978) in the
    operation order of scipy's ``BSpline`` evaluation, so the values are
    bit-identical to it: x falls in the interval t[l] <= x < t[l+1] (the last
    one closed), the k+1 non-zero B_{l-k..l,k}(x) are built up from degree 0,
    and c_i B_i are added to zero in order of i.  ``c`` is (n,) or (n, p).  The
    knots must pass ``_check_knots``, which keeps every denominator positive.
    """
    n = t.size - k - 1
    ell = np.minimum(np.searchsorted(t, x, side="right"), n) - 1
    # each knot t[ell + i] and each distance t[ell + i] - x, x - t[ell + 1 - i]
    # is formed once; as x lies in [t[ell], t[ell + 1]], no term is -0.0, so a
    # level's first term is assigned where scipy adds it to zero
    knot = {i: t[ell + i] for i in range(1 - k, k + 1)}
    right = {i: knot[i] - x for i in range(1, k + 1)}
    left = {i: x - knot[1 - i] for i in range(1, k + 1)}
    b = [np.ones_like(x)]
    for j in range(1, k + 1):
        prev, b = b, []
        for m, bm in enumerate(prev, start=1):
            w = bm / (knot[m] - knot[m - j])
            up = w * right[m]
            b.append(up if m == 1 else b.pop() + up)
            b.append(w * left[j + 1 - m])
    out = np.zeros(x.shape + c.shape[1:])
    for a, ba in enumerate(b):
        out += c[ell - k + a] * (ba if c.ndim == 1 else ba[:, None])
    return out


def _check_knots(t: np.ndarray) -> None:
    """Raise ``DataError`` unless ``t`` is a clamped cubic knot vector."""
    k = _DEGREE
    if t.ndim != 1 or t.size < 2 * (k + 1):
        raise DataError(f"spline knots must be a list of at least {2 * (k + 1)} numbers")
    if not np.all(np.isfinite(t)):
        raise DataError("spline knots must be finite")
    if np.any(np.diff(t) < 0):
        raise DataError("spline knots must be nondecreasing")
    # t[i] < t[i+k] for 0 < i < len - k - 1: neither end knot repeats more than
    # k+1 times and no interior knot more than k times
    if t[0] != t[k] or t[-k - 1] != t[-1] or np.any(t[k + 1 : -1] <= t[1 : -k - 1]):
        raise DataError(
            f"spline knots must be clamped: each end knot {k + 1} times, "
            f"interior knots at most {k} times"
        )


class SplineBasis:
    """Clamped cubic B-spline basis with linear extension off the knot span."""

    kind = "spline1d"

    def __init__(self, knots: np.ndarray):
        self.knots = np.asarray(knots, dtype=float)
        _check_knots(self.knots)
        self.n_coef = len(self.knots) - _DEGREE - 1
        self.dim = 1
        self._lo = self.knots[_DEGREE]
        self._hi = self.knots[-_DEGREE - 1]

    @classmethod
    def from_data(cls, x: np.ndarray, segments: int) -> "SplineBasis":
        x = np.asarray(x, dtype=float).ravel()
        lo, hi = float(np.min(x)), float(np.max(x))
        if not hi > lo:
            raise DataError("spline basis needs a nondegenerate input range")
        inner = np.linspace(lo, hi, segments + 1)
        knots = np.concatenate([[lo] * _DEGREE, inner, [hi] * _DEGREE])
        return cls(knots)

    def _extended(self, coef: np.ndarray, points: np.ndarray) -> np.ndarray:
        """The spline with coefficients ``coef`` on the knot span, continued
        linearly beyond either end with the slope it has there."""
        t, k = self.knots, _DEGREE
        x = _points(points, 1).ravel()
        out = np.empty(x.shape + coef.shape[1:])
        # chunks of 2**15 values keep each temporary of the recursion at 256 KB;
        # the 2k knots and 2k distances it holds throughout then take 3 MB
        step = max(1, 2**15 // (coef.shape[1] if coef.ndim > 1 else 1))
        for a in range(0, x.shape[0], step):
            part = np.clip(x[a : a + step], self._lo, self._hi)
            out[a : a + step] = _bspline(t, coef, k, part)
        # the derivative is the degree k-1 spline on t[1:-1] with these
        # coefficients (scipy's splder)
        dt = t[k + 1 : -1] - t[1 : -k - 1]
        dcoef = (coef[1:] - coef[:-1]) * k / (dt if coef.ndim == 1 else dt[:, None])
        for off, end in ((x < self._lo, self._lo), (x > self._hi, self._hi)):
            if off.any():
                slope = _bspline(t[1:-1], dcoef, k - 1, np.array([end]))[0]
                out[off] += np.multiply.outer(x[off] - end, slope)
        return out

    def design(self, points: np.ndarray) -> np.ndarray:
        return self._extended(np.eye(self.n_coef), points)

    def predict(self, coef: np.ndarray, points: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # see _TableBasis.predict
            return self._extended(np.asarray(coef, dtype=float), points)

    def roughness(self) -> np.ndarray:
        d2 = np.diff(np.eye(self.n_coef), n=2, axis=0)
        return d2.T @ d2

    def to_dict(self) -> dict:
        return {"kind": self.kind, "knots": self.knots.tolist()}


def _columns(x: np.ndarray) -> np.ndarray:
    """``x.T`` contiguous and zero-padded to a multiple of 4 rows, for each
    matrix of a stack (..., rows, cols).  OpenBLAS's dgemv takes a last group
    of fewer than 4 rows on another path, which can round differently;
    padded, a row's prediction keeps its bits wherever the row sits."""
    rows = x.shape[-2]
    xt = np.zeros(x.shape[:-2] + (x.shape[-1], -(-rows // 4) * 4))
    xt[..., :rows] = np.swapaxes(x, -1, -2)
    return xt


class _TableBasis:
    """Evaluation shared by rbf and poly, whose ``_table(xt)`` gives their
    values feature-major, (n_coef, rows) at the columns of a contiguous (dim,
    rows) ``xt``; intercept first, ridge roughness on the other coefficients."""

    def design(self, points: np.ndarray) -> np.ndarray:
        """The (rows, n_coef) design: ``_table`` in C order."""
        xt = _points(points, self.dim).T.copy()
        return np.ascontiguousarray(self._table(xt).T)

    def predict(self, coef: np.ndarray, points: np.ndarray) -> np.ndarray:
        """``coef @ _table(block.T)`` over blocks of ``_BLOCK_ROWS`` rows: a
        block's table stays in cache, and its ufuncs run along whole rows.
        Values that overflow come out as inf or NaN without a numpy warning:
        the caller's check of its sample (``data._values``) reports them."""
        x = _points(points, self.dim)
        coef = np.asarray(coef, dtype=float)
        out = np.empty(x.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(0, x.shape[0], _BLOCK_ROWS):
                part = x[a : a + _BLOCK_ROWS]
                out[a : a + _BLOCK_ROWS] = (coef @ self._table(_columns(part)))[: len(part)]
        return out

    def roughness(self) -> np.ndarray:
        r = np.eye(self.n_coef)
        r[0, 0] = 0.0  # intercept unpenalized
        return r


class RbfBasis(_TableBasis):
    """Intercept plus Gaussian bumps exp(-|x - c_j|^2 / (2 l^2))."""

    kind = "rbf"

    def __init__(self, centers: np.ndarray, lengthscale: float):
        (self.centers,) = _rows(centers)
        if not (np.isfinite(lengthscale) and lengthscale > 0):
            raise DataError(f"lengthscale must be positive, got {lengthscale}")
        self.lengthscale = float(lengthscale)
        self.n_coef = self.centers.shape[0] + 1
        self.dim = self.centers.shape[1]

    @classmethod
    def from_data(cls, points: np.ndarray, count: int) -> "RbfBasis":
        uniq = np.unique(_points(points), axis=0)
        if uniq.shape[0] < 2:
            raise DataError("rbf basis needs at least two distinct points")
        count = min(count, uniq.shape[0])
        # deterministic spread: lexicographic order, evenly strided subset
        order = np.lexsort(uniq.T[::-1])
        idx = np.round(np.linspace(0, uniq.shape[0] - 1, count)).astype(int)
        centers = uniq[order][np.unique(idx)]
        diff = centers[:, None, :] - centers[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        pos = d2[d2 > 0]
        return cls(centers, float(np.sqrt(np.median(pos))))

    def _table(self, xt: np.ndarray) -> np.ndarray:
        """Values (n_coef, rows) at the columns of contiguous ``xt`` (dim,
        rows).  Squared distances add up in order of dimension, as np.sum
        does over a trailing axis of d < 8 (from 8 on it keeps 8 sums)."""
        out = np.empty((self.n_coef, xt.shape[1]))
        out[0], out[1:] = 1.0, 0.0
        d2, diff = out[1:], np.empty_like(out[1:])
        for j in range(self.dim):
            np.subtract(xt[j], self.centers[:, j, None], out=diff)
            diff *= diff
            d2 += diff
        d2 /= -2.0 * self.lengthscale**2
        np.exp(d2, out=d2)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "centers": self.centers.tolist(),
            "lengthscale": self.lengthscale,
        }


class PolyBasis(_TableBasis):
    """Raw monomials of total degree <= degree; intercept first."""

    kind = "poly"

    def __init__(self, degree: int, dim: int):
        self.degree = int(degree)
        self.dim = int(dim)
        powers = [
            p
            for deg in range(self.degree + 1)
            for p in sorted(
                itertools.combinations_with_replacement(range(self.dim), deg)
            )
        ]
        mat = np.zeros((len(powers), self.dim), dtype=int)
        for i, combo in enumerate(powers):
            for j in combo:
                mat[i, j] += 1
        self.powers = mat
        self.n_coef = mat.shape[0]
        # column k > 0 is column parent * x_j, j its last factor
        index = {p: i for i, p in enumerate(powers)}
        self._parents = [(index[p[:-1]], p[-1]) for p in powers[1:]]

    def _table(self, xt: np.ndarray) -> np.ndarray:
        """Monomials (n_coef, rows) at the columns of contiguous ``xt`` (dim,
        rows): each the left-to-right product of its factors x_j in order of
        j, from 1.0, correctly rounded at each step; no pow()."""
        out = np.empty((self.n_coef, xt.shape[1]))
        out[0] = 1.0
        for k, (parent, j) in enumerate(self._parents, start=1):
            np.multiply(out[parent], xt[j], out=out[k])
        return out

    def to_dict(self) -> dict:
        return {"kind": self.kind, "degree": self.degree, "dim": self.dim}


def build_basis(family: FunctionFamily, points: np.ndarray):
    """Construct the data-dependent basis for ``family`` on ``points``."""
    x = _points(points)
    if family.kind == "spline1d":
        if x.shape[1] != 1:
            raise DomainError("spline1d requires 1-d inputs")
        return SplineBasis.from_data(x.ravel(), family.size)
    if family.kind == "rbf":
        return RbfBasis.from_data(x, family.size)
    return PolyBasis(family.size, x.shape[1])


def basis_from_dict(obj: dict):
    kind = obj.get("kind")
    if kind == "spline1d":
        return SplineBasis(np.asarray(obj["knots"], dtype=float))
    if kind == "rbf":
        return RbfBasis(np.asarray(obj["centers"], dtype=float), obj["lengthscale"])
    if kind == "poly":
        return PolyBasis(obj["degree"], obj["dim"])
    raise DataError(f"unknown basis kind {kind!r}")


@dataclass
class SurrogateModel:
    """Fitted linear-basis surrogate; call it on points to predict."""

    family: FunctionFamily
    basis: object
    coef: np.ndarray
    train_size: int
    cv_score: float | None = None

    def __call__(self, points) -> np.ndarray:
        return self.basis.predict(self.coef, points)


@dataclass
class ImprovedSurrogate:
    """Base surrogate plus residual correction: m_hat(x) + m_eps(x)."""

    base: SurrogateModel
    residual: SurrogateModel
    weight: float | None = None

    def __call__(self, points) -> np.ndarray:
        out = self.base(points)
        with np.errstate(over="ignore", invalid="ignore"):  # see _TableBasis.predict
            return np.add(out, self.residual(points), out=out)


_SINGULAR = (
    "singular least-squares system with zero penalty; "
    "use a positive penalty weight or a smaller basis"
)


class _System:
    """The penalized least-squares system (gram + penalty R) c = rhs of one
    fit on one basis: the design ``b1`` of the fitted rows with targets ``y``,
    optionally the design ``b2`` of zero-anchored extra rows, and the
    b1^T b1, b1^T y and b2^T b2 that every (weight, penalty) pair shares.
    Every fit in this module, the GCV and CV grids included, takes its
    coefficients from :meth:`solve` and GCV its hat-matrix trace from
    :meth:`hat_trace`: the one place to change the solver.

    ``b1`` and ``y`` may carry leading stack axes, (..., rows, n_coef) and
    (..., rows), for fits that share the basis and ``b2`` (the bootstrap
    replicates); :meth:`solve` then gives (..., n_coef).  numpy's matmul,
    svd and solve run the same BLAS/LAPACK call on each stacked matrix as on
    a lone one, so a stacked fit's coefficients equal the lone fit's.
    """

    def __init__(self, basis, b1, y, b2=None, g2=None):
        self.basis, self.b1, self.b2, self.rough = basis, b1, b2, basis.roughness()
        b1t = np.swapaxes(b1, -1, -2)
        self.g1, self.r1 = b1t @ b1, (b1t @ y[..., None])[..., 0]
        self.g2 = b2.T @ b2 if g2 is None and b2 is not None else g2

    @classmethod
    def on_data(cls, family: FunctionFamily, inputs, y, extra=None) -> "_System":
        """The system of one basis built on ``inputs`` plus the ``extra`` rows."""
        basis = build_basis(family, inputs if extra is None else np.vstack([inputs, extra]))
        b2 = None if extra is None else basis.design(extra)
        return cls(basis, basis.design(inputs), y, b2)

    def rows(self, idx, y) -> "_System":
        """Rows ``idx`` of ``b1`` (or a stack of row sets) fit to ``y``; shares ``b2``."""
        return type(self)(self.basis, self.b1[idx], y, self.b2, self.g2)

    def predict_rows(self, inputs, coef, idx) -> np.ndarray:
        """``basis.predict(coef[i], inputs[idx[i]])`` bit for bit, for coef
        (k, n_coef) and idx (k or 1, m), where ``b1`` is the design of
        ``inputs``: predict's padded product of the gathered design rows, or
        for a spline, whose design product rounds otherwise, predict's own."""
        if isinstance(self.basis, SplineBasis):
            return np.take_along_axis(self.basis.predict(coef.T, inputs).T, idx, axis=1)
        return (coef[:, None, :] @ _columns(self.b1[idx]))[:, 0, : idx.shape[-1]]

    def normal(self, w: float = 1.0):
        """(gram, rhs): plain mean squares, or weight ``w`` on the fitted
        rows and 1 - w on the zero anchor."""
        n = self.b1.shape[-2]
        if self.b2 is None:
            return self.g1 / n, self.r1 / n
        n1 = self.b2.shape[0]
        return (w / n) * self.g1 + ((1.0 - w) / n1) * self.g2, (w / n) * self.r1

    def solve(self, penalty: float, w: float = 1.0) -> np.ndarray:
        """Coefficients at ``penalty`` (and anchor weight ``w``), with rank
        diagnostics at zero penalty; a stack fails if any of its fits does."""
        gram, rhs = self.normal(w)
        b, (n, p) = self.b1, self.b1.shape[-2:]
        if penalty == 0.0 and self.b2 is None and n < p:
            raise InsufficientDataError(
                f"{n} rows cannot determine {p} coefficients "
                "without a positive penalty"
            )
        if penalty == 0.0 and self.b2 is not None:
            s, s1 = np.sqrt(w / n), np.sqrt((1.0 - w) / self.b2.shape[0])
            anchor = np.broadcast_to(s1 * self.b2, b.shape[:-2] + self.b2.shape)
            b = np.concatenate([s * b, anchor], axis=-2)
        if penalty == 0.0 and np.any(np.linalg.matrix_rank(b) < p):
            raise RankDeficiencyError(_SINGULAR)
        try:
            # an explicit trailing axis: numpy 2 reads a 2-d rhs as one matrix
            return np.linalg.solve(gram + penalty * self.rough, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            if penalty == 0.0:
                raise RankDeficiencyError(_SINGULAR) from exc
            raise ConditioningError(f"normal equations unsolvable: {exc}") from exc

    def hat_trace(self, penalty: float) -> float:
        """Trace of the hat matrix B (gram + penalty R)^-1 B^T / n of a plain
        fit: its effective number of parameters."""
        gram, _ = self.normal()
        return float(np.trace(np.linalg.solve(gram + penalty * self.rough, gram)))

    def penalty_scale(self) -> float:
        """trace(B^T B / rows) / trace(R) over every row of the system."""
        tr_r = float(np.trace(self.rough))
        if tr_r <= 0:
            return 1.0
        b = self.b1 if self.b2 is None else np.vstack([self.b1, self.b2])
        return max(float(np.trace(b.T @ b / b.shape[0])) / tr_r, np.finfo(float).tiny)


def fit_penalized_ls(family: FunctionFamily, data: PairedDataset) -> SurrogateModel:
    """Fit the family to (inputs, outputs) by penalized least squares."""
    fit = _System.on_data(family, data.inputs, data.outputs)
    return SurrogateModel(
        family=family, basis=fit.basis, coef=fit.solve(family.penalty), train_size=data.n
    )


def _penalty_grid(grid, name: str) -> list[float]:
    """``grid`` sorted; any value that is not finite and >= 0 raises."""
    grid = sorted(float(p) for p in grid)
    if not all(0.0 <= p < np.inf for p in grid):
        raise DomainError(f"the {name} must hold finite values >= 0, got {grid}")
    return grid


def fit_with_gcv(family: FunctionFamily, data: PairedDataset, grid=None):
    """Fit with the penalty weight chosen by generalized cross validation.

    Returns the fitted model; the selected weight sits in
    ``model.family.penalty`` and ``model.cv_score`` holds its GCV value.
    Ties prefer the smaller penalty.  A grid point that :meth:`_System.solve`
    rejects (zero penalty on a rank-deficient design, say) is skipped.
    """
    fit = _System.on_data(family, data.inputs, data.outputs)
    n = data.n
    if grid is None:
        grid = fit.penalty_scale() * np.logspace(-8, 2, 21)
    grid = _penalty_grid(grid, "GCV penalty grid")
    if not grid:
        raise DomainError("the GCV penalty grid must not be empty")
    best = None
    for pen in grid:
        try:
            coef = fit.solve(pen)
            tr_h = fit.hat_trace(pen)
        except (InsufficientDataError, RankDeficiencyError, ConditioningError):
            continue
        denom = 1.0 - tr_h / n
        if denom <= 1e-9:
            continue
        score = float(np.mean((data.outputs - fit.b1 @ coef) ** 2)) / denom**2
        if best is None or score < best[0]:
            best = (score, pen, coef)
    if best is None:
        raise ConditioningError("GCV failed on every grid point")
    score, pen, coef = best
    return SurrogateModel(
        family=family.with_penalty(pen),
        basis=fit.basis,
        coef=coef,
        train_size=n,
        cv_score=score,
    )


def compute_residuals(model, experimental: PairedDataset) -> np.ndarray:
    """eps_i = Y_i - m_hat(X_i) on experimental data."""
    if experimental.kind != "experimental":
        raise DataError(
            f"residuals are defined on experimental data, got kind "
            f"{experimental.kind!r}"
        )
    return _values(experimental.outputs - model(experimental.inputs), "residuals")


def _extra_points(extra_inputs, dim: int) -> np.ndarray:
    extra = _points(extra_inputs, dim)
    if extra.shape[0] < 1:
        raise DataError("weighted fit needs at least one extra input point")
    return extra


def _check_weight(weight) -> float:
    w = float(weight)
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"weight must lie in [0, 1], got {weight}")
    return w


DEFAULT_W_GRID = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))


@dataclass
class WeightSelection:
    """Outcome of the joint (weight, penalty) cross validation."""

    weight: float
    penalty: float
    cv_risk: float
    model: SurrogateModel
    table: list = field(default_factory=list)


def select_weight_and_penalty(
    family: FunctionFamily,
    experimental: PairedDataset,
    residuals,
    extra_inputs,
    w_grid=None,
    penalty_grid=None,
    folds: int = 5,
    seed=0,
) -> WeightSelection:
    """Joint k-fold CV over weight and penalty grids.

    The empirical L2 risk is computed on held-out experimental points only;
    the extra inputs always participate in the anchoring term.  Ties prefer
    the smaller weight, then the smaller penalty.
    """
    eps = _values(residuals, "residuals")
    n = experimental.n
    if eps.shape[0] != n:
        raise DataError(f"{eps.shape[0]} residuals for {n} rows")
    folds = _count(folds, "folds", least=2)
    if n < folds:
        raise InsufficientDataError(f"{n} experimental rows cannot fill {folds} folds")
    if w_grid is None:
        w_grid = DEFAULT_W_GRID
    w_grid = sorted(_check_weight(w) for w in w_grid)
    x = experimental.inputs
    extra = _extra_points(extra_inputs, experimental.dim)
    # one full-data system scales the default grid (zero, then a geometric
    # sweep), gives every fold its rows and fits the final model
    full = _System.on_data(family, x, eps, extra)
    if penalty_grid is None:
        penalty_grid = [0.0, *(full.penalty_scale() * np.logspace(-8, 1, 10))]
    penalty_grid = _penalty_grid(penalty_grid, "CV penalty grid")
    perm = make_rng(seed).permutation(n)

    # a cell's squared errors add up in fold order; it fails (scored inf,
    # coefficients 0) at its first fold whose system cannot be solved
    cells = [(w, pen) for w in w_grid for pen in penalty_grid]
    if not cells:
        raise DomainError("the weight and penalty grids must not be empty")
    sse = np.zeros(len(cells))
    for hold in np.array_split(perm, folds):
        train = np.setdiff1d(perm, hold, assume_unique=True)
        fit = full.rows(train, eps[train])
        coef = np.zeros((len(cells), full.basis.n_coef))
        for i, (w, pen) in enumerate(cells):
            if sse[i] < np.inf:
                try:
                    coef[i] = fit.solve(pen, w)
                except (RankDeficiencyError, ConditioningError):
                    sse[i] = np.inf
        for i, err in enumerate(full.predict_rows(x, coef, hold[None]) - eps[hold]):
            sse[i] += err @ err

    table = [(*cell, float(t) / n) for cell, t in zip(cells, sse)]
    w, pen, score = min(table, key=lambda row: row[2])  # first minimum wins ties
    if not np.isfinite(score):
        raise ConditioningError("every (weight, penalty) combination failed")
    model = SurrogateModel(
        family.with_penalty(pen), full.basis, full.solve(pen, w), train_size=n,
        cv_score=score,
    )
    return WeightSelection(weight=w, penalty=pen, cv_risk=score, model=model, table=table)


def improved_surrogate(base, residual_model, weight=None) -> ImprovedSurrogate:
    """Combine base and residual models; evaluation is their sum."""
    return ImprovedSurrogate(base=base, residual=residual_model, weight=weight)


# ---------------------------------------------------------------------------
# model (de)serialization


def model_to_dict(model) -> dict:
    if isinstance(model, ImprovedSurrogate):
        return {
            "type": "improved",
            "base": model_to_dict(model.base),
            "residual": model_to_dict(model.residual),
            "weight": model.weight,
        }
    return {
        "type": "surrogate",
        "family": {
            "kind": model.family.kind,
            "size": model.family.size,
            "penalty": model.family.penalty,
        },
        "basis": model.basis.to_dict(),
        "coef": np.asarray(model.coef, dtype=float).tolist(),
        "train_size": model.train_size,
        "cv_score": model.cv_score,
    }


def model_from_dict(obj: dict):
    kind = obj.get("type")
    if kind == "improved":
        return ImprovedSurrogate(
            base=model_from_dict(obj["base"]),
            residual=model_from_dict(obj["residual"]),
            weight=obj.get("weight"),
        )
    if kind != "surrogate":
        raise DataError(f"unknown model type {kind!r}")
    fam = obj["family"]
    basis = basis_from_dict(obj["basis"])
    coef = np.asarray(obj["coef"], dtype=float)
    if coef.shape != (basis.n_coef,):
        raise DataError(
            f"{coef.size} coefficients for a {basis.kind} basis "
            f"of {basis.n_coef} functions"
        )
    return SurrogateModel(
        family=FunctionFamily(fam["kind"], fam["size"], fam["penalty"]),
        basis=basis,
        coef=_values(coef, "coefficients"),
        train_size=int(obj.get("train_size", 0)),
        cv_score=obj.get("cv_score"),
    )


def save_model(model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path):
    try:
        with open(path) as fh:
            return model_from_dict(json.load(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    # wrong JSON types and bad values (JSONDecodeError and DomainError are
    # ValueErrors), and what the model's own checks reject: knots,
    # coefficient count, centres
    except (DataError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from exc
