import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import uqim.surrogate
from uqim.data import InputSample, PairedDataset
from uqim.errors import (
    ConditioningError,
    DataError,
    DomainError,
    InsufficientDataError,
    RankDeficiencyError,
)
from uqim.randgen import make_rng
from uqim.surrogate import (
    DEFAULT_W_GRID,
    FunctionFamily,
    PolyBasis,
    RbfBasis,
    SplineBasis,
    SurrogateModel,
    build_basis,
    compute_residuals,
    fit_penalized_ls,
    _System,
    fit_with_gcv,
    improved_surrogate,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    select_weight_and_penalty,
)
from uqim.synthetic import make_hidim_like, make_mafds_like


def _data(x, y, kind="simulated"):
    return PairedDataset(inputs=np.asarray(x, float)[:, None], outputs=y, kind=kind)


def _anchored_fit(family, exp, eps, extra, w):
    """The residual fit of ``eps`` at ``exp``'s inputs, anchored to zero on
    the ``extra`` points with weight 1 - w: the system that
    select_weight_and_penalty solves for its cells and its final model."""
    fit = _System.on_data(family, exp.inputs, np.asarray(eps, dtype=float), extra)
    return SurrogateModel(family, fit.basis, fit.solve(family.penalty, w), train_size=exp.n)


def penalized_objective(model: SurrogateModel, points, targets) -> float:
    """The fitted criterion: mean squared error plus penalty term."""
    resid = model(points) - np.asarray(targets, dtype=float).ravel()
    pen = model.family.penalty * float(
        model.coef @ model.basis.roughness() @ model.coef
    )
    return float(np.mean(resid**2) + pen)


def test_poly_line_exact():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    data = _data(x, 2.0 * x)
    model = fit_penalized_ls(FunctionFamily("poly", 1), data)
    assert np.allclose(model.coef, [0.0, 2.0], atol=1e-12)
    assert np.allclose(model(x), 2.0 * x, atol=1e-12)


def test_constant_data_constant_fit():
    x = np.linspace(0.0, 1.0, 7)
    data = _data(x, np.full(7, 3.25))
    for kind, size in [("poly", 0), ("poly", 2), ("spline1d", 3)]:
        model = fit_penalized_ls(FunctionFamily(kind, size, penalty=1e-12), data)
        assert np.allclose(model(x), 3.25, atol=1e-6)


def test_spline_gcv_recovers_sine():
    x = np.linspace(0.0, np.pi, 20)
    model = fit_with_gcv(FunctionFamily("spline1d", 8), _data(x, np.sin(x)))
    t = np.linspace(0.0, np.pi, 400)
    assert np.max(np.abs(model(t) - np.sin(t))) < 0.05
    assert model.cv_score is not None and model.family.penalty >= 0.0


def test_gcv_ties_prefer_smaller_penalty():
    # constant data: every penalty fits exactly, grid order must not matter
    x = np.linspace(0.0, 1.0, 9)
    data = _data(x, np.zeros(9))
    grid = [1.0, 1e-3, 1e2]
    model = fit_with_gcv(FunctionFamily("poly", 1), data, grid=grid)
    assert model.family.penalty == 1e-3


def test_gcv_without_roughness_scales_its_grid_by_one():
    # poly 0 has no roughness (trace R = 0): the default grid is
    # logspace(-8, 2, 21) unscaled, every point fits the mean with hat
    # trace 1, and the tie rule keeps the first
    x = np.linspace(0.0, 1.0, 7)
    y = np.sin(3.0 * x)
    model = fit_with_gcv(FunctionFamily("poly", 0), _data(x, y))
    assert model.family.penalty == np.logspace(-8, 2, 21)[0]
    assert np.allclose(model.coef, [y.mean()], rtol=1e-14, atol=0)
    assert np.isclose(model.cv_score, np.mean((y - y.mean()) ** 2) / (1 - 1 / 7) ** 2,
                      rtol=1e-12, atol=0)


def test_gcv_skips_penalties_the_solver_rejects():
    # two distinct abscissae cannot determine a quadratic without a penalty:
    # GCV skips zero, as fit_penalized_ls refuses it, and keeps the others
    x = np.repeat([1000.0, 2000.0], 4)
    data = _data(x, np.array([1.0, 1.1, 0.9, 1.05, 2.0, 2.1, 1.9, 2.05]))
    with pytest.raises(RankDeficiencyError):
        fit_penalized_ls(FunctionFamily("poly", 2), data)
    model = fit_with_gcv(FunctionFamily("poly", 2), data, grid=[0.0, 1e-6, 1e-2])
    assert model.family.penalty == 1e-6
    fixed = fit_penalized_ls(FunctionFamily("poly", 2, penalty=1e-6), data)
    assert model.coef.tobytes() == fixed.coef.tobytes()
    with pytest.raises(ConditioningError, match="every grid point"):
        fit_with_gcv(FunctionFamily("poly", 2), data, grid=[0.0])


def test_rank_deficiency_names_the_cure():
    # two distinct abscissae cannot determine a quadratic
    x = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(RankDeficiencyError, match="positive penalty"):
        fit_penalized_ls(FunctionFamily("poly", 2), _data(x, x))
    # a positive penalty makes the same system solvable
    fit_penalized_ls(FunctionFamily("poly", 2, penalty=1e-6), _data(x, x))


def test_underdetermined_without_penalty_rejected():
    data = _data([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(InsufficientDataError):
        fit_penalized_ls(FunctionFamily("poly", 3), data)
    # the zero-anchored fit checks only the rank of its stacked design, so
    # weighted CV scores such a cell inf instead of stopping
    exp = _data([0.0, 1.0], [0.0, 0.0], kind="experimental")
    for w in (1.0, 0.5):
        with pytest.raises(RankDeficiencyError, match="positive penalty"):
            _anchored_fit(FunctionFamily("poly", 3), exp, [0.0, 1.0], np.array([[0.5]]), w)


def test_compute_residuals_trivial_cases():
    x = np.array([1.0, 2.0, 3.0])
    exp = _data(x, [1.0, 2.0, 3.0], kind="experimental")
    zero = fit_penalized_ls(FunctionFamily("poly", 0), _data(x, np.zeros(3)))
    assert np.allclose(compute_residuals(zero, exp), [1.0, 2.0, 3.0], atol=1e-12)
    exact = fit_penalized_ls(FunctionFamily("poly", 1), exp)
    assert np.allclose(compute_residuals(exact, exp), 0.0, atol=1e-12)
    ident = fit_penalized_ls(
        FunctionFamily("poly", 1), _data([0.0, 4.0], [0.0, 4.0])
    )
    two = _data([1.0, 2.0], [3.0, 3.0], kind="experimental")
    assert np.allclose(compute_residuals(ident, two), [2.0, 1.0], atol=1e-12)


def test_compute_residuals_rejects_simulated():
    x = np.array([0.0, 1.0])
    sim = _data(x, x)
    model = fit_penalized_ls(FunctionFamily("poly", 1), sim)
    with pytest.raises(Exception, match="experimental"):
        compute_residuals(model, sim)


def test_residual_model_trivial_cases():
    x = np.linspace(0.0, 1.0, 6)
    # the residuals are the outputs of the fitted experimental set
    const = fit_penalized_ls(
        FunctionFamily("poly", 0), _data(x, np.full(6, 4.5), kind="experimental")
    )
    assert np.allclose(const(x), 4.5, atol=1e-12)
    zero = fit_penalized_ls(
        FunctionFamily("poly", 1, penalty=0.3), _data(x, np.zeros(6), kind="experimental")
    )
    assert np.allclose(zero(x), 0.0, atol=1e-12)
    lin = fit_penalized_ls(FunctionFamily("poly", 1), _data(x, 2.0 * x + 1.0, kind="experimental"))
    assert np.allclose(lin.coef, [1.0, 2.0], atol=1e-10)


def test_residual_model_single_row():
    # n=1 with a constant family and no penalty: the constant eps_1
    exp = _data([0.5], [7.5], kind="experimental")
    model = fit_penalized_ls(FunctionFamily("poly", 0), exp)
    assert np.allclose(model(np.array([0.0, 9.0])), 7.5, atol=1e-12)


def test_weighted_w1_matches_unweighted():
    rng = np.random.default_rng(1)
    x = rng.random(12)
    eps = rng.normal(size=12)
    exp = _data(x, eps, kind="experimental")
    extra = InputSample(points=rng.random(30))
    fam = FunctionFamily("poly", 2, penalty=1e-4)
    plain = fit_penalized_ls(fam, exp)
    weighted = _anchored_fit(fam, exp, eps, extra.points, 1.0)
    assert np.allclose(weighted.coef, plain.coef, atol=1e-8)


def test_weighted_w0_is_zero():
    x = np.linspace(0.0, 1.0, 8)
    exp = _data(x, np.zeros(8), kind="experimental")
    extra = InputSample(points=np.linspace(-0.2, 1.2, 20))
    model = _anchored_fit(FunctionFamily("poly", 1), exp, np.ones(8), extra.points, 0.0)
    assert np.allclose(model(np.linspace(-1.0, 2.0, 50)), 0.0, atol=1e-12)


def test_weighted_half_constant_halves():
    x = np.linspace(0.0, 1.0, 5)
    exp = _data(x, np.zeros(5), kind="experimental")
    extra = InputSample(points=x)  # co-located, N1 = n
    c = 3.0
    model = _anchored_fit(FunctionFamily("poly", 0), exp, np.full(5, c), extra.points, 0.5)
    assert np.allclose(model(x), c / 2.0, atol=1e-12)


def test_weighted_validation():
    x = np.array([0.0, 1.0])
    exp = _data(x, x, kind="experimental")
    extra = InputSample(points=[0.5])
    fam = FunctionFamily("poly", 0)
    with pytest.raises(DomainError, match="weight"):
        select_weight_and_penalty(fam, exp, [0.0, 0.0], extra, w_grid=[1.5], folds=2)
    with pytest.raises(DataError, match="3 residuals for 2 rows"):
        select_weight_and_penalty(fam, exp, [0.0, 0.0, 0.0], extra, folds=2)
    with pytest.raises(DataError, match="extra input point"):
        select_weight_and_penalty(fam, exp, [0.0, 0.0], np.empty((0, 1)), folds=2)


def test_select_single_weight():
    rng = np.random.default_rng(2)
    x = rng.random(10)
    exp = _data(x, np.zeros(10), kind="experimental")
    extra = InputSample(points=rng.random(25))
    sel = select_weight_and_penalty(
        FunctionFamily("poly", 1),
        exp,
        rng.normal(size=10),
        extra,
        w_grid=[0.3],
        seed=0,
    )
    assert sel.weight == 0.3
    assert sel.model.family.penalty == sel.penalty


def test_select_representable_picks_zero_penalty():
    x = np.linspace(0.0, 1.0, 10)
    exp = _data(x, np.zeros(10), kind="experimental")
    extra = InputSample(points=np.linspace(0.0, 1.0, 15))
    sel = select_weight_and_penalty(
        FunctionFamily("poly", 1),
        exp,
        2.0 * x + 1.0,
        extra,
        w_grid=[1.0],
        penalty_grid=[0.0, 1e-3, 1.0],
        seed=0,
    )
    assert sel.penalty == 0.0
    assert sel.cv_risk < 1e-20


def test_select_rejects_too_few_rows():
    x = np.linspace(0.0, 1.0, 4)
    exp = _data(x, np.zeros(4), kind="experimental")
    extra = InputSample(points=[0.5])
    with pytest.raises(InsufficientDataError):
        select_weight_and_penalty(
            FunctionFamily("poly", 0), exp, np.zeros(4), extra, folds=5, seed=0
        )
    with pytest.raises(DomainError):
        select_weight_and_penalty(
            FunctionFamily("poly", 0), exp, np.zeros(4), extra, folds=1, seed=0
        )


@pytest.mark.parametrize("grids", [{"w_grid": []}, {"penalty_grid": []}],
                         ids=["weight", "penalty"])
def test_select_rejects_an_empty_grid(grids):
    x = np.linspace(0.0, 1.0, 10)
    exp = _data(x, np.zeros(10), kind="experimental")
    with pytest.raises(DomainError, match="grids must not be empty"):
        select_weight_and_penalty(
            FunctionFamily("poly", 1), exp, np.zeros(10), InputSample(points=[0.5]),
            seed=0, **grids,
        )


def test_gcv_rejects_an_empty_grid():
    x = np.linspace(0.0, 1.0, 20)
    with pytest.raises(DomainError, match="grid must not be empty"):
        fit_with_gcv(FunctionFamily("poly", 1), _data(x, np.sin(x)), grid=[])


def _no_solve(*args):
    raise AssertionError("a system was solved")


def test_gcv_rejects_a_negative_penalty_before_it_fits(monkeypatch):
    x = np.linspace(0.0, 1.0, 20)
    monkeypatch.setattr(_System, "solve", _no_solve)
    with pytest.raises(DomainError, match=r"GCV penalty grid must hold finite values >= 0"):
        fit_with_gcv(FunctionFamily("spline1d", 8), _data(x, np.sin(x)), grid=[-1e-9, 1e-3])


def test_select_rejects_a_negative_penalty_before_it_fits(monkeypatch):
    x = np.linspace(0.0, 1.0, 10)
    exp = _data(x, np.zeros(10), kind="experimental")
    monkeypatch.setattr(_System, "solve", _no_solve)
    with pytest.raises(DomainError, match=r"CV penalty grid must hold finite values >= 0"):
        select_weight_and_penalty(
            FunctionFamily("poly", 1), exp, np.zeros(10), InputSample(points=[0.5]),
            penalty_grid=[-1e-3, 1e-3], seed=0,
        )


@pytest.mark.parametrize("family, dim", [
    (FunctionFamily("spline1d", 6), 1),
    (FunctionFamily("rbf", 8), 1),
    (FunctionFamily("rbf", 20), 5),
    (FunctionFamily("poly", 3), 1),
    (FunctionFamily("poly", 2), 5),
], ids=["spline1d_1d", "rbf_1d", "rbf_5d", "poly_1d", "poly_5d"])
def test_held_out_predictions_equal_the_model_bit_for_bit(family, dim):
    # CV gathers one row set for a stack of cells, the bootstrap one row set
    # per replicate; both must give each model's own predictions.  The basis
    # spans x < 0.7 only, so a spline also predicts rows off its span
    rng = np.random.default_rng(31)
    x = rng.random((40, dim))
    basis = build_basis(family, x[x[:, 0] < 0.7])
    full = _System(basis, basis.design(x), np.zeros(40))
    coef = rng.normal(size=(7, basis.n_coef))
    for idx in (rng.permutation(40)[None, :13], rng.integers(0, 40, size=(7, 13))):
        pred = full.predict_rows(x, coef, idx)
        assert pred.shape == (7, 13)
        for i in range(7):
            model = SurrogateModel(family, basis, coef[i], train_size=40)
            assert np.array_equal(pred[i], model(x[idx[i % idx.shape[0]]]))


def test_select_scores_a_fold_on_one_distinct_point_as_failed_cells():
    # at seed 8 both x = 1 rows are held out together, so one fold trains on
    # a single distinct point.  The basis comes from all rows, so that fold
    # is scored like the others: without a penalty no fold's two distinct
    # points fix the 3 rbf coefficients, so the 11 zero-penalty cells score
    # inf, and the penalized cells give a finite selection
    x = np.array([0.0] * 8 + [1.0] * 2)
    exp = _data(x, np.zeros(10), kind="experimental")
    sel = select_weight_and_penalty(
        FunctionFamily("rbf", 3), exp, np.zeros(10), InputSample(points=[[0.0]]),
        seed=8,
    )
    failed = [(w, pen) for w, pen, score in sel.table if not np.isfinite(score)]
    assert len(sel.table) == 121
    assert failed == [(w, 0.0) for w in DEFAULT_W_GRID]
    assert np.isfinite(sel.cv_risk) and sel.penalty > 0.0


def test_select_deterministic_per_seed():
    rng = np.random.default_rng(5)
    x = rng.random(10)
    eps = rng.normal(size=10)
    exp = _data(x, np.zeros(10), kind="experimental")
    extra = InputSample(points=rng.random(20))
    fam = FunctionFamily("poly", 1)
    grid = [0.0, 1e-3, 0.1]
    a = select_weight_and_penalty(fam, exp, eps, extra, penalty_grid=grid, seed=9)
    b = select_weight_and_penalty(fam, exp, eps, extra, penalty_grid=grid, seed=9)
    assert (a.weight, a.penalty, a.cv_risk) == (b.weight, b.penalty, b.cv_risk)


def test_pure_noise_prefers_shrinkage():
    # under pure-noise residuals the anchored fits should usually win CV
    wins = 0
    reps = 100
    grid = [0.0, 1e-4, 1e-2, 1.0]
    for rep in range(reps):
        rng = np.random.default_rng(1000 + rep)
        x = rng.random(10)
        exp = _data(x, np.zeros(10), kind="experimental")
        eps = rng.normal(size=10)
        extra = InputSample(points=rng.random(40))
        sel = select_weight_and_penalty(
            FunctionFamily("poly", 1),
            exp,
            eps,
            extra,
            penalty_grid=grid,
            seed=rep,
        )
        wins += sel.weight < 1.0
    assert wins >= 0.8 * reps


def test_fits_solve_the_documented_normal_equations_exactly():
    # the operation order that fixed-seed results rest on, for the plain fit
    # and the zero-anchored one
    rng = np.random.default_rng(12)
    x = rng.random(20)
    eps = np.cos(3.0 * x) + 0.1 * rng.normal(size=20)
    exp = _data(x, eps, kind="experimental")
    extra = rng.random(35)[:, None]
    w, n, n1 = 0.7, 20, 35
    for fam in [
        FunctionFamily("spline1d", 5, penalty=1e-4),
        FunctionFamily("poly", 3, penalty=1e-6),
        FunctionFamily("rbf", 7, penalty=1e-5),
    ]:
        plain = fit_penalized_ls(fam, exp)
        b = plain.basis.design(exp.inputs)
        a = b.T @ b / n + fam.penalty * plain.basis.roughness()
        assert np.array_equal(plain.coef, np.linalg.solve(a, b.T @ eps / n))
        model = _anchored_fit(fam, exp, eps, extra, w)
        b1, b2 = model.basis.design(exp.inputs), model.basis.design(extra)
        gram = (w / n) * (b1.T @ b1) + ((1.0 - w) / n1) * (b2.T @ b2)
        a = gram + fam.penalty * model.basis.roughness()
        assert np.array_equal(model.coef, np.linalg.solve(a, (w / n) * (b1.T @ eps)))


def _weighted_cv_oracle(family, exp, eps, extra, w_grid, penalty_grid, folds, seed):
    """The CV table cell by cell: one full weighted fit per (w, pen, fold), on
    the basis of all rows plus the extra rows, scored with the model."""
    perm = make_rng(seed).permutation(exp.n)
    parts = np.array_split(perm, folds)
    basis = build_basis(family, np.vstack([exp.inputs, extra]))
    b2 = basis.design(extra)
    table = []
    for w in sorted(w_grid):
        for pen in sorted(penalty_grid):
            sse, held = 0.0, 0
            for hold in parts:
                train = np.setdiff1d(perm, hold, assume_unique=True)
                fit = _System(basis, basis.design(exp.inputs[train]), eps[train], b2)
                try:
                    model = SurrogateModel(family.with_penalty(pen), basis,
                                           fit.solve(pen, w), train_size=train.size)
                except (RankDeficiencyError, ConditioningError):
                    sse = np.inf
                    break
                err = model(exp.inputs[hold]) - eps[hold]
                sse += float(err @ err)
                held += hold.size
            table.append((w, pen, sse / held if np.isfinite(sse) else np.inf))
    return table


@pytest.mark.parametrize("family", [
    FunctionFamily("spline1d", 12),
    FunctionFamily("rbf", 20),
    FunctionFamily("poly", 9),
])
def test_weighted_cv_table_matches_oracle(family):
    # 8 training rows per fold cannot fix 10+ coefficients: the w = 1,
    # pen = 0 cells fail (inf) while anchored or penalized cells fit
    rng = np.random.default_rng(4)
    x = rng.random(10)
    exp = _data(x, np.zeros(10), kind="experimental")
    eps = np.sin(4.0 * x) + 0.1 * rng.normal(size=10)
    extra = rng.random(30)[:, None]
    w_grid = [0.0, 0.25, 0.5, 0.9, 1.0]
    grid = [0.0, 1e-6, 1e-3, 0.1]
    sel = select_weight_and_penalty(family, exp, eps, extra, w_grid=w_grid,
                                    penalty_grid=grid, seed=3)
    oracle = _weighted_cv_oracle(family, exp, eps, extra, w_grid, grid, 5, 3)
    assert sel.table == oracle
    assert (1.0, 0.0, np.inf) in sel.table
    assert sum(np.isfinite(score) for _, _, score in sel.table) > len(grid)


@pytest.mark.parametrize("family", [FunctionFamily("rbf", 20), FunctionFamily("poly", 2)])
def test_weighted_cv_table_matches_oracle_5d(family):
    # the raw-scale 5-d field law with the default grids
    system = make_hidim_like(bias_kind="linear")
    exp = system.draw_experiment(50, seed=1)
    sim = system.draw_simulation(200, seed=2)
    eps = compute_residuals(fit_with_gcv(FunctionFamily("poly", 2), sim), exp)
    sel = select_weight_and_penalty(family, exp, eps, sim.inputs, seed=11)
    grid = [p for _, p, _ in sel.table[:11]]
    oracle = _weighted_cv_oracle(family, exp, eps, sim.inputs,
                                 [w for w, _, _ in sel.table[::11]], grid, 5, 11)
    assert sel.table == oracle


def _old_default_penalty_grid(family, inputs, extra):
    """The default weighted-CV penalty grid from its formula: one basis and
    design of all rows, scaled by trace(b^T b / rows) / trace(R)."""
    allpts = np.vstack([inputs, extra])
    basis = build_basis(family, allpts)
    b = basis.design(allpts)
    scale = float(np.trace(b.T @ b / b.shape[0])) / float(np.trace(basis.roughness()))
    return [0.0, *(scale * np.logspace(-8, 1, 10))]


@pytest.mark.parametrize("family, dim", [
    (FunctionFamily("spline1d", 8), 1),
    (FunctionFamily("rbf", 12), 1),
    (FunctionFamily("poly", 2), 1),
    (FunctionFamily("rbf", 20), 5),
    (FunctionFamily("poly", 2), 5),
], ids=["spline1d_1d", "rbf_1d", "poly_1d", "rbf_5d", "poly_5d"])
def test_select_fits_one_full_data_system(family, dim, monkeypatch):
    # the default grid's scale, every fold and the selected model come from
    # one system on all rows: one basis
    system = make_mafds_like() if dim == 1 else make_hidim_like(bias_kind="linear")
    exp = system.draw_experiment(50, seed=1)
    sim = system.draw_simulation(200, seed=2)
    eps = compute_residuals(fit_penalized_ls(FunctionFamily("poly", 1), sim), exp)
    calls = []

    def counted(*args):
        calls.append(args)
        return build_basis(*args)

    monkeypatch.setattr(uqim.surrogate, "build_basis", counted)
    sel = select_weight_and_penalty(family, exp, eps, sim.inputs, seed=11)
    monkeypatch.undo()
    assert len(calls) == 1
    assert [p for _, p, _ in sel.table[:11]] == _old_default_penalty_grid(
        family, exp.inputs, sim.inputs
    )
    refit = _anchored_fit(family.with_penalty(sel.penalty), exp, eps, sim.inputs, sel.weight)
    assert np.array_equal(sel.model.coef, refit.coef)
    assert sel.model.family == refit.family
    assert sel.model.cv_score == sel.cv_risk


def test_improved_surrogate_trivial_cases():
    x = np.linspace(0.0, 2.0, 6)
    base = fit_penalized_ls(FunctionFamily("poly", 1), _data(x, x))
    zero = fit_penalized_ls(FunctionFamily("poly", 0), _data(x, np.zeros(6)))
    one = fit_penalized_ls(FunctionFamily("poly", 0), _data(x, np.ones(6)))
    pts = np.random.default_rng(3).random(10)
    assert np.allclose(improved_surrogate(base, zero)(pts), base(pts), atol=1e-12)
    assert np.allclose(improved_surrogate(zero, base)(pts), base(pts), atol=1e-12)
    combo = improved_surrogate(base, one, weight=0.5)
    assert np.allclose(combo(np.array([2.0])), [3.0], atol=1e-12)
    assert combo.weight == 0.5
    # evaluation is the exact sum, bit for bit
    assert np.array_equal(combo(pts), base(pts) + one(pts))


def test_improved_dimension_mismatch():
    base1 = fit_penalized_ls(
        FunctionFamily("poly", 1), _data([0.0, 1.0], [0.0, 1.0])
    )
    data2 = PairedDataset(
        inputs=[[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        outputs=[0.0, 1.0, 2.0],
        kind="simulated",
    )
    res2 = fit_penalized_ls(FunctionFamily("poly", 1, penalty=1e-8), data2)
    with pytest.raises(DomainError, match="dimension"):
        improved_surrogate(base1, res2)(np.array([0.5]))


def test_objective_descent():
    rng = np.random.default_rng(7)
    x = rng.random(15)
    y = np.sin(3.0 * x) + 0.1 * rng.normal(size=15)
    data = _data(x, y)
    model = fit_penalized_ls(FunctionFamily("poly", 3, penalty=1e-3), data)
    fitted = penalized_objective(model, data.inputs, data.outputs)
    zero = SurrogateModel(
        family=model.family,
        basis=model.basis,
        coef=np.zeros_like(model.coef),
        train_size=data.n,
    )
    assert fitted <= penalized_objective(zero, data.inputs, data.outputs) + 1e-12
    for _ in range(100):
        rand = SurrogateModel(
            family=model.family,
            basis=model.basis,
            coef=model.coef + rng.normal(size=model.coef.shape),
            train_size=data.n,
        )
        assert fitted <= penalized_objective(rand, data.inputs, data.outputs) + 1e-12


def test_bias_correction_exact_family():
    # noise-free data, bias representable in the residual family
    def truth(x):
        return x**2 + 0.5 * x - 0.2

    xs = np.linspace(0.0, 1.0, 30)
    base = fit_penalized_ls(FunctionFamily("poly", 2), _data(xs, xs**2))
    xe = np.linspace(0.05, 0.95, 9)
    exp = _data(xe, truth(xe), kind="experimental")
    eps = compute_residuals(base, exp)
    resid = fit_penalized_ls(FunctionFamily("poly", 1), _data(xe, eps, kind="experimental"))
    improved = improved_surrogate(base, resid)
    t = np.linspace(0.0, 1.0, 200)
    assert np.max(np.abs(improved(t) - truth(t))) < 1e-6


def test_normal_equation_residual():
    rng = np.random.default_rng(11)
    x = np.sort(rng.random(25))
    y = np.cos(4.0 * x) + 0.05 * rng.normal(size=25)
    data = _data(x, y)
    for fam in [
        FunctionFamily("spline1d", 6, penalty=1e-4),
        FunctionFamily("poly", 4, penalty=1e-6),
        FunctionFamily("rbf", 8, penalty=1e-5),
    ]:
        model = fit_penalized_ls(fam, data)
        b = model.basis.design(data.inputs)
        gram = b.T @ b / data.n
        rhs = b.T @ data.outputs / data.n
        a = gram + fam.penalty * model.basis.roughness()
        resid = np.linalg.norm(a @ model.coef - rhs)
        assert resid <= 1e-8 * max(np.linalg.norm(rhs), 1e-300)


def test_spline_extends_linearly():
    x = np.linspace(0.0, 1.0, 15)
    model = fit_penalized_ls(
        FunctionFamily("spline1d", 5, penalty=1e-8), _data(x, x**3)
    )
    # beyond the knots the prediction is affine: second differences vanish
    t = np.array([1.5, 1.6, 1.7, 1.8])
    vals = model(t)
    assert np.allclose(np.diff(vals, n=2), 0.0, atol=1e-9)
    left = model(np.array([-0.5, -0.4, -0.3]))
    assert np.allclose(np.diff(left, n=2), 0.0, atol=1e-9)


def test_rbf_fit_interpolates_smooth_function():
    rng = np.random.default_rng(13)
    x = rng.random((40, 2))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2
    data = PairedDataset(inputs=x, outputs=y, kind="simulated")
    model = fit_penalized_ls(FunctionFamily("rbf", 25, penalty=1e-8), data)
    assert np.max(np.abs(model(x) - y)) < 0.05


def test_model_round_trip(tmp_path):
    x = np.linspace(0.0, 1.0, 12)
    data = _data(x, np.sin(x))
    base = fit_with_gcv(FunctionFamily("spline1d", 4), data)
    resid = fit_penalized_ls(
        FunctionFamily("poly", 1, penalty=1e-9), _data(x, 0.1 * x)
    )
    for model in [base, improved_surrogate(base, resid, weight=0.7)]:
        back = model_from_dict(model_to_dict(model))
        t = np.linspace(-0.5, 1.5, 50)
        assert np.array_equal(back(t), model(t))
        path = tmp_path / "m.json"
        save_model(model, path)
        disk = load_model(path)
        assert np.array_equal(disk(t), model(t))


# ---------------------------------------------------------------------------
# basis evaluation against reference formulas


def _scipy_extended(knots, c, x):
    """The spline through scipy.interpolate.BSpline, continued linearly."""
    from scipy.interpolate import BSpline

    lo, hi = knots[3], knots[-4]
    spline = BSpline(knots, c, 3, extrapolate=False)
    out = np.asarray(spline(np.clip(x, lo, hi)))
    for off, end in ((x < lo, lo), (x > hi, hi)):
        if off.any():
            out[off] += np.multiply.outer(x[off] - end, spline.derivative()(end))
    return out


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("segments", [1, 3, 8, 20])
def test_spline_matches_scipy_bspline(segments):
    rng = np.random.default_rng(segments)
    sample = np.r_[-0.7, 1.3, rng.uniform(-0.7, 1.3, 30)]
    basis = SplineBasis.from_data(sample, segments)
    lo, hi = basis.knots[3], basis.knots[-4]
    x = np.r_[
        basis.knots, lo, hi, -0.0, 0.0,
        np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
        np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf),
        rng.uniform(lo - 2.0, hi + 2.0, 400), lo - 1e6, hi + 1e6,
    ]
    eye = np.eye(basis.n_coef)
    assert _bitwise_equal(basis.design(x), _scipy_extended(basis.knots, eye, x))
    # at the left end every term of the second sum is -0.0, which the sum from
    # +0.0 turns into +0.0
    negative = np.r_[-0.0, -np.abs(rng.normal(size=basis.n_coef - 1))]
    for coef in (rng.normal(size=basis.n_coef), negative):
        ref = _scipy_extended(basis.knots, coef, x)
        assert _bitwise_equal(basis.predict(coef, x), ref)


def test_spline_matches_scipy_on_uneven_knots():
    # interior knots repeated up to three times, the most a clamped cubic allows
    knots = np.array([-1.0] * 4 + [-0.5, -0.5, 0.0, 0.25, 0.25, 0.25, 0.9] + [2.0] * 4)
    basis = SplineBasis(knots)
    x = np.r_[knots, np.linspace(-3.0, 4.0, 301)]
    coef = np.random.default_rng(3).normal(size=basis.n_coef)
    eye = np.eye(basis.n_coef)
    assert _bitwise_equal(basis.design(x), _scipy_extended(knots, eye, x))
    assert _bitwise_equal(basis.predict(coef, x), _scipy_extended(knots, coef, x))


# the raw scales of the 5-d field law: two coordinates with SD 1e6, two with
# SD 9 and one near 1e-4 with SD 4e-6
_RAW_5D = (np.array([3e6, 1e6, 40.0, 20.0, 1e-4]), np.array([1e6, 1e6, 9.0, 9.0, 4e-6]))


def _monomial_factors(basis):
    """Each poly column's factors j, in order of j, x_j repeated by its power."""
    return [[j for j, p in enumerate(row) for _ in range(p)] for row in basis.powers]


@pytest.mark.parametrize("dim", [1, 5])
def test_rbf_and_poly_design_match_broadcast_formula(dim):
    rng = np.random.default_rng(20 + dim)
    scales = 10.0 ** np.arange(-2, dim - 2)
    mean, sd = _RAW_5D
    x = np.vstack([
        rng.normal(size=(300, dim)) * scales,
        (mean + sd * rng.normal(size=(100, 5)))[:, :dim],
    ])
    x[:3] = -0.0
    x[3:40:2, 0] = -0.0
    rbf = RbfBasis.from_data(rng.normal(size=(60, dim)) * scales, 15)
    diff = x[:, None, :] - rbf.centers[None, :, :]
    bumps = np.exp(-np.sum(diff * diff, axis=2) / (2.0 * rbf.lengthscale**2))
    assert _bitwise_equal(rbf.design(x), np.column_stack([np.ones(len(x)), bumps]))
    # a poly column is the left-to-right product of its factors in Python
    # floats, starting from 1.0
    assert np.any(x < 0.0) and np.any(np.signbit(x) & (x == 0.0))
    rows = x.tolist()
    for degree in range(4):
        poly = PolyBasis(degree, dim)
        ref = np.empty((len(rows), poly.n_coef))
        for k, factors in enumerate(_monomial_factors(poly)):
            for i, row in enumerate(rows):
                value = 1.0
                for j in factors:
                    value *= row[j]
                ref[i, k] = value
        assert _bitwise_equal(poly.design(x), ref)


def _predict_in_2_22_chunks(basis, coef, x):
    """predict over chunks of 2**22 table values, each one coefficient-table
    product of the whole chunk with its rows padded by zeros to a multiple
    of 4."""
    out = np.empty(x.shape[0])
    step = max(1, 2**22 // max(basis.n_coef, 1))
    for a in range(0, x.shape[0], step):
        part = x[a : a + step]
        xt = np.zeros((x.shape[1], (part.shape[0] + 3) // 4 * 4))
        xt[:, : part.shape[0]] = part.T
        out[a : a + step] = (coef @ basis._table(xt))[: part.shape[0]]
    return out


@pytest.mark.parametrize("kind", ["poly2", "poly3", "rbf20"])
def test_predict_blocks_match_2_22_chunks(kind):
    # 6239 rows (3 mod 4) fill 2 blocks of 4096 rows, the second partly, and
    # one chunk of 2**22 values, so blocked predict must equal a single
    # coef @ _table(x.T) of all rows.  The last 3 rows fill no group of 4
    # that dgemv takes; padded, each row's prediction is the one it gets alone
    rng = np.random.default_rng(61)
    if kind == "rbf20":
        # unit scales, so the bumps are not flat
        x = rng.normal(size=(6239, 5))
        basis = RbfBasis.from_data(x[:300], 20)
    else:
        mean, sd = _RAW_5D
        x = mean + sd * rng.normal(size=(6239, 5))
        basis = PolyBasis(int(kind[-1]), 5)
    coef = rng.normal(size=basis.n_coef)
    got = basis.predict(coef, x)
    assert np.all(coef != 0.0) and np.ptp(got) > 0.0
    assert np.array_equal(got, _predict_in_2_22_chunks(basis, coef, x))
    for i in (0, 1, 2, 3, 4095, 4096, 6235, 6236, 6237, 6238):
        assert basis.predict(coef, x[i : i + 1])[0] == got[i]


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 3, 17, 60_001])
def test_poly_tables_without_pow0_keep_bits(rows, degree):
    # the product-built tables keep poly predictions within the rounding of
    # their sum: within 4 n_coef eps sum_k |c_k b_k| of math.fsum over the
    # terms c_k b_k, with b_k each monomial's product of factors, on the raw
    # 5-d scales and on N(0, 1) inputs
    rng = np.random.default_rng(66)
    mean, sd = _RAW_5D
    basis = PolyBasis(degree, 5)
    coef = rng.normal(size=basis.n_coef)
    for x in (mean + sd * rng.normal(size=(rows, 5)), rng.normal(size=(rows, 5))):
        b = np.ones((rows, basis.n_coef))
        for k, factors in enumerate(_monomial_factors(basis)):
            for j in factors:
                b[:, k] *= x[:, j]
        terms = coef * b
        exact = np.array([math.fsum(t) for t in terms.tolist()])
        bound = 4 * basis.n_coef * np.finfo(float).eps * np.abs(terms).sum(axis=1)
        assert np.all(np.abs(basis.predict(coef, x) - exact) <= bound)


# Prints one hash per (basis, row count) of fixed-seed predictions on 5-d
# points, where no row count is a multiple of 4, and one per fit on the
# raw-scale 5-d field law: the poly 2 GCV coefficients and the rbf 20 weighted
# CV table and coefficients
_THREAD_PROBE = """
import ctypes, hashlib, json
import numpy as np
from uqim.surrogate import (FunctionFamily, PolyBasis, RbfBasis, compute_residuals,
                            fit_with_gcv, select_weight_and_penalty)
from uqim.synthetic import make_hidim_like
rng = np.random.default_rng(67)
mean = np.array([3e6, 1e6, 40.0, 20.0, 1e-4])
sd = np.array([1e6, 1e6, 9.0, 9.0, 4e-6])
unit = rng.normal(size=(300, 5))
bases = {"poly2": PolyBasis(2, 5), "poly3": PolyBasis(3, 5),
         "rbf20": RbfBasis.from_data(unit, 20)}
seen = {}
def digest(*arrays):
    return hashlib.sha256(b"".join(np.asarray(a, float).tobytes() for a in arrays)).hexdigest()
for name, basis in bases.items():
    coef = rng.normal(size=basis.n_coef)
    for rows in (6_239, 60_001, 200_003):
        z = rng.normal(size=(rows, 5))
        pred = basis.predict(coef, z if name == "rbf20" else mean + sd * z)
        assert np.all(coef != 0.0) and np.ptp(pred) > 0.0
        seen[f"{name}/{rows}"] = digest(pred)
system = make_hidim_like(bias_kind="linear")
exp, sim = system.draw_experiment(50, seed=1), system.draw_simulation(200, seed=2)
base = fit_with_gcv(FunctionFamily("poly", 2), sim)
seen["fit_with_gcv/poly2"] = digest(base.coef, [base.family.penalty, base.cv_score])
sel = select_weight_and_penalty(FunctionFamily("rbf", 20), exp,
                                compute_residuals(base, exp), sim.inputs, seed=11)
assert np.any(sel.model.coef != 0.0)
seen["select_weight_and_penalty/rbf20"] = digest(sel.model.coef, sel.table)
def blas_threads():
    # the thread count OpenBLAS runs with, which it caps at the core count
    libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None
print(json.dumps({"threads": blas_threads(), "hashes": seen}))
"""


def test_predict_bits_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dgemv among T threads at ceil(rows / T) rows, and the
    # fits' products and solves go through the same library.  It caps T at the
    # core count, so the second probe asks for 3 threads and runs with
    # min(3, cores): only on 3 or more cores does a 4096-row block split into
    # parts that are not a multiple of 4 rows
    src = str(Path(uqim.surrogate.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "3"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0]["threads"] == 1
    assert runs[1]["threads"] >= min(2, os.cpu_count())
    assert len(runs[0]["hashes"]) == 11
    assert runs[0]["hashes"] == runs[1]["hashes"]


def test_improved_surrogate_call_memory_is_a_few_blocks():
    # one call on 1e6 5-d points allocates its two outputs (base and
    # residual, 8 MB each; the sum goes into the base's) and a few blocks of
    # at most 688 KB.  A third output would overshoot the bound by about
    # 4 MB; a design of all rows would be 168 MB
    rng = np.random.default_rng(62)
    mean, sd = _RAW_5D
    x = mean + sd * rng.normal(size=(1_000_000, 5))
    poly, rbf = PolyBasis(2, 5), RbfBasis.from_data(x[:300], 20)
    model = improved_surrogate(
        SurrogateModel(FunctionFamily("poly", 2), poly, rng.normal(size=poly.n_coef), 300),
        SurrogateModel(FunctionFamily("rbf", 20), rbf, rng.normal(size=rbf.n_coef), 300),
    )
    tracemalloc.start()
    try:
        model(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.shape[0] * 8 + 4 * 2**20


# ---------------------------------------------------------------------------
# model files are validated on load


def _spline_dict():
    x = np.linspace(0.0, 1.0, 20)
    model = fit_penalized_ls(FunctionFamily("spline1d", 6, 1e-6), _data(x, x**2))
    return model_to_dict(model)


def _spoil_knots(fn):
    def spoil(obj):
        knots = obj["basis"]["knots"]
        obj["basis"]["knots"] = fn(knots)
    return spoil


@pytest.mark.parametrize(
    "spoil",
    [
        _spoil_knots(lambda t: t[:4] + [float("nan")] + t[5:]),
        _spoil_knots(lambda t: t[:-1] + [float("inf")]),
        _spoil_knots(lambda t: t[:4] + [t[5], t[4]] + t[6:]),  # swapped
        _spoil_knots(lambda t: t[:3] + t[-4:]),  # 7 knots
        _spoil_knots(lambda t: [t[0] - 1.0] + t[1:]),  # left end not repeated
        _spoil_knots(lambda t: t[:-1] + [t[-1] + 1.0]),  # right end not repeated
        _spoil_knots(lambda t: t[:6] + [t[5]] * 3 + t[6:]),  # interior knot 4 times
        _spoil_knots(lambda t: [t[0]] + t),  # end knot 5 times
    ],
    ids=["nan", "inf", "swapped", "too_few", "left_open", "right_open",
         "interior_4x", "end_5x"],
)
def test_load_model_rejects_bad_spline_knots(tmp_path, spoil):
    obj = _spline_dict()
    spoil(obj)
    obj["coef"] = [0.0] * (len(obj["basis"]["knots"]) - 4)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match="knots") as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: malformed model file (")


@pytest.mark.parametrize("kind,size", [("spline1d", 6), ("rbf", 5), ("poly", 2)])
@pytest.mark.parametrize("extra", [1, -1])
def test_load_model_rejects_coefficient_count(tmp_path, kind, size, extra):
    x = np.linspace(0.0, 1.0, 20)
    model = fit_penalized_ls(FunctionFamily(kind, size, 1e-6), _data(x, x**2))
    obj = model_to_dict(model)
    coef = obj["coef"]
    obj["coef"] = coef + [1.0] if extra > 0 else coef[:-1]
    path = tmp_path / "m.json"
    improved = {"type": "improved", "base": obj, "residual": obj, "weight": None}
    path.write_text(json.dumps(improved))
    with pytest.raises(DataError, match="coefficients") as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: malformed model file (")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_load_model_rejects_non_finite_rbf_centres(tmp_path, bad):
    x = np.linspace(0.0, 1.0, 20)
    obj = model_to_dict(fit_penalized_ls(FunctionFamily("rbf", 5, 1e-6), _data(x, x**2)))
    obj["basis"]["centers"][1][0] = bad
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match="non-finite") as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: malformed model file (")


def _set(keys, value):
    def spoil(obj):
        inner = obj
        for key in keys[:-1]:
            inner = inner[key]
        inner[keys[-1]] = value
        return obj
    return spoil


@pytest.mark.parametrize(
    "spoil",
    [
        _set(["basis", "knots", 4], "x"),
        _set(["coef", 0], "x"),
        _set(["coef", 0], math.nan),
        _set(["coef", 0], math.inf),
        _set(["family", "size"], "x"),
        _set(["family", "size"], 6.5),
        _set(["family"], None),
        lambda obj: [obj],
    ],
    ids=["text_knot", "text_coef", "nan_coef", "inf_coef", "text_size",
         "fractional_size", "null_family", "top_level_list"],
)
def test_load_model_rejects_malformed_fields(tmp_path, spoil):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spoil(_spline_dict())))
    with pytest.raises(DataError) as exc:
        load_model(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: malformed model file (")
    assert "\n" not in message
