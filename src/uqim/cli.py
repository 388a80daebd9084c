"""Command line front end.

Every subcommand prints one JSON report to stdout:

    {"command": ..., "version": ..., "seed": ..., "settings": {...},
     "results": {...}, "artifacts": [...], "timings": {...}}

The ``results`` block is deterministic for a given seed (timings are not).
Failures print a one-line JSON error object to stderr and exit 1.  Relative
artifact paths are resolved under ``--out-dir``.

A ``--config`` JSON file (see :class:`uqim.data.RunConfig`) supplies
defaults for seed/out-dir, ``l_n`` for the bootstrap learn size,
and per-subcommand defaults through its ``methods`` blocks.  Every block
must name a subcommand and every value is checked like the command-line
value of its option, but only the running subcommand's block sets
defaults; explicit flags win over the config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .data import (
    InputSample,
    RunConfig,
    _read_dataset,
    _write_table,
    parse_inputs,
    write_dataset,
    write_inputs,
)
from .errors import DataError, DomainError, InfeasibleError, UqError, ValidationError

# The layer modules load in the handlers that call them, so that a process
# starts on the running subcommand's layers only; --dry-run, --version and
# argument errors load none.


def __getattr__(name: str):
    # the layer functions this module once imported at its top still resolve
    # as uqim.cli.<name>, through the package, which loads them on first use
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _version() -> str:
    from . import __version__

    return __version__


# ---------------------------------------------------------------------------
# report plumbing


def _plain(obj):
    """json.dumps ``default``: numpy arrays and scalars as Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# small argument parsers


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from None


def _names(text: str) -> list[str]:
    return [v.strip() for v in str(text).split(",") if v.strip() != ""]


def _parse_span(text: str) -> tuple[float, float]:
    parts = _floats(str(text).replace(":", ","))
    if len(parts) != 2 or not parts[0] < parts[1]:
        raise DomainError(f"expected lo:hi with lo < hi, got {text!r}")
    return parts[0], parts[1]


def _parse_ranges(text: str) -> list[tuple[float, float]]:
    return [_parse_span(part) for part in _names(text)]


def _load_dataset(path, input_columns, output_column, kind):
    def pick(header):
        out_col = output_column if output_column else header[-1]
        if input_columns:
            cols = _names(input_columns)
        else:
            cols = [c for c in header if c != out_col]
        if not cols:
            raise DataError(f"{path}: no input columns left besides {out_col!r}")
        return cols + [out_col]

    return _read_dataset(path, pick, kind)


def _single_column(path) -> np.ndarray:
    sample = parse_inputs(path)
    if sample.dim != 1:
        raise DataError(f"{path}: expected one column, found {sample.dim}")
    return sample.points[:, 0]


# ---------------------------------------------------------------------------
# execution context


@dataclass
class _Ctx:
    seed: int
    out_dir: str
    dry_run: bool

    def path(self, name) -> str:
        p = str(name)
        if not os.path.isabs(p):
            p = os.path.join(self.out_dir, p)
        os.makedirs(os.path.dirname(p) or ".", exist_ok=True)
        return p


def _family_from_args(kind, size, penalty, default_kind="spline1d", default_size=10):
    from .surrogate import FunctionFamily

    return FunctionFamily(
        kind=kind or default_kind,
        size=int(size) if size is not None else default_size,
        penalty=float(penalty) if penalty is not None else 0.0,
    )


def _model_outputs(model, inputs_path) -> np.ndarray:
    return np.asarray(model(parse_inputs(inputs_path).points), dtype=float)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (settings, results, artifacts)


def _cmd_gen_inputs(args, ctx: _Ctx):
    from .randgen import estimate_mvn, latin_hypercube, sample_mvn

    count = int(args.count)
    dist = args.dist or ("lhs" if args.ranges and not args.from_data else "mvn")
    sample = None
    if args.from_data:
        sample = parse_inputs(args.from_data, _names(args.columns) if args.columns else None)
    if dist == "mvn":
        if sample is None:
            raise DomainError("--dist mvn needs --from <csv>")
        params = estimate_mvn(sample.points)
        pts = sample_mvn(params, count, ctx.seed)
        names = sample.names
        extra = {"mean": params.mean, "cov": params.cov}
    else:
        if args.ranges:
            ranges = _parse_ranges(args.ranges)
        elif sample is not None:
            ranges = list(zip(sample.points.min(axis=0), sample.points.max(axis=0)))
        else:
            raise DomainError("--dist lhs needs --ranges or --from <csv>")
        pts = latin_hypercube(ranges, count, ctx.seed)
        names = sample.names if sample is not None else ()
        extra = {"ranges": [list(map(float, r)) for r in ranges]}
    out = ctx.path(args.output)
    write_inputs(InputSample(points=pts, names=names), out)
    settings = {"count": count, "dist": dist, "source": args.from_data or args.ranges}
    results = {"count": count, "dim": pts.shape[1], "dist": dist, **extra}
    return settings, results, [out]


def _cmd_fit_surrogate(args, ctx: _Ctx):
    from .surrogate import (
        compute_residuals,
        fit_penalized_ls,
        fit_with_gcv,
        improved_surrogate,
        save_model,
        select_weight_and_penalty,
    )

    sim = _load_dataset(args.sim, args.input_columns, args.output_column, "simulated")
    family = _family_from_args(args.family, args.size, args.penalty)
    if args.penalty is None:
        grid = np.asarray(_floats(args.penalty_grid)) if args.penalty_grid else None
        base = fit_with_gcv(family, sim, grid=grid)
    else:
        base = fit_penalized_ls(family, sim)
    model = base
    results = {
        "family": base.family.kind,
        "size": base.family.size,
        "penalty": base.family.penalty,
        "train_size": base.train_size,
        "gcv": base.cv_score,
    }
    settings = {
        "sim": args.sim,
        "family": family.kind,
        "size": family.size,
        "penalty": args.penalty,
        "improved": bool(args.exp),
        "weighted": bool(args.weighted),
    }
    if args.exp:
        expd = _load_dataset(args.exp, args.input_columns, args.output_column, "experimental")
        residuals = compute_residuals(base, expd)
        res_family = _family_from_args(
            args.res_family or base.family.kind,
            args.res_size if args.res_size is not None else base.family.size,
            None,
        )
        extra = (
            parse_inputs(args.extra_inputs).points if args.extra_inputs else sim.inputs
        )
        if args.weight_grid:
            w_grid = _floats(args.weight_grid)
        elif args.weighted:
            w_grid = None
        else:
            # no --weighted: fix w=1 so only the penalty is cross-validated
            w_grid = [1.0]
        sel = select_weight_and_penalty(
            res_family,
            expd,
            residuals,
            extra,
            w_grid=w_grid,
            penalty_grid=_floats(args.res_penalty_grid) if args.res_penalty_grid else None,
            folds=int(args.folds) if args.folds is not None else 5,
            seed=ctx.seed,
        )
        model = improved_surrogate(base, sel.model, weight=sel.weight)
        results.update(
            {
                "weight": sel.weight,
                "residual_penalty": sel.penalty,
                "cv_risk": sel.cv_risk,
                "residual_family": res_family.kind,
                "residual_size": res_family.size,
            }
        )
        settings["exp"] = args.exp
    out = ctx.path(args.model_out)
    save_model(model, out)
    return settings, results, [out]


def _cmd_density(args, ctx: _Ctx):
    from .density import kde_cdf, kde_evaluate, surrogate_density
    from .surrogate import load_model

    model = load_model(args.model)
    sample = parse_inputs(args.inputs)
    bw = args.bandwidth
    if bw is not None and str(bw).strip().lower() == "auto":
        bw = None
    kde = surrogate_density(
        model,
        sample.points,
        kernel=args.kernel or "naive",
        bandwidth=float(bw) if bw is not None else None,
    )
    steps = int(args.grid_steps) if args.grid_steps is not None else 201
    if args.grid:
        parts = _floats(str(args.grid).replace(":", ","))
        if len(parts) == 3:
            lo, hi, steps = parts[0], parts[1], int(parts[2])
        elif len(parts) == 2:
            lo, hi = parts
        else:
            raise DomainError(f"--grid expects lo:hi or lo:hi:steps, got {args.grid!r}")
        if not (lo < hi and steps >= 2):
            raise DomainError(f"bad grid {args.grid!r}")
    else:
        pad = 3.0 * kde.bandwidth
        lo, hi = kde.values[0] - pad, kde.values[-1] + pad
    grid = np.linspace(lo, hi, steps)
    pdf = kde_evaluate(kde, grid)
    cdf = kde_cdf(kde, grid)
    out = ctx.path(args.output)
    _write_table(out, ["y", "pdf", "cdf"], [grid, pdf, cdf])
    settings = {
        "model": args.model,
        "inputs": args.inputs,
        "kernel": kde.kernel,
        "bandwidth": args.bandwidth,
        "grid": [lo, hi, steps],
    }
    results = {
        "kernel": kde.kernel,
        "bandwidth": kde.bandwidth,
        "count": int(kde.values.size),
        "grid_lo": float(lo),
        "grid_hi": float(hi),
        "grid_steps": steps,
    }
    return settings, results, [out]


def _cmd_quantile(args, ctx: _Ctx):
    from .density import mc_quantile

    if bool(args.outputs) == bool(args.model):
        raise DomainError("give either --outputs or --model with --inputs")
    if args.outputs:
        values = _single_column(args.outputs)
        source = args.outputs
    else:
        if not args.inputs:
            raise DomainError("--model needs --inputs")
        from .surrogate import load_model

        values = _model_outputs(load_model(args.model), args.inputs)
        source = f"{args.model} on {args.inputs}"
    alphas = _floats(args.alpha)
    entries = []
    for a in alphas:
        est = mc_quantile(values, a)
        entries.append({"alpha": est.level, "value": est.value})
    settings = {"source": source, "alpha": alphas}
    results = {"count": int(values.size), "quantiles": entries}
    return settings, results, []


def _cmd_avm(args, ctx: _Ctx):
    from .avm import avm

    expd = _load_dataset(args.exp, args.input_columns, args.output_column, "experimental")
    simd = _load_dataset(args.sim, args.input_columns, args.output_column, "simulated")
    steps = int(args.grid_steps) if args.grid_steps is not None else 10_000
    res = avm(expd.outputs, simd.outputs, grid_steps=steps)
    settings = {"exp": args.exp, "sim": args.sim, "grid_steps": steps}
    results = {
        "riemann": res.riemann,
        "exact": res.exact,
        "grid_steps": res.grid_steps,
        "lo": res.lo,
        "hi": res.hi,
    }
    return settings, results, []


def _cmd_gp_error(args, ctx: _Ctx):
    from .gp import DiscrepancyData, gp_error_quantile, gp_fit_map
    from .randgen import spawn_seeds
    from .surrogate import load_model

    expd = _load_dataset(args.exp, args.input_columns, args.output_column, "experimental")
    model = load_model(args.model)
    data = DiscrepancyData(
        inputs=expd.inputs,
        model_outputs=model(expd.inputs),
        observed=expd.outputs,
    )
    seed_fit, seed_q = spawn_seeds(ctx.seed, 2)
    fit = gp_fit_map(
        data,
        beta_mode=args.beta_mode or "closed_form",
        restarts=int(args.restarts) if args.restarts is not None else 20,
        maxiter=int(args.maxiter) if args.maxiter is not None else 200,
        seed=seed_fit,
    )
    alpha = float(args.alpha) if args.alpha is not None else 0.95
    reps = int(args.reps) if args.reps is not None else 10_000
    eq = gp_error_quantile(fit.params, data, alpha, reps=reps, seed=seed_q)
    settings = {
        "exp": args.exp,
        "model": args.model,
        "beta_mode": fit.beta_mode,
        "restarts": fit.restarts,
        "alpha": alpha,
        "reps": reps,
    }
    results = {
        "lam": fit.params.lam,
        "beta": fit.params.beta,
        "sigma2": fit.params.sigma2,
        "omegas": list(fit.params.omegas),
        "objective": fit.objective,
        "jitter": fit.jitter,
        "error_quantile_median": eq.median,
        "alpha": alpha,
        "reps": reps,
        "quantiles": eq.quantiles,
    }
    return settings, results, []


def _cmd_bootstrap_error(args, ctx: _Ctx):
    from .bootstrap import bootstrap_error_quantile
    from .surrogate import load_model

    expd = _load_dataset(args.exp, args.input_columns, args.output_column, "experimental")
    model = load_model(args.model)
    family = _family_from_args(args.family, args.size, args.penalty)
    n_learn = int(args.n_learn) if args.n_learn is not None else 10
    b_reps = int(args.b_reps) if args.b_reps is not None else 500
    alpha = float(args.alpha) if args.alpha is not None else 0.95
    extra = parse_inputs(args.extra_inputs).points if args.extra_inputs else None
    weight = float(args.weight) if args.weight is not None else None
    report = bootstrap_error_quantile(
        expd,
        model,
        family,
        b_reps=b_reps,
        n_learn=n_learn,
        alpha=alpha,
        seed=ctx.seed,
        extra_inputs=extra,
        weight=weight,
    )
    out = ctx.path(args.output)
    _write_table(out, ["quantile"], [report.quantiles])
    settings = {
        "exp": args.exp,
        "model": args.model,
        "family": family.kind,
        "size": family.size,
        "b_reps": b_reps,
        "n_learn": n_learn,
        "alpha": alpha,
        "weight": weight,
    }
    results = {
        "median": report.median,
        "alpha": report.alpha,
        "b_reps": report.b_reps,
        "n_learn": report.n_learn,
        "q_min": float(np.min(report.quantiles)),
        "q_max": float(np.max(report.quantiles)),
        "quantiles": report.quantiles,
    }
    return settings, results, [out]


def _cmd_ci_quantile(args, ctx: _Ctx):
    from .confidence import ci_feasibility, quantile_ci

    alpha = float(args.alpha)
    delta = float(args.delta)
    if args.check_only:
        if args.n is not None:
            n = int(args.n)
        elif args.exp:
            n = _load_dataset(args.exp, args.input_columns, args.output_column, "experimental").n
        else:
            raise DomainError("--check-only needs --n or --exp")
        grid = _floats(args.d_delta) if args.d_delta else None
        rep = ci_feasibility(
            n, alpha, delta, d_delta_grid=grid,
            big_n=float(args.big_n) if args.big_n is not None else None,
        )
        settings = {"n": n, "alpha": alpha, "delta": delta, "big_n": args.big_n}
        results = {
            "feasible": rep.feasible,
            "best_d_delta": rep.best_d_delta,
            "best_objective": rep.best_objective,
            "entries": [
                {
                    "d_delta": e.d_delta,
                    "feasible": e.feasible,
                    "objective": e.objective,
                    "hoeffding": e.hoeffding,
                }
                for e in rep.entries
            ],
        }
        return settings, results, []
    for name in ("exp", "model", "inputs"):
        if not getattr(args, name):
            raise DomainError(f"--{name} is required unless --check-only")
    from .surrogate import load_model

    expd = _load_dataset(args.exp, args.input_columns, args.output_column, "experimental")
    model = load_model(args.model)
    outputs = _model_outputs(model, args.inputs)
    ci = quantile_ci(
        expd,
        model,
        outputs,
        alpha,
        delta,
        d_delta=float(args.d_delta) if args.d_delta and not args.sweep else None,
        sweep=bool(args.sweep),
    )
    settings = {
        "exp": args.exp,
        "model": args.model,
        "inputs": args.inputs,
        "alpha": alpha,
        "delta": delta,
        "sweep": bool(args.sweep),
    }
    screen = ci_feasibility(ci.n, alpha, delta, big_n=float(ci.big_n))
    results = {
        "lower": ci.lower,
        "upper": ci.upper,
        "width": ci.width,
        "d_delta": ci.d_delta,
        "eps": ci.eps,
        "gamma": ci.gamma,
        "beta_hat": ci.beta_hat,
        "level_low": ci.level_low,
        "level_high": ci.level_high,
        "n": ci.n,
        "big_n": ci.big_n,
        "feasibility": {
            "feasible": screen.feasible,
            "best_d_delta": screen.best_d_delta,
            "best_objective": screen.best_objective,
        },
    }
    return settings, results, []


def _cmd_density_band(args, ctx: _Ctx):
    from .confidence import density_band
    from .density import select_bandwidth
    from .surrogate import load_model

    expd = _load_dataset(args.exp, args.input_columns, args.output_column, "experimental")
    model = load_model(args.model)
    outputs = _model_outputs(model, args.inputs)
    if args.bandwidths:
        bandwidths = _floats(args.bandwidths)
    else:
        bandwidths = [select_bandwidth(outputs)]
    interval = (
        _parse_span(args.interval)
        if args.interval
        else (float(np.min(outputs)), float(np.max(outputs)))
    )
    band = density_band(
        outputs,
        expd,
        model,
        kappa=float(args.kappa),
        delta=float(args.delta),
        bandwidths=bandwidths,
        interval=interval,
        grid_steps=int(args.grid_steps) if args.grid_steps is not None else 200,
    )
    out = ctx.path(args.output)
    _write_table(out, ["y", "lower", "upper"], [band.grid, band.lower, band.upper])
    settings = {
        "exp": args.exp,
        "model": args.model,
        "inputs": args.inputs,
        "kappa": band.kappa,
        "delta": band.delta,
        "bandwidths": list(band.bandwidths),
        "interval": list(interval),
        "grid_steps": int(band.grid.size),
    }
    results = {
        "kappa": band.kappa,
        "delta": band.delta,
        "bandwidths": list(band.bandwidths),
        "beta_hat": band.beta_hat,
        "eps": band.eps,
        "gamma": band.gamma,
        "correction": band.correction,
        "n": band.n,
        "big_n": band.big_n,
        "upper_max": float(np.max(band.upper)),
        "lower_max": float(np.max(band.lower)),
    }
    return settings, results, [out]


def _cmd_synth(args, ctx: _Ctx):
    from .randgen import spawn_seeds
    from .synthetic import (
        field_measurements,
        make_hidim_like,
        make_mafds_like,
        mc_truth_quantile,
    )

    system = args.system or "mafds"
    if system == "field":
        ds = field_measurements()
        out = ctx.path(args.exp_out)
        write_dataset(ds, out)
        settings = {"system": system}
        results = {"n": ds.n, "dim": ds.dim, "columns": list(ds.input_names)}
        return settings, results, [out]
    kwargs = {}
    if args.bias_kind:
        kwargs["bias_kind"] = args.bias_kind
    if args.bias_scale is not None:
        kwargs["bias_scale"] = float(args.bias_scale)
    if args.sigma_obs is not None:
        kwargs["sigma_obs"] = float(args.sigma_obs)
    if system == "mafds":
        sys_ = make_mafds_like(**kwargs)
    elif system == "hidim":
        sys_ = make_hidim_like(**kwargs)
    else:
        raise DomainError(f"unknown system {system!r}")
    n_exp = int(args.n_exp) if args.n_exp is not None else 10
    n_sim = int(args.n_sim) if args.n_sim is not None else 100
    seed_exp, seed_sim = spawn_seeds(ctx.seed, 2)
    expd = sys_.draw_experiment(n_exp, seed_exp)
    simd = sys_.draw_simulation(n_sim, seed_sim)
    exp_out, sim_out = ctx.path(args.exp_out), ctx.path(args.sim_out)
    write_dataset(expd, exp_out)
    write_dataset(simd, sim_out)
    alpha = float(args.alpha) if args.alpha is not None else 0.95
    if sys_.quantile_fn is not None:
        truth_q = sys_.true_quantile(alpha)
    else:
        truth_q = mc_truth_quantile(
            sys_, alpha, count=int(args.mc_count or 100_000), seed=ctx.seed
        )
    settings = {
        "system": system,
        "bias_kind": sys_.bias_kind,
        "bias_scale": sys_.bias_scale,
        "sigma_obs": sys_.sigma_obs,
        "n_exp": n_exp,
        "n_sim": n_sim,
        "alpha": alpha,
    }
    results = {
        "system": sys_.name,
        "dim": sys_.dim,
        "true_quantile": truth_q,
        "alpha": alpha,
    }
    return settings, results, [exp_out, sim_out]


# ---------------------------------------------------------------------------
# parser construction


_HANDLERS = {
    "gen-inputs": _cmd_gen_inputs,
    "fit-surrogate": _cmd_fit_surrogate,
    "density": _cmd_density,
    "quantile": _cmd_quantile,
    "avm": _cmd_avm,
    "gp-error": _cmd_gp_error,
    "bootstrap-error": _cmd_bootstrap_error,
    "ci-quantile": _cmd_ci_quantile,
    "density-band": _cmd_density_band,
    "synth": _cmd_synth,
}


def _add_data_flags(p):
    p.add_argument("--input-columns", help="comma-separated input column names")
    p.add_argument("--output-column", help="output column name (default: last)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="uqim",
        description="Uncertainty quantification with imperfect simulation models.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {_version()}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    common.add_argument("--out-dir", default=None, help="directory for artifacts")
    common.add_argument("--config", default=None, help="RunConfig JSON file")
    common.add_argument("--report", default=None, help="also write the report here")
    common.add_argument("--dry-run", action="store_true",
                        help="print settings without computing")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-inputs", parents=[common],
                       help="draw an input sample (estimated MVN or LHS)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--dist", choices=["mvn", "lhs"])
    p.add_argument("--from", "--from-data", dest="from_data",
                   help="CSV whose columns define the input law")
    p.add_argument("--columns", help="columns of --from to use")
    p.add_argument("--ranges", help="lo:hi[,lo:hi...] for Latin hypercube")
    p.add_argument("--out", "--output", dest="output", default="inputs.csv")

    p = sub.add_parser("fit-surrogate", parents=[common],
                       help="penalized LS surrogate, optionally improved")
    p.add_argument("--sim", required=True, help="simulated dataset CSV")
    p.add_argument("--exp", help="experimental dataset CSV")
    _add_data_flags(p)
    p.add_argument("--family", choices=["spline1d", "rbf", "poly"])
    p.add_argument("--size", type=int)
    p.add_argument("--penalty", type=float, help="fixed penalty (default: GCV)")
    p.add_argument("--penalty-grid", help="GCV penalty grid, comma-separated")
    p.add_argument("--res-family", choices=["spline1d", "rbf", "poly"])
    p.add_argument("--res-size", type=int)
    p.add_argument("--res-penalty-grid")
    p.add_argument("--weighted", action="store_true",
                   help="cross-validate the anchor weight too")
    p.add_argument("--weight-grid")
    p.add_argument("--folds", type=int)
    p.add_argument("--extra", "--extra-inputs", dest="extra_inputs",
                   help="inputs CSV for the zero anchor term")
    p.add_argument("--out", "--model-out", dest="model_out", default="model.json")

    p = sub.add_parser("density", parents=[common],
                       help="KDE of surrogate outputs on an input sample")
    p.add_argument("--model", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--kernel", choices=["naive", "gauss", "epanechnikov"])
    p.add_argument("--bandwidth", help="numeric value or 'auto'")
    p.add_argument("--grid", help="lo:hi or lo:hi:steps evaluation span")
    p.add_argument("--grid-steps", type=int)
    p.add_argument("--out", "--output", dest="output", default="density.csv")

    p = sub.add_parser("quantile", parents=[common],
                       help="plug-in quantile of surrogate outputs")
    p.add_argument("--model")
    p.add_argument("--inputs")
    p.add_argument("--outputs", help="single-column CSV of precomputed outputs")
    p.add_argument("--alpha", required=True, help="level(s), comma-separated")

    p = sub.add_parser("avm", parents=[common],
                       help="area between experimental and simulated ECDFs")
    p.add_argument("--exp", required=True)
    p.add_argument("--sim", required=True)
    _add_data_flags(p)
    p.add_argument("--grid-steps", type=int)

    p = sub.add_parser("gp-error", parents=[common],
                       help="GP discrepancy MAP fit and error quantile")
    p.add_argument("--exp", required=True)
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--beta-mode", choices=["closed_form", "empirical", "free"])
    p.add_argument("--restarts", type=int)
    p.add_argument("--maxiter", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--reps", type=int)

    p = sub.add_parser("bootstrap-error", parents=[common],
                       help="bootstrap the residual-model error quantile")
    p.add_argument("--exp", required=True)
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--family", choices=["spline1d", "rbf", "poly"])
    p.add_argument("--size", type=int)
    p.add_argument("--penalty", type=float)
    p.add_argument("--b-reps", type=int)
    p.add_argument("--n-learn", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--weight", type=float)
    p.add_argument("--extra-inputs")
    p.add_argument("--output", default="bootstrap_quantiles.csv")

    p = sub.add_parser("ci-quantile", parents=[common],
                       help="finite-sample quantile confidence interval")
    p.add_argument("--exp")
    _add_data_flags(p)
    p.add_argument("--model")
    p.add_argument("--inputs")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--d-delta", help="delta split (or grid when --check-only)")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--check-only", action="store_true",
                   help="feasibility screening only")
    p.add_argument("--n", type=int, help="experimental size for --check-only")
    p.add_argument("--big-n", type=float, help="output sample size for --check-only")

    p = sub.add_parser("density-band", parents=[common],
                       help="simultaneous confidence band for the output density")
    p.add_argument("--exp", required=True)
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--bandwidths", help="comma-separated (default: rule of thumb)")
    p.add_argument("--interval", help="lo:hi band support")
    p.add_argument("--grid-steps", type=int)
    p.add_argument("--output", default="band.csv")

    p = sub.add_parser("synth", parents=[common],
                       help="draw synthetic benchmark datasets")
    p.add_argument("--system", choices=["mafds", "hidim", "field"])
    p.add_argument("--bias-kind", choices=["constant", "linear", "smooth"])
    p.add_argument("--bias-scale", type=float)
    p.add_argument("--sigma-obs", type=float)
    p.add_argument("--n-exp", type=int)
    p.add_argument("--n-sim", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mc-count", type=int)
    p.add_argument("--exp-out", default="exp.csv")
    p.add_argument("--sim-out", default="sim.csv")

    return top


def _method_defaults(parser, args, methods: dict) -> None:
    """Check every config method block; fill the unset options of the running
    subcommand from its block.

    A block must be named after a subcommand.  Each value goes through its
    option's own ``type`` and ``choices``, as a command-line string would; a
    ``store_true`` flag takes a JSON bool.  A key that names no option of its
    subcommand is an error.  The blocks of the other subcommands are checked
    alike but set nothing, and every problem is reported at once.  The
    global flags are no keys here: seed and out_dir are top-level config keys.
    """
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    problems = []
    for command, block in methods.items():
        if command not in subs.choices:
            problems.append((f"methods.{command}", "names no subcommand"))
            continue
        options = {
            a.dest: a
            for a in subs.choices[command]._actions
            if a.option_strings and a.dest not in _PRIVATE_ARGS + ("help",)
        }
        running = command == args.command
        for key, value in block.items():
            opt = options.get(str(key).replace("-", "_"))
            if opt is None:
                problem = f"names no {command} option"
            elif opt.nargs == 0:  # store_true: the flag or the config turns it on
                if isinstance(value, bool):
                    if running:
                        setattr(args, opt.dest, getattr(args, opt.dest) or value)
                    continue
                problem = f"must be true or false, got {value!r}"
            elif isinstance(value, bool) or not isinstance(value, (str, int, float)):
                problem = f"must be a string or a number, got {value!r}"
            else:
                try:
                    value = (opt.type or str)(str(value))
                except ValueError:
                    problem = f"invalid {opt.type.__name__} value {value!r}"
                else:
                    if opt.choices is None or value in opt.choices:
                        if running and getattr(args, opt.dest) is None:
                            setattr(args, opt.dest, value)
                        continue
                    problem = f"must be one of {', '.join(opt.choices)}, got {value!r}"
            problems.append((f"methods.{command}.{key}", problem))
    if problems:
        raise ValidationError(
            "invalid configuration: " + "; ".join(f"{f}: {p}" for f, p in problems),
            fields=[f for f, _ in problems],
        )


def _resolve_ctx(parser, args) -> _Ctx:
    config = RunConfig.from_json(args.config) if args.config else RunConfig()
    seed = args.seed if args.seed is not None else config.seed
    out_dir = args.out_dir or config.out_dir or "."
    # per-method defaults from the config, flags win
    _method_defaults(parser, args, config.methods)
    if args.command == "bootstrap-error" and args.n_learn is None and config.l_n:
        args.n_learn = config.l_n
    return _Ctx(seed=int(seed), out_dir=out_dir, dry_run=bool(args.dry_run))


_PRIVATE_ARGS = ("command", "config", "report", "dry_run", "seed", "out_dir")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        ctx = _resolve_ctx(parser, args)
        if ctx.dry_run:
            settings = {
                k: v for k, v in sorted(vars(args).items()) if k not in _PRIVATE_ARGS
            }
            settings["dry_run"] = True
            results, artifacts = {}, []
        else:
            settings, results, artifacts = _HANDLERS[args.command](args, ctx)
        report = {
            "command": args.command,
            "version": _version(),
            "seed": ctx.seed,
            "settings": settings,
            "results": results,
            "timings": {"total_s": time.perf_counter() - started},
            "artifacts": artifacts,
        }
        text = json.dumps(report, default=_plain, indent=2, sort_keys=True)
        print(text)
        if args.report:
            with open(ctx.path(args.report), "w") as fh:
                fh.write(text + "\n")
        return 0
    except UqError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ValidationError):
            payload["fields"] = list(exc.fields)
        if isinstance(exc, InfeasibleError) and exc.min_delta is not None:
            payload["min_delta"] = exc.min_delta
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
