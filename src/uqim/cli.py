"""Command line front end.

Every subcommand prints one JSON report to stdout:

    {"command": ..., "version": ..., "seed": ..., "settings": {...},
     "results": {...}, "artifacts": [...], "timings": {...}}

The ``results`` block is deterministic for a given seed (timings are not).
Failures print a one-line JSON error object to stderr and exit 1.  A reader
that closes stdout early gets exit 1 and nothing on stderr; a ``--report``
file is written in full first.  Relative artifact paths are resolved under
``--out-dir``.

The parser declares every option's type and default once.  A ``--config``
JSON file supplies seed/out-dir, ``l_n`` for the bootstrap learn size, and
per-subcommand values through its method blocks; :func:`_config_defaults`
alone reads and checks it, and reports every problem in the file in one
error.  The running subcommand's block becomes its parser defaults and
``argv`` is parsed again, so a flag beats the config, which beats the
parser's default.  ``settings`` echoes the resolved options, the same with
and without ``--dry-run``; each handler returns only its results and
artifacts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import uqim
from .errors import DataError, DomainError, InfeasibleError, UqError, ValidationError

# Every layer is reached as uqim.<name>: the package loads the layer module on
# first use (uqim/__init__.py), so a process starts on the running
# subcommand's layers only.  --dry-run, --version, --help, argument errors, a
# bad --config and a seed out of range load none of them, and no numpy.


def __getattr__(name: str):
    # uqim.cli.<name> still resolves a public name through the package;
    # perfbench's span test calls uqim.cli.mc_quantile
    if name in uqim.__all__:
        return getattr(uqim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# report plumbing


def _plain(obj):
    """json.dumps ``default``: numpy arrays and scalars as Python values."""
    np = sys.modules.get("numpy")  # none can be in a report unless numpy is loaded
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# small argument parsers


def _floats(text: str) -> list[float]:
    try:
        values = [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        values = None
    if not values or not all(map(math.isfinite, values)):
        raise DomainError(f"expected comma-separated finite numbers, got {text!r}")
    return values


def _float(text: str, flag: str) -> float:
    values = _floats(text)
    if len(values) != 1:
        raise DomainError(f"{flag} expects one number, got {text!r}")
    return values[0]


def _names(text: str) -> list[str]:
    return [v.strip() for v in str(text).split(",") if v.strip() != ""]


def _parse_span(text: str) -> tuple[float, float]:
    parts = _floats(str(text).replace(":", ","))
    if len(parts) != 2 or not parts[0] < parts[1]:
        raise DomainError(f"expected lo:hi with lo < hi, got {text!r}")
    return parts[0], parts[1]


def _parse_ranges(text: str) -> list[tuple[float, float]]:
    return [_parse_span(part) for part in _names(text)]


def _load_dataset(args, role):
    """The --exp or --sim (``role``) dataset, as --input-columns and --output-column pick."""
    cols = _names(args.input_columns) if args.input_columns else None
    kind = "experimental" if role == "exp" else "simulated"
    return uqim.parse_dataset(getattr(args, role), cols, args.output_column, kind)


def _single_column(path) -> np.ndarray:
    sample = uqim.parse_inputs(path)
    if sample.dim != 1:
        raise DataError(f"{path}: expected one column, found {sample.dim}")
    return sample.points[:, 0]


# ---------------------------------------------------------------------------
# subcommand handlers: each reads its options from ``args`` and returns
# (results, artifacts)


def _artifact(args, name) -> str:
    """``name`` resolved under --out-dir unless absolute; its directory made."""
    p = str(name)
    if not os.path.isabs(p):
        p = os.path.join(args.out_dir, p)
    os.makedirs(os.path.dirname(p) or ".", exist_ok=True)
    return p


def _unread(args, mode, *names):
    """A DomainError naming each option of ``names`` that is set: ``mode`` never reads it."""
    given = [f"--{name.replace('_', '-')}" for name in names
             if getattr(args, name) is not None and getattr(args, name) is not False]
    if given:
        raise DomainError(f"{', '.join(given)}: not read {mode}")


def _model_outputs(model, inputs_path) -> np.ndarray:
    return model(uqim.parse_inputs(inputs_path).points)


def _cmd_gen_inputs(args):
    dist = args.dist
    if dist is None:  # a Latin hypercube when only --ranges gives the law
        dist = "lhs" if args.ranges and not args.from_data else "mvn"
    sample = None
    if args.from_data:
        columns = _names(args.columns) if args.columns else None
        sample = uqim.parse_inputs(args.from_data, columns)
    if dist == "mvn":
        if sample is None:
            raise DomainError("--dist mvn needs --from <csv>")
        params = uqim.estimate_mvn(sample.points)
        pts = uqim.sample_mvn(params, args.count, args.seed)
        names = sample.names
        extra = {"mean": params.mean, "cov": params.cov}
    else:
        if args.ranges:
            ranges = _parse_ranges(args.ranges)
        elif sample is not None:
            ranges = list(zip(sample.points.min(axis=0), sample.points.max(axis=0)))
        else:
            raise DomainError("--dist lhs needs --ranges or --from <csv>")
        pts = uqim.latin_hypercube(ranges, args.count, args.seed)
        names = sample.names if sample is not None else ()
        extra = {"ranges": [list(map(float, r)) for r in ranges]}
    out = _artifact(args, args.output)
    uqim.write_inputs(uqim.InputSample(points=pts, names=names), out)
    return {"count": args.count, "dim": pts.shape[1], "dist": dist, **extra}, [out]


def _cmd_fit_surrogate(args):
    sim = _load_dataset(args, "sim")
    if args.penalty is None:
        grid = _floats(args.penalty_grid) if args.penalty_grid else None
        base = uqim.fit_with_gcv(uqim.FunctionFamily(args.family, args.size), sim, grid=grid)
    else:
        family = uqim.FunctionFamily(args.family, args.size, args.penalty)
        base = uqim.fit_penalized_ls(family, sim)
    model = base
    results = {
        "family": base.family.kind,
        "size": base.family.size,
        "penalty": base.family.penalty,
        "train_size": base.train_size,
        "gcv": base.cv_score,
    }
    if args.exp:
        expd = _load_dataset(args, "exp")
        residuals = uqim.compute_residuals(base, expd)
        # the residual family defaults to the base's kind and size
        res_family = uqim.FunctionFamily(
            base.family.kind if args.res_family is None else args.res_family,
            base.family.size if args.res_size is None else args.res_size,
        )
        extra = (
            uqim.parse_inputs(args.extra_inputs).points if args.extra_inputs else sim.inputs
        )
        if args.weight_grid:
            w_grid = _floats(args.weight_grid)
        elif args.weighted:
            w_grid = None
        else:
            # no --weighted: fix w=1 so only the penalty is cross-validated
            w_grid = [1.0]
        sel = uqim.select_weight_and_penalty(
            res_family,
            expd,
            residuals,
            extra,
            w_grid=w_grid,
            penalty_grid=_floats(args.res_penalty_grid) if args.res_penalty_grid else None,
            folds=args.folds,
            seed=args.seed,
        )
        model = uqim.improved_surrogate(base, sel.model, weight=sel.weight)
        results.update(
            {
                "weight": sel.weight,
                "residual_penalty": sel.penalty,
                "cv_risk": sel.cv_risk,
                "residual_family": res_family.kind,
                "residual_size": res_family.size,
            }
        )
    out = _artifact(args, args.model_out)
    uqim.save_model(model, out)
    return results, [out]


def _cmd_density(args):
    import numpy as np

    steps, span = args.grid_steps, None
    if args.grid:
        parts = _floats(str(args.grid).replace(":", ","))
        if len(parts) not in (2, 3) or not parts[0] < parts[1]:
            raise DomainError(f"--grid expects lo:hi or lo:hi:steps with lo < hi, "
                              f"got {args.grid!r}")
        span, steps = parts[:2], parts[2] if len(parts) == 3 else steps
    steps = uqim.data._count(steps, "grid steps", least=2)
    auto = args.bandwidth.strip().lower() == "auto"
    bandwidth = None if auto else _float(args.bandwidth, "--bandwidth")
    model, points = uqim.load_model(args.model), uqim.parse_inputs(args.inputs).points
    kde = uqim.surrogate_density(model, points, bandwidth=bandwidth)
    if span is None:
        pad = 3.0 * kde.bandwidth
        span = kde.values[0] - pad, kde.values[-1] + pad
    lo, hi = span
    grid = np.linspace(lo, hi, steps)
    pdf = uqim.kde_evaluate(kde, grid)
    cdf = uqim.kde_cdf(kde, grid)
    out = _artifact(args, args.output)
    uqim.data._write_table(out, ["y", "pdf", "cdf"], [grid, pdf, cdf])
    results = {
        "bandwidth": kde.bandwidth,
        "count": int(kde.values.size),
        "grid_lo": float(lo),
        "grid_hi": float(hi),
        "grid_steps": steps,
    }
    return results, [out]


def _cmd_quantile(args):
    if bool(args.outputs) == bool(args.model):
        raise DomainError("give either --outputs or --model with --inputs")
    if args.outputs:
        _unread(args, "with --outputs", "inputs")
        values = _single_column(args.outputs)
    else:
        if not args.inputs:
            raise DomainError("--model needs --inputs")
        values = _model_outputs(uqim.load_model(args.model), args.inputs)
    entries = []
    for a in _floats(args.alpha):
        est = uqim.mc_quantile(values, a)
        entries.append({"alpha": est.level, "value": est.value})
    return {"count": int(values.size), "quantiles": entries}, []


def _cmd_avm(args):
    expd = _load_dataset(args, "exp")
    simd = _load_dataset(args, "sim")
    res = uqim.avm(expd.outputs, simd.outputs, grid_steps=args.grid_steps)
    results = {
        "riemann": res.riemann,
        "exact": res.exact,
        "grid_steps": res.grid_steps,
        "lo": res.lo,
        "hi": res.hi,
    }
    return results, []


def _cmd_gp_error(args):
    expd = _load_dataset(args, "exp")
    model = uqim.load_model(args.model)
    data = uqim.DiscrepancyData(
        inputs=expd.inputs,
        model_outputs=model(expd.inputs),
        observed=expd.outputs,
    )
    seed_fit, seed_q = uqim.spawn_seeds(args.seed, 2)
    fit = uqim.gp_fit_map(
        data,
        restarts=args.restarts,
        maxiter=args.maxiter,
        seed=seed_fit,
    )
    eq = uqim.gp_error_quantile(fit.params, data, args.alpha, reps=args.reps, seed=seed_q)
    results = {
        "lam": fit.params.lam,
        "beta": fit.params.beta,
        "sigma2": fit.params.sigma2,
        "omegas": list(fit.params.omegas),
        "objective": fit.objective,
        "jitter": fit.jitter,
        "error_quantile_median": eq.median,
        "alpha": args.alpha,
        "reps": args.reps,
        "quantiles": eq.quantiles,
    }
    return results, []


def _cmd_bootstrap_error(args):
    expd = _load_dataset(args, "exp")
    model = uqim.load_model(args.model)
    extra = uqim.parse_inputs(args.extra_inputs).points if args.extra_inputs else None
    report = uqim.bootstrap_error_quantile(
        expd,
        model,
        uqim.FunctionFamily(args.family, args.size, args.penalty),
        b_reps=args.b_reps,
        n_learn=args.n_learn,
        alpha=args.alpha,
        seed=args.seed,
        extra_inputs=extra,
        weight=args.weight,
    )
    out = _artifact(args, args.output)
    uqim.data._write_table(out, ["quantile"], [report.quantiles])
    results = {
        "median": report.median,
        "alpha": report.alpha,
        "b_reps": report.b_reps,
        "n_learn": report.n_learn,
        "q_min": float(report.quantiles.min()),
        "q_max": float(report.quantiles.max()),
        "quantiles": report.quantiles,
    }
    return results, [out]


def _cmd_ci_quantile(args):
    if args.check_only:
        _unread(args, "with --check-only", "model", "inputs", "sweep")
        if (args.n is None) == (not args.exp):
            raise DomainError("--check-only needs either --n or --exp")
        n = _load_dataset(args, "exp").n if args.n is None else args.n
        grid = _floats(args.d_delta) if args.d_delta else None
        rep = uqim.ci_feasibility(n, args.alpha, args.delta, d_delta_grid=grid,
                                  big_n=args.big_n)
        results = {
            "n": n,
            "feasible": rep.feasible,
            "best_d_delta": rep.best_d_delta,
            "best_objective": rep.best_objective,
            "entries": [vars(e) for e in rep.entries],
        }
        return results, []
    for name in ("exp", "model", "inputs"):
        if not getattr(args, name):
            raise DomainError(f"--{name} is required unless --check-only")
    _unread(args, "without --check-only", "n", "big_n")
    if args.sweep:
        _unread(args, "with --sweep", "d_delta")
    d_delta = _float(args.d_delta, "--d-delta") if args.d_delta else None
    expd = _load_dataset(args, "exp")
    model = uqim.load_model(args.model)
    outputs = _model_outputs(model, args.inputs)
    ci = uqim.quantile_ci(
        expd, model, outputs, args.alpha, args.delta, d_delta=d_delta, sweep=args.sweep
    )
    screen = uqim.ci_feasibility(ci.n, args.alpha, args.delta, big_n=float(ci.big_n))
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
    return results, []


def _cmd_density_band(args):
    expd = _load_dataset(args, "exp")
    model = uqim.load_model(args.model)
    outputs = _model_outputs(model, args.inputs)
    if args.bandwidths:
        bandwidths = _floats(args.bandwidths)
    else:
        bandwidths = [uqim.select_bandwidth(outputs)]
    if args.interval:
        interval = _parse_span(args.interval)
    else:  # the band covers the range of the outputs
        interval = (float(outputs.min()), float(outputs.max()))
    band = uqim.density_band(
        outputs,
        expd,
        model,
        kappa=args.kappa,
        delta=args.delta,
        bandwidths=bandwidths,
        interval=interval,
        grid_steps=args.grid_steps,
    )
    out = _artifact(args, args.output)
    uqim.data._write_table(out, ["y", "lower", "upper"], [band.grid, band.lower, band.upper])
    results = {
        "kappa": band.kappa,
        "delta": band.delta,
        "bandwidths": list(band.bandwidths),
        "interval": list(interval),
        "beta_hat": band.beta_hat,
        "eps": band.eps,
        "gamma": band.gamma,
        "correction": band.correction,
        "n": band.n,
        "big_n": band.big_n,
        "upper_max": float(band.upper.max()),
        "lower_max": float(band.lower.max()),
    }
    return results, [out]


def _cmd_synth(args):
    if args.system == "field":
        ds = uqim.field_measurements()
        out = _artifact(args, args.exp_out)
        uqim.write_dataset(ds, out)
        return {"n": ds.n, "dim": ds.dim, "columns": list(ds.input_names)}, [out]
    # an option left unset keeps the system's own default
    names = ("bias_kind", "bias_scale", "sigma_obs")
    kwargs = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    make = uqim.make_mafds_like if args.system == "mafds" else uqim.make_hidim_like
    sys_ = make(**kwargs)
    # the truth quantile draws from its own stream; computed first, a bad
    # alpha or mc_count fails before any file is written
    if sys_.quantile_fn is not None:
        truth_q = sys_.true_quantile(args.alpha)
    else:
        truth_q = uqim.mc_truth_quantile(sys_, args.alpha, count=args.mc_count,
                                         seed=args.seed)
    seed_exp, seed_sim = uqim.spawn_seeds(args.seed, 2)
    expd = sys_.draw_experiment(args.n_exp, seed_exp)
    simd = sys_.draw_simulation(args.n_sim, seed_sim)
    exp_out, sim_out = _artifact(args, args.exp_out), _artifact(args, args.sim_out)
    uqim.write_dataset(expd, exp_out)
    uqim.write_dataset(simd, sim_out)
    results = {
        "system": sys_.name,
        "dim": sys_.dim,
        "true_quantile": truth_q,
        "alpha": args.alpha,
        **{k: getattr(sys_, k) for k in names},
    }
    return results, [exp_out, sim_out]


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

_FAMILIES = ["spline1d", "rbf", "poly"]  # surrogate.FAMILY_KINDS, without loading it


def _add_data_flags(p):
    p.add_argument("--input-columns", help="comma-separated input column names")
    p.add_argument("--output-column", help="output column name (default: last)")


def build_parser() -> argparse.ArgumentParser:
    """The parser holds every option's type and default; an option whose
    default is None is worked out from the data or from other options."""
    top = argparse.ArgumentParser(
        prog="uqim",
        description="Uncertainty quantification with imperfect simulation models.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {uqim.__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument("--out-dir", default=".", help="directory for artifacts")
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--report", default=None, help="also write the report here")
    common.add_argument("--dry-run", action="store_true",
                        help="print settings without computing")
    sub = top.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[common])

    p = add("gen-inputs", help="draw an input sample (estimated MVN or LHS)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--dist", choices=["mvn", "lhs"],
                   help="default: lhs with --ranges and no --from, else mvn")
    p.add_argument("--from", "--from-data", dest="from_data",
                   help="CSV whose columns define the input law")
    p.add_argument("--columns", help="columns of --from to use")
    p.add_argument("--ranges", help="lo:hi[,lo:hi...] for Latin hypercube")
    p.add_argument("--out", "--output", dest="output", default="inputs.csv")

    p = add("fit-surrogate", help="penalized LS surrogate, optionally improved")
    p.add_argument("--sim", required=True, help="simulated dataset CSV")
    p.add_argument("--exp", help="experimental dataset CSV")
    _add_data_flags(p)
    p.add_argument("--family", choices=_FAMILIES, default="spline1d")
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--penalty", type=float, help="fixed penalty (default: GCV)")
    p.add_argument("--penalty-grid", help="GCV penalty grid, comma-separated")
    p.add_argument("--res-family", choices=_FAMILIES, help="default: --family")
    p.add_argument("--res-size", type=int, help="default: --size")
    p.add_argument("--res-penalty-grid")
    p.add_argument("--weighted", action="store_true",
                   help="cross-validate the anchor weight too")
    p.add_argument("--weight-grid")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--extra", "--extra-inputs", dest="extra_inputs",
                   help="inputs CSV for the zero anchor term")
    p.add_argument("--out", "--model-out", dest="model_out", default="model.json")

    p = add("density", help="box-kernel KDE of surrogate outputs on an input sample")
    p.add_argument("--model", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--bandwidth", default="auto", help="numeric value or 'auto'")
    p.add_argument("--grid", help="lo:hi or lo:hi:steps evaluation span")
    p.add_argument("--grid-steps", type=int, default=201)
    p.add_argument("--out", "--output", dest="output", default="density.csv")

    p = add("quantile", help="plug-in quantile of surrogate outputs")
    p.add_argument("--model")
    p.add_argument("--inputs")
    p.add_argument("--outputs", help="single-column CSV of precomputed outputs")
    p.add_argument("--alpha", required=True, help="level(s), comma-separated")

    p = add("avm", help="area between experimental and simulated ECDFs")
    p.add_argument("--exp", required=True)
    p.add_argument("--sim", required=True)
    _add_data_flags(p)
    p.add_argument("--grid-steps", type=int, default=10_000)

    p = add("gp-error", help="GP discrepancy MAP fit and error quantile")
    p.add_argument("--exp", required=True)
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--maxiter", type=int, default=200)
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--reps", type=int, default=10_000)

    p = add("bootstrap-error", help="bootstrap the residual-model error quantile")
    p.add_argument("--exp", required=True)
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--family", choices=_FAMILIES, default="poly")
    p.add_argument("--size", type=int, default=1)
    p.add_argument("--penalty", type=float, default=0.0)
    p.add_argument("--b-reps", type=int, default=500)
    p.add_argument("--n-learn", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--weight", type=float, help="anchor weight (default: unanchored)")
    p.add_argument("--extra-inputs")
    p.add_argument("--output", default="bootstrap_quantiles.csv")

    p = add("ci-quantile", help="finite-sample quantile confidence interval")
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

    p = add("density-band", help="simultaneous confidence band for the output density")
    p.add_argument("--exp", required=True)
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--bandwidths", help="comma-separated (default: rule of thumb)")
    p.add_argument("--interval", help="lo:hi band support (default: output range)")
    p.add_argument("--grid-steps", type=int, default=200)
    p.add_argument("--output", default="band.csv")

    p = add("synth", help="draw synthetic benchmark datasets")
    p.add_argument("--system", choices=["mafds", "hidim", "field"], default="mafds")
    # the bias and noise defaults differ per system
    p.add_argument("--bias-kind", choices=["constant", "linear", "smooth"])
    p.add_argument("--bias-scale", type=float)
    p.add_argument("--sigma-obs", type=float)
    p.add_argument("--n-exp", type=int, default=10)
    p.add_argument("--n-sim", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--mc-count", type=int, default=100_000,
                   help="Monte Carlo draws of the hidim truth quantile")
    p.add_argument("--exp-out", default="exp.csv")
    p.add_argument("--sim-out", default="sim.csv")

    return top


def _subparsers(parser) -> dict:
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def _config_defaults(parser, command: str, path) -> dict:
    """Read and check the JSON config at ``path``; return the running
    subcommand's option defaults.

    The top-level keys ``seed``, ``l_n`` (the bootstrap learn size) and
    ``out_dir`` are scalars; every other key is a method block, an object
    named after a subcommand.  Each block value goes through its option's own
    ``type`` and ``choices``, as a command-line string would; a
    ``store_true`` flag takes a JSON bool.  A key that names no option of its
    subcommand is an error.  The blocks of the other subcommands are checked
    alike but set nothing, a block beats ``l_n``, and every problem in the
    file is reported in one ValidationError.  The global flags are no block
    keys: seed and out_dir are top-level keys.
    """
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ValidationError("configuration root must be a JSON object")

    def whole(value):  # a JSON integer; true and false are no numbers here
        return isinstance(value, int) and not isinstance(value, bool)

    seed = config.pop("seed", 0)
    problems, defaults = [], {"seed": seed}
    if not whole(seed) or not 0 <= seed <= _UINT64_MAX:
        problems.append(("seed", f"must be an integer in [0, 2^64-1], got {seed!r}"))
    l_n = config.pop("l_n", None)
    if l_n is not None and (not whole(l_n) or l_n < 1):
        problems.append(("l_n", f"must be a positive integer, got {l_n!r}"))
    elif l_n and command == "bootstrap-error":
        defaults["n_learn"] = l_n
    out_dir = config.pop("out_dir", None)
    if out_dir is not None and not isinstance(out_dir, str):
        problems.append(("out_dir", f"must be a string, got {out_dir!r}"))
    elif out_dir:
        defaults["out_dir"] = out_dir
    subs = _subparsers(parser)
    for name, block in config.items():
        if name not in subs or not isinstance(block, dict):
            problem = "must be an object" if name in subs else "names no subcommand"
            problems.append((f"methods.{name}", problem))
            continue
        options = {
            a.dest: a
            for a in subs[name]._actions
            if a.option_strings and a.dest not in _PRIVATE_ARGS + ("help",)
        }
        for key, value in block.items():
            opt = options.get(str(key).replace("-", "_"))
            if opt is None:
                problem = f"names no {name} option"
            elif opt.nargs == 0:  # store_true: the flag or the config turns it on
                if isinstance(value, bool):
                    if name == command:
                        defaults[opt.dest] = value
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
                        if name == command:
                            defaults[opt.dest] = value
                        continue
                    problem = f"must be one of {', '.join(opt.choices)}, got {value!r}"
            problems.append((f"methods.{name}.{key}", problem))
    if problems:
        raise ValidationError(
            "invalid configuration: " + "; ".join(f"{f}: {p}" for f, p in problems),
            fields=[f for f, _ in problems],
        )
    return defaults


_UINT64_MAX = 2**64 - 1
_PRIVATE_ARGS = ("command", "config", "report", "dry_run", "seed", "out_dir")


def main(argv=None) -> int:
    parser = build_parser()  # once: a config reparses with the same parser
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.config:
            defaults = _config_defaults(parser, args.command, args.config)
            _subparsers(parser)[args.command].set_defaults(**defaults)
            args = parser.parse_args(argv)
        if not 0 <= args.seed <= _UINT64_MAX:  # the range a config's seed must lie in
            raise DomainError(f"seed must be an integer in [0, 2^64 - 1], got {args.seed}")
        settings = {k: v for k, v in vars(args).items() if k not in _PRIVATE_ARGS}
        settings["dry_run"] = args.dry_run
        results, artifacts = {}, []
        if not args.dry_run:
            results, artifacts = _HANDLERS[args.command](args)
        report = {
            "command": args.command,
            "version": uqim.__version__,
            "seed": args.seed,
            "settings": settings,
            "results": results,
            "timings": {"total_s": time.perf_counter() - started},
            "artifacts": artifacts,
        }
        text = json.dumps(report, default=_plain, indent=2, sort_keys=True)
        if args.report:
            with open(_artifact(args, args.report), "w") as fh:
                fh.write(text + "\n")
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout early; as the Python docs' note on
            # SIGPIPE advises, the exit flush goes to devnull, not a traceback
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
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
