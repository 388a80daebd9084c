"""The two command-line workloads: the README pipeline at N=1e5 and at N=1e6.

Each pass runs the subcommands one after another in a fresh directory, each
in its own interpreter, exactly as a user types them (``python -m uqim.cli``
stands in for the ``uqim`` console script, which needs an install).  The
outputs are then checked by code in this file, not by the layer under test.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from common import BENCH, SRC, PassResult, digest, import_groups, order_statistic, run_child
from spans import self_times

ORACLE_ALPHA = 0.95
RUN = "--exp run/exp.csv --model run/model.json --inputs run/inputs.csv"

# (stage, argv, expected outcome); {seed} and {count} are filled per workload
README_STEPS = [
    ("inputs", "synth --system mafds --bias-kind linear --n-exp 50 --n-sim 200 "
               "--seed {seed} --out-dir run", "ok"),
    ("inputs", "gen-inputs --count {count} --dist mvn --from run/sim.csv --columns x1 "
               "--out inputs.csv --out-dir run", "ok"),
    ("surrogate", "fit-surrogate --sim run/sim.csv --exp run/exp.csv --family spline1d "
                  "--size 8 --res-family poly --res-size 1 --weighted --out model.json "
                  "--out-dir run", "ok"),
    ("output_law", "density --model run/model.json --inputs run/inputs.csv "
                   "--bandwidth auto --grid 0.05:0.12:200 --out-dir run", "ok"),
    ("output_law", "quantile --model run/model.json --inputs run/inputs.csv "
                   "--alpha 0.95,0.99", "ok"),
    ("model_error", "avm --exp run/exp.csv --sim run/sim.csv", "ok"),
    ("model_error", "gp-error --exp run/exp.csv --model run/model.json --alpha 0.95", "ok"),
    ("model_error", "bootstrap-error --exp run/exp.csv --model run/model.json "
                    "--family poly --size 1 --b-reps 500 --n-learn 10 --out-dir run", "ok"),
    ("confidence", "ci-quantile --check-only --n 100 --alpha 0.95 --delta 0.05", "ok"),
    # the README's own example: n_exp=50 cannot reach delta=0.05, and the CLI
    # must say so with the minimal workable delta rather than a traceback
    ("confidence", f"ci-quantile {RUN} --alpha 0.95 --delta 0.05 --sweep", "infeasible"),
    ("confidence", f"ci-quantile {RUN} --alpha 0.95 --delta 0.2 --sweep", "ok"),
    ("confidence", f"density-band {RUN} --kappa 0.005 --delta 0.05 --out-dir run", "ok"),
]

LARGE_STEPS = [
    s for s in README_STEPS
    if not s[1].startswith("ci-quantile --check-only") and s[2] == "ok"
]

# start-up probes: argparse and the report, no work; five per pass because a
# single ~1 s start-up varies by about 20% on a shared VM
PROBES = [
    "synth --dry-run",
    "gen-inputs --count 10 --dry-run",
    "fit-surrogate --sim run/sim.csv --dry-run",
    "quantile --alpha 0.95 --dry-run",
    f"density-band {RUN} --kappa 0.005 --delta 0.05 --dry-run",
]

ORACLE_CODE = (
    "import json, uqim, uqim.cli; "
    f"print(json.dumps(uqim.make_mafds_like(bias_kind='linear').true_quantile({ORACLE_ALPHA})))"
)


@dataclass
class Op:
    key: str
    stage: str
    argv: list
    expect: str

    @property
    def command(self) -> str:
        return self.argv[0]


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class CliWorkload:
    def __init__(self, steps, count: int, seed: int, root: Path):
        self.count = count
        self.seed = seed
        self.root = root
        self.ops = [
            Op(f"{i:02d}-{argv.split()[0]}", stage,
               argv.format(seed=seed, count=count).split(), expect)
            for i, (stage, argv, expect) in enumerate(steps)
        ]
        self.oracle = None
        self.startup_s: list = []  # untraced --dry-run wall times

    # -- set-up -----------------------------------------------------------

    def setup(self, index: int) -> None:
        """Fresh work directory plus one warm-up call that also yields the oracle."""
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        child = run_child([sys.executable, "-c", ORACLE_CODE], self.root,
                          self.root / f"setup-{index}")
        if child.code != 0:
            raise RuntimeError(f"oracle/warm-up call failed: {child.stderr.strip()}")
        self.oracle = float(json.loads(child.stdout))

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    # -- passes -----------------------------------------------------------

    def _command(self, traced: bool, spans_file: Path, pass_id: int) -> list:
        if traced:
            return [sys.executable, str(BENCH / "launch.py"), str(spans_file),
                    str(pass_id), "--"]
        return [sys.executable, "-m", "uqim.cli"]

    def run_pass(self, pass_id: int, traced: bool) -> PassResult:
        pdir = self.root / f"pass-{pass_id}"
        pdir.mkdir()
        children = []
        stages = defaultdict(float)
        start = time.perf_counter()
        for op in self.ops:
            spans_file = pdir / f"{op.key}.spans.json"
            child = run_child(self._command(traced, spans_file, pass_id) + op.argv,
                              pdir, pdir / op.key)
            children.append(child)
            stages[op.stage] += child.wall_s
        pipeline = time.perf_counter() - start

        imports = []
        for i, probe in enumerate(PROBES):
            cmd = [sys.executable] + (["-X", "importtime"] if traced else [])
            child = run_child(cmd + ["-m", "uqim.cli"] + probe.split(), pdir,
                              pdir / f"probe-{i}")
            ok = child.code == 0 and json.loads(child.stdout)["settings"].get("dry_run")
            if not ok:
                raise RuntimeError(f"start-up probe failed: {child.stderr.strip()[-500:]}")
            if traced:
                imports.append(import_groups(child.stderr))
            else:
                self.startup_s.append(child.wall_s)

        checker = _Checks(self, pdir)
        failures, results = {}, []
        for op, child in zip(self.ops, children):
            failures[op.key], payload = checker.check(op, child)
            results.append(payload)
        result = PassResult(
            pipeline_s=pipeline,
            stages=dict(stages),
            peak_rss_mb=max(c.maxrss_mb for c in children),
            failures=failures,
            results_digest=digest(results),
            extras={
                **checker.extras,
                **{f"cli.cmd.{k}_s": v for k, v in _by_command(self.ops, children).items()},
            },
        )
        if traced:
            self._add_trace(result, pdir, children, imports, checker)
        shutil.rmtree(pdir, ignore_errors=True)
        return result

    def _add_trace(self, result, pdir, children, imports, checker) -> None:
        selfs, counts = defaultdict(float), defaultdict(int)
        startup = 0.0
        for op, child in zip(self.ops, children):
            data = json.loads((pdir / f"{op.key}.spans.json").read_text())
            for name, value in self_times(data["spans"]).items():
                selfs[name] += value
            for name, value in data["counts"].items():
                counts[name] += value
            counts["trace.spans"] += len(data["spans"])
            main = next(s for s in data["spans"] if s["name"] == "cli.main")
            startup += child.wall_s - (main["end"] - main["start"])
        counts.update(checker.counts)
        result.self_times = dict(selfs)
        result.counts = dict(counts)
        result.cli_startup_s = startup
        result.imports = {g: float(np.median([i[g] for i in imports])) for g in imports[0]}


def _by_command(ops, children) -> dict:
    out = defaultdict(float)
    for op, child in zip(ops, children):
        out[op.command] += child.wall_s
    return dict(out)


class _Checks:
    """Output checks for one pass, computed from the artifacts on disk."""

    def __init__(self, workload: CliWorkload, pdir: Path):
        self.wl = workload
        self.run = pdir / "run"
        self.extras: dict = {}
        self.counts: dict = {}

    # lazily loaded views of the pass's artifacts
    @cached_property
    def exp(self):
        return _table(self.run / "exp.csv")

    @cached_property
    def sim(self):
        return _table(self.run / "sim.csv")

    @cached_property
    def model(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from uqim import load_model

        return load_model(self.run / "model.json")

    @cached_property
    def inputs(self):
        return _table(self.run / "inputs.csv")

    @cached_property
    def outputs(self):
        return np.asarray(self.model(self.inputs), dtype=float)

    @cached_property
    def beta_hat(self):
        return float(np.max(np.abs(self.exp[:, -1] - self.model(self.exp[:, :-1]))))

    def check(self, op: Op, child) -> tuple[list, object]:
        """Failed checks of one operation, and the payload compared across runs."""
        if op.expect == "infeasible":
            return self._infeasible(child)
        if child.code != 0:
            return [f"exit {child.code}: {child.stderr.strip()[-300:]}"], None
        try:
            report = json.loads(child.stdout)
        except json.JSONDecodeError:
            return ["stdout is not one JSON report"], None
        res = report.get("results", {})
        handler = getattr(self, "_" + op.command.replace("-", "_"))
        try:
            failed = [msg for ok, msg in handler(res, op) if not ok]
        except (OSError, ValueError, KeyError, TypeError, ImportError) as exc:
            failed = [f"check raised {type(exc).__name__}: {exc}"]
        return failed, res

    def _infeasible(self, child):
        try:
            err = json.loads(child.stderr.strip().splitlines()[-1])
        except (json.JSONDecodeError, IndexError):
            return [f"exit {child.code} without a JSON error"], None
        min_delta = err.get("min_delta")
        self.extras["ci_min_delta"] = min_delta
        ok = (
            child.code != 0
            and err.get("error") == "InfeasibleError"
            and isinstance(min_delta, float)
            and 0.05 < min_delta < 1.0
        )
        return ([] if ok else [f"expected InfeasibleError with min_delta in (0.05, 1): {err}"],
                err)

    # one method per subcommand: yields (passed, message)

    def _synth(self, res, op):
        yield math.isclose(res["true_quantile"], self.wl.oracle, rel_tol=1e-12), \
            f"true_quantile {res['true_quantile']} != oracle {self.wl.oracle}"
        yield self.exp.shape[0] == 50 and self.sim.shape[0] == 200, "dataset row counts"
        yield np.isfinite(self.exp).all() and np.isfinite(self.sim).all(), "non-finite data"

    def _gen_inputs(self, res, op):
        yield res["count"] == self.wl.count, f"count {res['count']}"
        rows = self.inputs.shape[0]
        yield rows == self.wl.count and np.isfinite(self.inputs).all(), f"{rows} rows in inputs.csv"

    def _fit_surrogate(self, res, op):
        yield res["penalty"] >= 0 and 0.0 <= res["weight"] <= 1.0, "penalty/weight range"
        yield np.isfinite(self.model(self.exp[:, :-1])).all(), "model predicts non-finite"

    def _density(self, res, op):
        d = _table(self.run / "density.csv")
        yield res["count"] == self.wl.count, "kde sample size"
        yield bool(np.all(np.diff(d[:, 0]) > 0)), "grid not increasing"
        yield bool(np.all(d[:, 1] >= 0) and np.isfinite(d[:, 1]).all()), "pdf < 0"
        yield bool(np.all((d[:, 2] >= 0) & (d[:, 2] <= 1))), "cdf outside [0, 1]"
        yield bool(np.all(np.diff(d[:, 2]) >= 0)), "cdf decreases"

    def _quantile(self, res, op):
        for entry in res["quantiles"]:
            want = order_statistic(self.outputs, entry["alpha"])
            yield entry["value"] == want, f"q{entry['alpha']} {entry['value']} != {want}"
            if entry["alpha"] == ORACLE_ALPHA:
                self.extras["q95_rel_err"] = abs(want - self.wl.oracle) / abs(self.wl.oracle)

    def _avm(self, res, op):
        from scipy.stats import wasserstein_distance

        want = wasserstein_distance(self.exp[:, -1], self.sim[:, -1])
        yield math.isclose(res["exact"], want, rel_tol=1e-9), f"exact {res['exact']} != {want}"

    def _gp_error(self, res, op):
        q = np.asarray(res["quantiles"])
        yield q.size == res["reps"] and bool(np.all(q >= 0)), "error quantiles"
        yield res["error_quantile_median"] == float(np.median(q)), "median of quantiles"
        yield res["lam"] > 0 and res["sigma2"] > 0, "variance parameters"

    def _bootstrap_error(self, res, op):
        q = np.asarray(res["quantiles"])
        rows = _table(self.run / "bootstrap_quantiles.csv").shape[0]
        yield q.size == res["b_reps"] == rows and bool(np.all(q >= 0)), "replicate quantiles"
        yield res["median"] == float(np.median(q)), "median of quantiles"

    def _ci_quantile(self, res, op):
        if "--check-only" in op.argv:
            yield isinstance(res["feasible"], bool) and res["entries"], "feasibility entries"
            return
        plug_in = order_statistic(self.outputs, ORACLE_ALPHA)
        yield res["lower"] <= plug_in <= res["upper"], \
            f"[{res['lower']}, {res['upper']}] misses plug-in {plug_in}"
        yield math.isclose(res["beta_hat"], self.beta_hat, rel_tol=1e-12), "beta_hat"
        yield res["n"] == 50 and res["big_n"] == self.wl.count, "sample sizes"

    def _density_band(self, res, op):
        b = _table(self.run / "band.csv")
        grid, lower, upper = b[:, 0], b[:, 1], b[:, 2]
        yield bool(np.all(lower <= upper)), "band lower > upper"
        yield bool(np.all(lower >= 0) and np.isfinite(upper).all()), "band bounds"
        yield math.isclose(res["beta_hat"], self.beta_hat, rel_tol=1e-12), "beta_hat"
        beta = res["beta_hat"]
        out = self.outputs
        self.counts["confidence.band_grid_points"] = int(grid.size)
        self.counts["confidence.band_candidates"] = int(
            np.unique(np.concatenate([out, out - beta, out + beta, grid])).size
        )
