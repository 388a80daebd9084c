"""The in-process workload: names exported by ``uqim`` on the raw-scale 5-d law.

:class:`ApiWorkload` runs in the benchmark process and drives one worker
process (this file run as a script) over a line protocol on stdin/stdout:
the worker prints ``imported`` once ``import uqim`` is done, ``ready`` once
the oracle is computed, then answers each ``pass <id>`` line with one JSON
line.  Each pass times every top-level API call and then checks the outputs.
"""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import (
    BENCH, CHILD_TIMEOUT_S, PassResult, child_env, digest, import_groups, order_statistic,
)

N_INPUTS = 1_000_000
N_EXP, N_SIM = 50, 200
ALPHA = 0.95
# the hidim output spans about 8 units; 0.5 is the README's kappa=0.005 on
# mafds (span about 0.08) carried over to this scale
KAPPA = 0.5


class ApiWorkload:
    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.proc = None
        self.startup_s: list = []  # spawn until ``import uqim`` is done

    # -- parent side ------------------------------------------------------

    def _spawn(self, traced: bool, index: int):
        self.root.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable] + (["-X", "importtime"] if traced else [])
        cmd += [str(BENCH / "api_worker.py"), str(self.seed), str(int(traced)), str(self.root)]
        err_path = self.root / f"worker-{index}.err"
        start = time.perf_counter()
        with open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, env=child_env(), stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err, text=True)
        self._read(proc, "imported")
        imported_s = time.perf_counter() - start
        self._read(proc, "ready")
        return proc, imported_s, err_path

    def _read(self, proc, event: str) -> dict:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise RuntimeError(f"api worker exited with {proc.wait()} before {event!r}")
        msg = json.loads(line)
        if msg.get("event") != event:
            raise RuntimeError(f"api worker sent {msg!r}, expected {event!r}")
        return msg

    def _stop(self, proc) -> None:
        if proc is None:
            return
        try:
            proc.stdin.write("quit\n")
            proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def setup(self, index: int) -> None:
        self._stop(self.proc)
        self.proc, imported_s, _ = self._spawn(False, index)
        self.startup_s.append(imported_s)

    def close(self) -> None:
        self._stop(self.proc)
        self.proc = None

    def _ask(self, proc, pass_id: int) -> dict:
        proc.stdin.write(f"pass {pass_id}\n")
        proc.stdin.flush()
        return self._read(proc, "pass")

    def run_pass(self, pass_id: int, traced: bool) -> PassResult:
        if not traced:
            return _result(self._ask(self.proc, pass_id))
        proc, _, err_path = self._spawn(True, 100 + pass_id)
        try:
            msg = self._ask(proc, pass_id)
        finally:
            self._stop(proc)
        result = _result(msg)
        result.self_times = msg.get("self_times", {})  # absent when a call failed
        result.counts = msg.get("counts", {})
        # the traced worker runs under -X importtime, which slows its imports
        result.cli_startup_s = float(np.median(self.startup_s))
        result.imports = import_groups(err_path.read_text())
        return result


def _result(msg: dict) -> PassResult:
    return PassResult(
        pipeline_s=msg["pipeline_s"],
        stages=msg["stages"],
        peak_rss_mb=msg["peak_rss_mb"],
        failures=msg["failures"],
        results_digest=msg["results_digest"],
        extras=msg["extras"],
    )


# ---------------------------------------------------------------------------
# worker side


class _Pass:
    """Times top-level API calls by stage; the first exception ends the pass."""

    def __init__(self):
        self.stages = {}
        self.calls = []

    def __call__(self, key: str, stage: str, fn, *args, **kwargs):
        self.calls.append(key)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.stages[stage] = self.stages.get(stage, 0.0) + time.perf_counter() - start
        return out


def _api_pass(uqim, system, seed: int, work: Path, call: _Pass) -> dict:
    """One pass of the pipeline; returns what the checks need."""
    family = uqim.FunctionFamily
    seed_exp, seed_sim = uqim.spawn_seeds(seed, 2)
    exp0 = call("draw_experiment", "inputs", system.draw_experiment, N_EXP, seed_exp)
    sim0 = call("draw_simulation", "inputs", system.draw_simulation, N_SIM, seed_sim)
    names, out = list(exp0.input_names), exp0.output_name
    call("write_dataset.exp", "inputs", uqim.write_dataset, exp0, work / "exp.csv")
    call("write_dataset.sim", "inputs", uqim.write_dataset, sim0, work / "sim.csv")
    exp = call("parse_dataset.exp", "inputs", uqim.parse_dataset, work / "exp.csv",
               names, out, kind="experimental")
    sim = call("parse_dataset.sim", "inputs", uqim.parse_dataset, work / "sim.csv",
               names, out, kind="simulated")
    law = call("estimate_mvn", "inputs", uqim.estimate_mvn, sim.inputs)
    x = call("sample_mvn", "inputs", uqim.sample_mvn, law, N_INPUTS, seed)

    base = call("fit_with_gcv", "surrogate", uqim.fit_with_gcv, family("poly", 2), sim)
    resid = call("compute_residuals", "surrogate", uqim.compute_residuals, base, exp)
    sel = call("select_weight_and_penalty", "surrogate", uqim.select_weight_and_penalty,
               family("rbf", 20), exp, resid, sim.inputs, seed=seed)
    fitted = call("improved_surrogate", "surrogate", uqim.improved_surrogate,
                  base, sel.model, weight=sel.weight)
    call("save_model", "surrogate", uqim.save_model, fitted, work / "model.json")
    model = call("load_model", "surrogate", uqim.load_model, work / "model.json")

    kde = call("surrogate_density", "output_law", uqim.surrogate_density, model, x)
    pad = 3.0 * kde.bandwidth
    grid = np.linspace(kde.values[0] - pad, kde.values[-1] + pad, 201)
    pdf = call("kde_evaluate", "output_law", uqim.kde_evaluate, kde, grid)
    cdf = call("kde_cdf", "output_law", uqim.kde_cdf, kde, grid)
    outputs = call("predict", "output_law", model, x)
    q95 = call("mc_quantile.95", "output_law", uqim.mc_quantile, outputs, ALPHA)
    q99 = call("mc_quantile.99", "output_law", uqim.mc_quantile, outputs, 0.99)

    avm = call("avm", "model_error", uqim.avm, exp.outputs, sim.outputs)
    disc = call("discrepancy_data", "model_error", uqim.DiscrepancyData,
                inputs=exp.inputs, model_outputs=model(exp.inputs), observed=exp.outputs)
    seed_fit, seed_q = uqim.spawn_seeds(seed, 2)
    gp = call("gp_fit_map", "model_error", uqim.gp_fit_map, disc,
              beta_mode="closed_form", restarts=20, seed=seed_fit)
    gpq = call("gp_error_quantile", "model_error", uqim.gp_error_quantile,
               gp.params, disc, ALPHA, reps=10_000, seed=seed_q)
    boot = call("bootstrap_error_quantile", "model_error", uqim.bootstrap_error_quantile,
                exp, model, family("poly", 1), b_reps=2000, n_learn=25, alpha=ALPHA,
                seed=seed, threads=2)

    feas = call("ci_feasibility", "confidence", uqim.ci_feasibility, N_EXP, ALPHA, 0.2,
                big_n=float(N_INPUTS))
    ci = call("quantile_ci", "confidence", uqim.quantile_ci, exp, model, outputs,
              ALPHA, 0.2, sweep=True)
    h = call("select_bandwidth", "confidence", uqim.select_bandwidth, outputs)
    interval = (float(np.min(outputs)), float(np.max(outputs)))
    band = call("density_band", "confidence", uqim.density_band, outputs, exp, model,
                kappa=KAPPA, delta=0.05, bandwidths=[h], interval=interval, grid_steps=200)
    return locals()


def _checks(v: dict, oracle: float) -> tuple[dict, dict, dict]:
    """(failed checks per call, results compared across runs, counts)."""
    from scipy.stats import wasserstein_distance

    exp, sim, outputs, model = v["exp"], v["sim"], v["outputs"], v["model"]
    beta_hat = float(np.max(np.abs(exp.outputs - model(exp.inputs))))
    plug95 = order_statistic(outputs, ALPHA)
    ci, band = v["ci"], v["band"]
    checks = {
        "parse_dataset.exp": [
            (np.array_equal(exp.inputs, v["exp0"].inputs)
             and np.array_equal(exp.outputs, v["exp0"].outputs), "CSV round trip")],
        "parse_dataset.sim": [
            (np.array_equal(sim.inputs, v["sim0"].inputs)
             and np.array_equal(sim.outputs, v["sim0"].outputs), "CSV round trip")],
        "sample_mvn": [(v["x"].shape == (N_INPUTS, 5) and np.isfinite(v["x"]).all(),
                        "input sample shape")],
        "load_model": [(np.array_equal(model(exp.inputs), v["fitted"](exp.inputs)),
                        "saved and loaded model disagree")],
        "kde_evaluate": [(bool(np.all(v["pdf"] >= 0)), "pdf < 0")],
        "kde_cdf": [(bool(np.all((v["cdf"] >= 0) & (v["cdf"] <= 1))), "cdf outside [0, 1]"),
                    (bool(np.all(np.diff(v["cdf"]) >= 0)), "cdf decreases")],
        "mc_quantile.95": [(v["q95"].value == plug95, "q0.95 != order statistic")],
        "mc_quantile.99": [(v["q99"].value == order_statistic(outputs, 0.99),
                            "q0.99 != order statistic")],
        "avm": [(math.isclose(v["avm"].exact,
                              wasserstein_distance(exp.outputs, sim.outputs),
                              rel_tol=1e-9), "avm.exact != wasserstein_distance")],
        "gp_error_quantile": [
            (v["gpq"].quantiles.size == 10_000 and bool(np.all(v["gpq"].quantiles >= 0)),
             "error quantiles"),
            (v["gpq"].median == float(np.median(v["gpq"].quantiles)), "median")],
        "bootstrap_error_quantile": [
            (v["boot"].quantiles.size == 2000 and bool(np.all(v["boot"].quantiles >= 0)),
             "replicate quantiles")],
        "ci_feasibility": [(len(v["feas"].entries) > 0, "no feasibility entries")],
        "quantile_ci": [(ci.lower <= plug95 <= ci.upper, "CI misses the plug-in quantile"),
                        (math.isclose(ci.beta_hat, beta_hat, rel_tol=1e-12), "beta_hat")],
        "density_band": [(bool(np.all(band.lower <= band.upper)), "band lower > upper"),
                         (bool(np.all(band.lower >= 0) and np.isfinite(band.upper).all()),
                          "band bounds")],
    }
    failures = {k: [msg for ok, msg in items if not ok] for k, items in checks.items()}
    results = {
        "q95": v["q95"].value, "q99": v["q99"].value,
        "gcv_penalty": v["base"].family.penalty,
        "cv": [v["sel"].weight, v["sel"].penalty, v["sel"].cv_risk],
        "avm": v["avm"].exact,
        "gp": [v["gp"].params.lam, v["gp"].params.beta, v["gp"].params.sigma2,
               v["gp"].objective],
        "gp_error_median": v["gpq"].median, "bootstrap_median": v["boot"].median,
        "ci": [ci.lower, ci.upper], "band": [float(band.lower.max()), float(band.upper.max())],
    }
    counts = {
        "confidence.band_grid_points": int(band.grid.size),
        "confidence.band_candidates": int(np.unique(np.concatenate(
            [outputs, outputs - band.beta_hat, outputs + band.beta_hat, band.grid])).size),
    }
    return failures, results, counts


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def worker_main(seed: int, traced: bool, root: Path) -> int:
    import uqim

    import spans

    _send({"event": "imported"})
    system = uqim.make_hidim_like(bias_kind="linear")
    oracle = uqim.mc_truth_quantile(system, ALPHA, count=N_INPUTS, seed=0)
    rec = spans.Recorder()
    if traced:
        spans.install(rec)
    _send({"event": "ready", "oracle": oracle})
    for line in sys.stdin:
        if line.split()[:1] != ["pass"]:
            break
        pass_id = int(line.split()[1])
        work = root / f"api-pass-{pass_id}"
        work.mkdir(parents=True, exist_ok=True)
        rec.spans.clear()
        rec.counts.clear()
        rec.pass_id = pass_id
        call = _Pass()
        msg = {"event": "pass"}
        try:
            values = _api_pass(uqim, system, seed, work, call)
        except Exception as exc:  # one failed call fails the pass; keep the worker up
            msg.update(pipeline_s=sum(call.stages.values()), stages=call.stages,
                       failures={call.calls[-1]: [f"{type(exc).__name__}: {exc}"]},
                       results_digest="", extras={})
        else:
            failures, results, counts = _checks(values, oracle)
            for key in call.calls:
                failures.setdefault(key, [])
            msg.update(
                pipeline_s=sum(call.stages.values()),
                stages=call.stages,
                failures=failures,
                results_digest=digest(results),
                extras={"q95_rel_err": abs(values["q95"].value - oracle) / abs(oracle)},
            )
            if traced:
                span_rows = [{"name": n, "start": s, "end": e, "parent": p}
                             for n, s, e, p in rec.spans]
                msg["self_times"] = spans.self_times(span_rows)
                msg["counts"] = {**rec.counts, **counts, "trace.spans": len(span_rows)}
        msg["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _send(msg)
    return 0


if __name__ == "__main__":
    sys.exit(worker_main(int(sys.argv[1]), sys.argv[2] == "1", Path(sys.argv[3])))
