"""uqim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload readme_1d --seed 11 --seconds 20 --trace 0

Each run sets the workload up several times (``setup_s`` is their median),
then runs whole passes of the pipeline while the next one is expected to
end within ``--seconds`` (at least one).  ``--trace 0`` times the passes and
prints the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
pass and prints the per-layer metrics.  Every output is checked; a failed
check fails its operation and the run exits 1.

stdout ends with a detailed report line and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  Work files live under
``.perfbench/`` in the checkout and are removed at the end, except the
per-seed records that compare results and counts across runs of one code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

from common import ROOT, SRC, WORK, environment, source_digest
from metrics import END_TO_END, IMPORT_GROUPS, PER_LAYER, SPAN_METRICS, STAGES, summary
from spans import layer_of

SETUPS = 3
DEFAULT_SEED = 11  # the README's synth seed
DEFAULT_SECONDS = 20
WORKLOAD_NAMES = ("readme_1d", "large_n_1d", "api_5d")


def make_workload(name: str, seed: int, root):
    if name == "api_5d":
        from api_worker import ApiWorkload

        return ApiWorkload(seed, root)
    from cli_passes import LARGE_STEPS, README_STEPS, CliWorkload

    if name == "readme_1d":
        return CliWorkload(README_STEPS, 100_000, seed, root)
    return CliWorkload(LARGE_STEPS, 1_000_000, seed, root)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the passes, close; return the raw measurements."""
    root = WORK / f"{name}-{seed}-{os.getpid()}"
    wl = make_workload(name, seed, root)
    setup_s, passes, traced = [], [], None
    try:
        for i in range(SETUPS):
            start = time.perf_counter()
            wl.setup(i)
            setup_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        while True:
            passes.append(wl.run_pass(len(passes) + 1, traced=False))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p.pipeline_s for p in passes)
            if trace or elapsed + typical > seconds:
                break
        if trace:
            traced = wl.run_pass(len(passes) + 1, traced=True)
    finally:
        wl.close()
        shutil.rmtree(root, ignore_errors=True)
    return {"setup_s": setup_s, "startup_s": wl.startup_s, "passes": passes,
            "traced": traced}


def timings(m: dict) -> dict:
    """Summary of every end-to-end timing, bounded or not."""
    passes = m["passes"]
    series = {
        "pipeline_s": [p.pipeline_s for p in passes],
        "setup_s": m["setup_s"],
        "startup_s": m["startup_s"],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
    }
    for stage in STAGES:
        series[f"{stage}_s"] = [p.stages.get(stage, 0.0) for p in passes]
    return {n: summary(v, "MB" if n == "peak_rss_mb" else "s") for n, v in series.items()}


def per_layer(m: dict) -> dict:
    t = m["traced"]
    selfs = t.self_times
    values = {
        "cli.startup_s": t.cli_startup_s,
        "data.parse_s": selfs.get("data.parse_inputs", 0.0) + selfs.get("data.parse_dataset", 0.0),
        "data.write_s": selfs.get("data.write_inputs", 0.0) + selfs.get("data.write_dataset", 0.0),
        "trace.overhead_s": t.pipeline_s - m["passes"][0].pipeline_s,
    }
    for group in IMPORT_GROUPS:
        values[f"cli.import.{group}_s"] = t.imports[group]
    for span, value in selfs.items():
        key = f"{layer_of(span)}.self_s"
        values[key] = values.get(key, 0.0) + value
    for span in SPAN_METRICS:
        values[f"{span}_s"] = selfs.get(span, 0.0)
    out = {}
    for name, unit in PER_LAYER:
        value = values.get(name, 0.0) if unit != "count" else int(t.counts.get(name, 0))
        out[name] = {"value": value, "unit": unit}
    return out


def cross_run_check(name: str, seed: int, m: dict) -> list:
    """Compare results (and counts) with earlier runs of the same sources."""
    all_passes = m["passes"] + ([m["traced"]] if m["traced"] else [])
    digests = {p.results_digest for p in all_passes}
    problems = []
    if len(digests) != 1:
        problems.append("results differ between passes at one seed")
    path = WORK / "records" / f"{name}-seed{seed}.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    mine = records.setdefault(source_digest(), {})
    if mine.setdefault("results", min(digests)) not in digests:
        problems.append("results differ from an earlier run of the same code")
    if m["traced"] is not None:
        counts = {k: int(v) for k, v in sorted(m["traced"].counts.items())}
        if mine.setdefault("counts", counts) != counts:
            changed = sorted(k for k in counts if mine["counts"].get(k) != counts[k])
            problems.append(f"counts differ from an earlier run of the same code: {changed}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One workload run: (detailed report, result line)."""
    m = measure(name, seed, seconds, trace)
    all_passes = m["passes"] + ([m["traced"]] if m["traced"] else [])
    failures = {
        f"pass{i + 1}:{key}": msgs
        for i, p in enumerate(all_passes) for key, msgs in p.failures.items() if msgs
    }
    attempted = sum(len(p.failures) for p in all_passes)
    problems = cross_run_check(name, seed, m)
    if problems:
        failures["run"] = problems
        attempted += 1
    failed = len(failures)
    extras = {}
    for p in m["passes"]:
        for k, v in p.extras.items():
            extras.setdefault(k, []).append(v)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(m["passes"]),
        "environment": environment(seed),
        "end_to_end": timings(m),
        "extras": {k: statistics.median(v) for k, v in extras.items()},
        "error_rate": failed / attempted,
        "failures": failures,
    }
    if trace:
        layers = per_layer(m)
        detail["per_layer"] = layers
        detail["self_times"] = m["traced"].self_times
        metrics = layers
    else:
        metrics = {n: {"value": detail["end_to_end"][n]["median"], "unit": u}
                   for n, u, _ in END_TO_END}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return detail, line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "uqim" / "__init__.py").is_file():
        print(f"no uqim sources under {SRC.relative_to(ROOT)}/: run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        detail, line = run(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(detail, sort_keys=True))
        lines[name] = line
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}.{k}": v for w, line in lines.items()
                        for k, v in line["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
