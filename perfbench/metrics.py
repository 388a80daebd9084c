"""Metric names, units and the layer map, plus the summaries the runs print.

``BENCHMARK.json`` at the repository root repeats the workload reasons and
the metric lists below; ``tests/test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

import math
import re
import statistics

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128

WORKLOADS = {
    "readme_1d": "README command block as uqim subprocesses at N=1e5; start-up and CSV "
                 "dominate, so start-up and I/O changes show and kernel changes barely do",
    "large_n_1d": "same 1-d system at the north-star N=1e6; CSV parse/write, KDE and the "
                  "density band dominate; GP and bootstrap work equals readme_1d's",
    "api_5d": "in-process API on the raw-scale 5-d field law, N=1e6; numerics without "
              "start-up or CSV: surrogate evaluation, rbf weighted CV, GP MAP at d=5, "
              "2-thread bootstrap",
}

# stage -> seconds summed over its subcommands (CLI) or API calls (api_5d)
STAGES = ("inputs", "surrogate", "output_law", "model_error", "confidence")

# name, unit, bound (share of the parent's median a change may worsen it by).
# The stage sums (STAGES) are printed in every detailed report too, but are
# not bounded: a stage of one or two ~1 s subprocesses spreads 15-37% from
# run to run on a shared 2-vCPU VM, beyond the 0.25 a bound may have.
END_TO_END = [
    ("pipeline_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("startup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
]

LAYERS = ("cli",) + (
    "data", "randgen", "surrogate", "density", "avm",
    "gp", "bootstrap", "confidence", "synthetic",
)

# traced self time per span name, in seconds, reported as "<span>_s"
SPAN_METRICS = (
    "randgen.estimate_mvn", "randgen.sample_mvn", "synthetic.draw",
    "surrogate.fit_with_gcv", "surrogate.select_weight_and_penalty",
    "surrogate.predict", "surrogate.load_model", "surrogate.save_model",
    "density.surrogate_density", "density.kde_evaluate", "density.kde_cdf",
    "density.select_bandwidth", "density.mc_quantile",
    "avm.avm", "gp.gp_fit_map", "gp.gp_error_quantile",
    "bootstrap.bootstrap_error_quantile",
    "confidence.density_band", "confidence.quantile_ci", "confidence.ci_feasibility",
)

COUNTS = (
    "data.rows_read", "data.bytes_read", "data.rows_written", "data.bytes_written",
    "surrogate.cv_cells", "surrogate.cv_cells_failed", "surrogate.predict_points",
    "gp.restarts", "gp.restarts_nonfinite", "bootstrap.replicates",
    "confidence.band_grid_points", "confidence.band_candidates", "trace.spans",
)

IMPORT_GROUPS = ("numpy", "scipy", "uqim", "other")

# all lower-is-better: the counts are work done for a fixed result
PER_LAYER = (
    [("cli.startup_s", "s")]
    + [(f"cli.import.{g}_s", "s") for g in IMPORT_GROUPS]
    + [("data.parse_s", "s"), ("data.write_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS[1:]]
    + [(f"{name}_s", "s") for name in SPAN_METRICS]
    + [("trace.overhead_s", "s")]
    + [(name, "count") for name in COUNTS]
)

# layer -> (end-to-end metrics it should move, workloads it shows on)
LAYER_MAP = {
    "cli": (["startup_s", "pipeline_s"], "readme_1d most, large_n_1d; api_5d only via setup_s"),
    "data": (["inputs_s", "output_law_s", "confidence_s"], "large_n_1d; ~none on api_5d"),
    "randgen": (["inputs_s"], "all (small; catches regressions)"),
    "synthetic": (["inputs_s"], "all (small; catches regressions)"),
    "surrogate": (["surrogate_s", "output_law_s", "confidence_s"],
                  "api_5d (rbf 20 CV, 1e6-point evaluation); little on readme_1d"),
    "density": (["output_law_s"], "large_n_1d, api_5d"),
    "avm": (["model_error_s"], "all, small"),
    "gp": (["model_error_s"], "api_5d (d=5); readme_1d and large_n_1d equally (d=1)"),
    "bootstrap": (["model_error_s"], "api_5d (2000 reps, 2 threads) vs the 1-d pair (500, 1)"),
    "confidence": (["confidence_s"], "large_n_1d, api_5d; little on readme_1d"),
    "trace": ([], "all (tracing overhead only)"),
}


def high_percentile(values) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    values = sorted(values)
    n = len(values)
    for pct in (99.9, 99, 90):
        k = math.ceil(round(n * pct / 100.0, 9))  # 1-based order statistic
        if n - k >= 10:
            return f"p{pct:g}", values[k - 1]
    return "max", values[-1]


def summary(values, unit: str) -> dict:
    """Median, high percentile and sample count of one timing metric."""
    label, high = high_percentile(values)
    return {
        "median": statistics.median(values),
        label: high,
        "n": len(values),
        "unit": unit,
    }
