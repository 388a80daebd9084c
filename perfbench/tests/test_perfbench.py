"""Tests of the benchmark's own pieces; run with ``python3 -m pytest perfbench/tests``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
from common import import_groups, order_statistic  # noqa: E402
from spans import Recorder, self_times  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("surrogate.fit_with_gcv", 1.0, 4.0, 0),
        _span("confidence.density_band", 5.0, 9.0, 0),
        _span("density.kde_evaluate", 6.0, 7.0, 2),
        _span("density.kde_evaluate", 7.5, 8.0, 2),
    ]
    got = self_times(spans)
    assert got == pytest.approx({
        "cli.main": 3.0,
        "surrogate.fit_with_gcv": 3.0,
        "confidence.density_band": 2.5,
        "density.kde_evaluate": 1.5,
    })
    assert sum(got.values()) == pytest.approx(10.0)


def test_recorder_nests_spans_by_call_order():
    rec = Recorder(pass_id=3)
    outer = rec.open("a.outer")
    inner = rec.open("b.inner")
    assert rec.parent_name() == "a.outer"
    rec.close(inner)
    rec.close(outer)
    assert [s[3] for s in rec.spans] == [-1, 0]
    assert rec.spans[0][1] <= rec.spans[1][1] <= rec.spans[1][2] <= rec.spans[0][2]


def test_metric_names_match_pattern_and_are_unique():
    names = [n for n, _, _ in metrics.END_TO_END] + [n for n, _ in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(metrics.WORKLOADS):
        assert metrics.NAME_PATTERN.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_metric_counts_within_caps():
    assert 1 <= len(metrics.END_TO_END) <= metrics.MAX_END_TO_END == 16
    assert 1 <= len(metrics.PER_LAYER) <= metrics.MAX_PER_LAYER == 128


def test_benchmark_json_matches_metric_lists():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["workloads"] == [{"name": n, "why": w} for n, w in metrics.WORKLOADS.items()]
    assert SPEC["end_to_end"] == [
        {"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in metrics.END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": "lower"} for n, u in metrics.PER_LAYER
    ]
    setup_bound = dict((n, b) for n, _, b in metrics.END_TO_END)["setup_s"]
    assert all(b <= setup_bound <= 0.25 for _, _, b in metrics.END_TO_END)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_layer_map_covers_every_layer():
    assert set(metrics.LAYER_MAP) == set(metrics.LAYERS) | {"trace"}
    e2e = {n for n, _, _ in metrics.END_TO_END} | {f"{s}_s" for s in metrics.STAGES}
    for moved, _ in metrics.LAYER_MAP.values():
        assert set(moved) <= e2e


def test_high_percentile_needs_ten_samples_beyond():
    assert metrics.high_percentile([3.0, 1.0, 2.0]) == ("max", 3.0)
    label, value = metrics.high_percentile(list(range(100)))
    assert label == "p90" and value == 89


def test_order_statistic_reads_alpha_as_typed():
    values = __import__("numpy").arange(1.0, 101.0)
    assert order_statistic(values, 0.95) == 95.0
    assert order_statistic(values, 0.951) == 96.0


def test_import_groups_sums_self_time_per_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:      2000 |       2100 | numpy",
        "import time:       500 |        500 |     scipy.special",
        "import time:        30 |         30 | uqim.gp",
        "import time:         7 |          7 | json",
    ])
    assert import_groups(stderr) == pytest.approx(
        {"numpy": 2100e-6, "scipy": 500e-6, "uqim": 30e-6, "other": 7e-6}
    )


def test_install_wraps_names_in_every_namespace():
    code = (
        "import spans, uqim, uqim.cli, numpy as np\n"
        "rec = spans.Recorder()\n"
        "spans.install(rec)\n"
        "uqim.cli.mc_quantile(np.arange(10.0), 0.5)\n"
        "uqim.density.mc_quantile(np.arange(10.0), 0.5)\n"
        "print(sorted({s[0] for s in rec.spans}))\n"
    )
    env = dict(os.environ, PYTHONPATH=f"{BENCH}{os.pathsep}{BENCH.parent / 'src'}")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "['density.mc_quantile']"
