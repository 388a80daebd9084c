"""Spans around calls into the uqim layers, recorded from outside the package.

A :class:`Recorder` keeps spans (name, start, end, parent, pass id) and exact
counts in memory; :func:`install` wraps the public functions of every layer
module, the synthetic-system draws and the fitted models' ``__call__`` so
that each call opens a span named ``<layer>.<function>``.  Nothing in
``src/`` is edited: the wrappers replace module and class attributes at run
time, in every ``uqim`` namespace that holds the original function, so calls
that go through ``uqim.cli``'s own imports are caught too.

Spans are recorded on the thread that installed the wrappers only.  Work a
layer hands to its own worker threads (the bootstrap pool) therefore counts
as that layer's self time rather than being summed once per thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

LAYER_MODULES = (
    "data", "randgen", "surrogate", "density", "avm",
    "gp", "bootstrap", "confidence", "synthetic",
)


class Recorder:
    """In-memory span and count store for one process."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = int(pass_id)
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.thread = threading.get_ident()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-2]][0] if len(self.stack) > 1 else None

    def dump(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "pass": self.pass_id}
            for n, s, e, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)


def self_times(spans) -> dict[str, float]:
    """Sum of self time per span name.

    ``spans`` is a list of dicts with ``name``, ``start``, ``end`` and
    ``parent`` (an index into the list, or -1).  A span's self time is its
    duration minus the durations of its direct children.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        out[s["name"]] += t
    return dict(out)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# counters attached to particular spans


def _getsize(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_read(rec, args, kwargs, out):
    rec.counts["data.rows_read"] += int(out.n)
    rec.counts["data.bytes_read"] += _getsize(args[0] if args else kwargs.get("path"))


def _count_write(rec, args, kwargs, out):
    table = args[0] if args else next(iter(kwargs.values()))
    path = args[1] if len(args) > 1 else kwargs.get("path")
    rec.counts["data.rows_written"] += int(table.n)
    rec.counts["data.bytes_written"] += _getsize(path)


def _count_cv(rec, args, kwargs, out):
    scores = [row[2] for row in out.table]
    rec.counts["surrogate.cv_cells"] += len(scores)
    rec.counts["surrogate.cv_cells_failed"] += sum(
        1 for s in scores if not _finite(s)
    )


def _count_gp(rec, args, kwargs, out):
    rec.counts["gp.restarts"] += len(out.objectives)
    rec.counts["gp.restarts_nonfinite"] += sum(
        1 for v in out.objectives if not _finite(v)
    )


def _count_bootstrap(rec, args, kwargs, out):
    rec.counts["bootstrap.replicates"] += int(out.b_reps)


def _count_predict(rec, args, kwargs, out):
    # only the outermost call: an improved surrogate calls its two parts
    if rec.parent_name() != "surrogate.predict":
        rec.counts["surrogate.predict_points"] += int(len(out))


def _finite(v) -> bool:
    v = float(v)
    return v == v and v not in (float("inf"), float("-inf"))


COUNTERS = {
    "data.parse_inputs": _count_read,
    "data.parse_dataset": _count_read,
    "data.write_inputs": _count_write,
    "data.write_dataset": _count_write,
    "surrogate.select_weight_and_penalty": _count_cv,
    "gp.gp_fit_map": _count_gp,
    "bootstrap.bootstrap_error_quantile": _count_bootstrap,
    "surrogate.predict": _count_predict,
}


def _wrap(rec: Recorder, name: str, fn):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if threading.get_ident() != rec.thread:
            return fn(*args, **kwargs)
        index = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if count is not None:
            count(rec, args, kwargs, out)
        return out

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every public uqim layer function, the draws and the models' calls."""
    modules = [importlib.import_module(f"uqim.{m}") for m in LAYER_MODULES]
    replace: dict[int, object] = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                replace[id(obj)] = _wrap(rec, f"{layer}.{attr}", obj)
    namespaces = [sys.modules[n] for n in list(sys.modules) if n.startswith("uqim")]
    if "__main__" in sys.modules:
        namespaces.append(sys.modules["__main__"])
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if id(obj) in replace:
                setattr(ns, attr, replace[id(obj)])

    surrogate = sys.modules["uqim.surrogate"]
    synthetic = sys.modules["uqim.synthetic"]
    for cls in (surrogate.SurrogateModel, surrogate.ImprovedSurrogate):
        cls.__call__ = _wrap(rec, "surrogate.predict", cls.__call__)
    system = synthetic.SyntheticSystem
    for meth in ("draw_experiment", "draw_simulation"):
        setattr(system, meth, _wrap(rec, "synthetic.draw", getattr(system, meth)))
