"""Paths, child processes and the environment record shared by the runs."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    """Environment for uqim children: the checkout's sources, no thread override."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("UQ_THREADS", None)
    return env


@dataclass
class Child:
    wall_s: float
    code: int
    stdout: str
    stderr: str
    maxrss_mb: float


@dataclass
class PassResult:
    """What one pass of a workload measured and checked."""

    pipeline_s: float
    stages: dict
    peak_rss_mb: float
    failures: dict  # operation key -> list of failed checks (empty = correct)
    results_digest: str
    extras: dict = field(default_factory=dict)
    # traced passes only
    self_times: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    cli_startup_s: float = 0.0
    imports: dict = field(default_factory=dict)


def run_child(cmd: list[str], cwd, log_prefix: Path) -> Child:
    """Run ``cmd`` to completion; return wall time, exit code, output and peak RSS.

    Output goes to files rather than pipes so a large report cannot block the
    child while the parent waits for it.  ``os.wait4`` gives the child's own
    peak resident set size.
    """
    out_path, err_path = Path(f"{log_prefix}.out"), Path(f"{log_prefix}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        code=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def order_statistic(values: np.ndarray, alpha: float) -> float:
    """ceil(N*alpha)-th smallest value, alpha read as the decimal it was typed as."""
    n = values.size
    k = min(n, max(1, math.ceil(Fraction(str(alpha)) * n)))
    return float(np.partition(values, k - 1)[k - 1])


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def source_digest() -> str:
    """Hash of the package sources: identifies "the same code" without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "uqim").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def import_groups(importtime_stderr: str) -> dict[str, float]:
    """Self import time in seconds per group from ``python -X importtime``."""
    groups = {"numpy": 0.0, "scipy": 0.0, "uqim": 0.0, "other": 0.0}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        groups[top if top in groups else "other"] += int(self_us) / 1e6
    return groups


def _blas_threads():
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():  # a plain checkout: source_sha256 identifies it
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    """Record of the machine and software a result was measured on."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }
