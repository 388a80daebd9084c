"""The CLI starts without scipy or numpy.ma: only the subcommands that use scipy load it."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import uqim
from uqim.cli import _HANDLERS, main

_SRC = str(Path(uqim.__file__).resolve().parents[1])

# Runs ``uqim.cli.main`` on each argv of a JSON list in one fresh interpreter
# and prints which scipy modules were loaded after the import and after each call.
_PROBE = """
import contextlib, io, json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from uqim.cli import main
seen = [["import uqim.cli", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    seen.append([" ".join(argv), rc, scipy_modules()])
print(json.dumps(seen))
"""


def _run_python(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _probe(argvs, cwd):
    return json.loads(
        _run_python(_PROBE, json.dumps([[str(a) for a in v] for v in argvs]), cwd=cwd)
    )


def test_import_loads_no_numpy_ma():
    # numpy.ma costs ~16 ms of start-up; np.unique, for one, loads it on first use
    code = "import sys, uqim.cli; print('numpy.ma' in sys.modules)"
    assert _run_python(code).strip() == "False"


def test_scipy_free_subcommands(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([
            "synth", "--system", "mafds", "--bias-kind", "linear", "--n-exp", "50",
            "--n-sim", "200", "--seed", "11", "--out-dir", str(tmp_path),
        ])
    assert rc == 0
    run = ["--out-dir", tmp_path]
    seen = _probe([
        ["gen-inputs", "--count", "100000", "--dist", "mvn", "--from", "sim.csv",
         "--columns", "x1", "--out", "inputs.csv", *run],
        ["fit-surrogate", "--sim", "sim.csv", "--exp", "exp.csv", "--family",
         "spline1d", "--size", "8", "--res-family", "poly", "--res-size", "1",
         "--weighted", "--out", "model.json", *run],
        ["density", "--model", "model.json", "--inputs", "inputs.csv",
         "--bandwidth", "auto", "--grid", "0.05:0.12:50", *run],
        ["quantile", "--model", "model.json", "--inputs", "inputs.csv",
         "--alpha", "0.95,0.99", *run],
        ["avm", "--exp", "exp.csv", "--sim", "sim.csv", *run],
        ["gp-error", "--exp", "exp.csv", "--model", "model.json", "--alpha", "0.95",
         *run],
        ["bootstrap-error", "--exp", "exp.csv", "--model", "model.json",
         "--family", "poly", "--size", "1", "--b-reps", "20", "--n-learn", "10", *run],
        ["ci-quantile", "--check-only", "--n", "100", "--alpha", "0.95",
         "--delta", "0.05"],
        ["ci-quantile", "--check-only", "--n", "100", "--alpha", "0.95",
         "--delta", "0.05", "--big-n", "100000"],
        ["ci-quantile", "--exp", "exp.csv", "--model", "model.json", "--inputs",
         "inputs.csv", "--alpha", "0.95", "--delta", "0.2", "--sweep", *run],
        # infeasible: the error report searches for the smallest workable delta
        ["ci-quantile", "--exp", "exp.csv", "--model", "model.json", "--inputs",
         "inputs.csv", "--alpha", "0.95", "--delta", "0.05", "--sweep", *run],
        ["density-band", "--exp", "exp.csv", "--model", "model.json", "--inputs",
         "inputs.csv", "--kappa", "0.005", "--delta", "0.05", *run],
    ], cwd=tmp_path)
    assert [rc for _, rc, _ in seen] == [0] * (len(seen) - 2) + [1, 0]
    assert [(cmd, mods) for cmd, _, mods in seen if mods] == []


def test_dry_runs_load_no_scipy(tmp_path):
    dry = {
        "gen-inputs": ["--count", "1"],
        "fit-surrogate": ["--sim", "s.csv"],
        "density": ["--model", "m.json", "--inputs", "i.csv"],
        "quantile": ["--alpha", "0.5"],
        "avm": ["--exp", "e.csv", "--sim", "s.csv"],
        "gp-error": ["--exp", "e.csv", "--model", "m.json"],
        "bootstrap-error": ["--exp", "e.csv", "--model", "m.json"],
        "ci-quantile": ["--alpha", "0.5", "--delta", "0.1"],
        "density-band": ["--exp", "e.csv", "--model", "m.json", "--inputs", "i.csv",
                         "--kappa", "0.1", "--delta", "0.1"],
        "synth": [],
    }
    assert sorted(dry) == sorted(_HANDLERS)
    argvs = [[name, "--dry-run", *args] for name, args in dry.items()]
    seen = _probe(argvs, cwd=tmp_path)
    assert [rc for _, rc, _ in seen] == [0] * len(seen)
    assert [(cmd, mods) for cmd, _, mods in seen if mods] == []
