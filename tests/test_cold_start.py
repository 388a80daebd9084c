"""The CLI starts on the running subcommand's layers only.

``import uqim`` loads ``uqim.errors`` and ``uqim.avm``, ``import uqim.cli``
adds only itself; every other layer module, ``uqim.data`` among them, loads
on first use, and numpy with the first layer call.  So a ``--dry-run``,
``--version``, ``--help``, an argument error, a bad ``--config`` or a seed out
of range loads no layer module and no numpy.  No README subcommand loads scipy
or numpy.ma.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqim
from uqim.cli import _HANDLERS

_SRC = str(Path(uqim.__file__).resolve().parents[1])

# Runs ``uqim.cli.main`` on each argv of a JSON list in one fresh interpreter
# and prints which scipy and uqim modules were loaded, and whether numpy was,
# after ``import uqim``, after ``import uqim.cli`` and after each call.
_PROBE = """
import contextlib, io, json, sys
def loaded(top):
    return sorted(m for m in sys.modules if m == top or m.startswith(top + "."))
def seen_after(step, rc):
    return [step, rc, loaded("scipy"), loaded("uqim"), "numpy" in sys.modules]
import uqim
seen = [seen_after("import uqim", 0)]
from uqim.cli import main
seen.append(seen_after("import uqim.cli", 0))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # --version and --help
            rc = exc.code
    seen.append(seen_after(" ".join(argv), rc))
print(json.dumps(seen))
"""

# what ``import uqim.cli`` loads of the package, and all a --dry-run may load
_CLI_MODULES = ["uqim", "uqim.avm", "uqim.cli", "uqim.errors"]

_RUN = ["--out-dir", "."]

# The README block in order, each subcommand with the layer modules it must
# not load: the layers it does not call, directly or through another layer
_README = [
    (["synth", "--system", "mafds", "--bias-kind", "linear", "--n-exp", "50",
      "--n-sim", "200", "--seed", "11", *_RUN],
     "surrogate gp bootstrap confidence"),
    (["gen-inputs", "--count", "100000", "--dist", "mvn", "--from", "sim.csv",
      "--columns", "x1", "--out", "inputs.csv", *_RUN],
     "surrogate density gp bootstrap confidence synthetic"),
    (["fit-surrogate", "--sim", "sim.csv", "--exp", "exp.csv", "--family",
      "spline1d", "--size", "8", "--res-family", "poly", "--res-size", "1",
      "--weighted", "--out", "model.json", *_RUN],
     "density gp bootstrap confidence synthetic"),
    (["density", "--model", "model.json", "--inputs", "inputs.csv",
      "--bandwidth", "auto", "--grid", "0.05:0.12:50", *_RUN],
     "gp bootstrap confidence synthetic"),
    (["quantile", "--model", "model.json", "--inputs", "inputs.csv",
      "--alpha", "0.95,0.99", *_RUN],
     "gp bootstrap confidence synthetic"),
    (["avm", "--exp", "exp.csv", "--sim", "sim.csv", *_RUN],
     "randgen surrogate density gp bootstrap confidence synthetic"),
    (["gp-error", "--exp", "exp.csv", "--model", "model.json", "--alpha", "0.95",
      *_RUN],
     "bootstrap confidence synthetic"),
    (["bootstrap-error", "--exp", "exp.csv", "--model", "model.json",
      "--family", "poly", "--size", "1", "--b-reps", "20", "--n-learn", "10", *_RUN],
     "gp confidence synthetic"),
    (["ci-quantile", "--check-only", "--n", "100", "--alpha", "0.95",
      "--delta", "0.05"],
     "randgen surrogate gp bootstrap synthetic"),
    (["ci-quantile", "--check-only", "--n", "100", "--alpha", "0.95",
      "--delta", "0.05", "--big-n", "100000"],
     "randgen surrogate gp bootstrap synthetic"),
    (["ci-quantile", "--exp", "exp.csv", "--model", "model.json", "--inputs",
      "inputs.csv", "--alpha", "0.95", "--delta", "0.2", "--sweep", *_RUN],
     "gp bootstrap synthetic"),
    # infeasible: the error report searches for the smallest workable delta
    (["ci-quantile", "--exp", "exp.csv", "--model", "model.json", "--inputs",
      "inputs.csv", "--alpha", "0.95", "--delta", "0.05", "--sweep", *_RUN],
     "gp bootstrap synthetic"),
    (["density-band", "--exp", "exp.csv", "--model", "model.json", "--inputs",
      "inputs.csv", "--kappa", "0.005", "--delta", "0.05", *_RUN],
     "gp bootstrap synthetic"),
]


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


def test_no_module_imports_scipy():
    # the runtime needs numpy alone; scipy is a test-only oracle, so no import
    # of it may sit anywhere in the package, not even inside a function
    found = []
    for path in sorted(Path(uqim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            found += [(path.name, node.lineno, n) for n in names
                      if n.split(".")[0] == "scipy"]
    assert found == []


_LAYERS = {f"uqim.{m}" for m in ("data", "randgen", "surrogate", "density", "avm", "gp",
                                  "bootstrap", "confidence", "synthetic")}


def test_cli_reaches_every_layer_through_the_package():
    # one loader: the CLI calls uqim.<name>, and the package imports the layer
    # module on first use; no import of a layer sits in cli.py, and numpy is
    # imported only where the density handler builds its evaluation grid
    found = []
    for top in ast.parse(Path(uqim.cli.__file__).read_text()).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                package = "uqim." if node.level else ""
                names = ([package + node.module] if node.module else
                         [package + alias.name for alias in node.names])
            else:
                continue
            found += [(where, n) for n in names
                      if ".".join(n.split(".")[:2]) in _LAYERS
                      or n.split(".")[0] == "numpy" and where != "_cmd_density"]
    assert found == []


def test_import_loads_no_numpy_ma():
    # numpy.ma costs ~16 ms of start-up; np.unique, for one, loads it on first use
    code = "import sys, uqim.cli; print('numpy.ma' in sys.modules)"
    assert _run_python(code).strip() == "False"


def test_scipy_free_subcommands(tmp_path):
    # each also loads only the uqim layers it calls (the name predates that
    # guard); one fresh process per subcommand, in README order, each reading
    # the artifacts of the ones before it
    seen = [_probe([argv], cwd=tmp_path)[-1] for argv, _ in _README]
    assert [rc for _, rc, _, _, _ in seen] == [0] * (len(seen) - 2) + [1, 0]
    assert [(cmd, scipy) for cmd, _, scipy, _, _ in seen if scipy] == []
    loaded_forbidden = [
        (cmd, sorted(set(mods) & {f"uqim.{m}" for m in forbidden.split()}))
        for (cmd, _, _, mods, _), (_, forbidden) in zip(seen, _README)
    ]
    assert [(cmd, mods) for cmd, mods in loaded_forbidden if mods] == []


def test_dry_runs_load_no_scipy(tmp_path):
    # nor numpy or any layer module, and neither do --version, --help, argument
    # errors, a bad --config and a seed out of range
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
    # the option converters load neither
    argvs += [["density", "--dry-run", *dry["density"], "--grid", "0.05:0.12:200",
               "--bandwidth", "auto"],
              ["gen-inputs", "--dry-run", *dry["gen-inputs"], "--ranges", "0:1"]]
    (tmp_path / "bad.json").write_text('{"synth": {"n_exp": "x"}}')
    # --version and --help exit 0; a missing required option, a bad config and
    # a seed out of range are one JSON error, exit 1
    no_work = [["--version"], ["--help"], ["avm", "--exp", "e.csv"],
               ["synth", "--dry-run", "--config", "bad.json"],
               ["synth", "--dry-run", "--seed", str(2**64)]]
    seen = _probe(argvs + no_work, cwd=tmp_path)
    assert [rc for _, rc, _, _, _ in seen] == [0] * (len(seen) - 3) + [1, 1, 1]
    assert [(cmd, scipy) for cmd, _, scipy, _, _ in seen if scipy] == []
    assert [cmd for cmd, _, _, _, numpy in seen if numpy] == []
    assert seen[0][:4] == ["import uqim", 0, [], ["uqim", "uqim.avm", "uqim.errors"]]
    assert [(cmd, mods) for cmd, _, _, mods, _ in seen[1:] if mods != _CLI_MODULES] == []


# Runs ``uqim.cli.main`` on sys.argv[1:] in a fresh interpreter and prints its
# exit code and, for each uqim.parse_inputs call, whether uqim.confidence was
# loaded by then.
_PARSE_PROBE = """
import contextlib, io, json, sys
import uqim
from uqim.cli import main
parse, loaded = uqim.parse_inputs, []
def parse_inputs(*args, **kwargs):
    loaded.append("uqim.confidence" in sys.modules)
    return parse(*args, **kwargs)
uqim.parse_inputs = parse_inputs
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(json.dumps([rc, loaded]))
"""


def test_density_band_loads_its_layers_before_its_inputs(tmp_path):
    # the band's modules compile before the N-row inputs and outputs exist,
    # not on top of them at the child's peak RSS
    _probe([
        ["synth", "--n-exp", "20", "--n-sim", "50", *_RUN],
        ["fit-surrogate", "--sim", "sim.csv", "--exp", "exp.csv", "--size", "6", *_RUN],
        ["gen-inputs", "--count", "2000", "--from", "sim.csv", "--columns", "x1", *_RUN],
    ], cwd=tmp_path)
    band = ["density-band", "--exp", "exp.csv", "--model", "model.json", "--inputs",
            "inputs.csv", "--kappa", "0.005", "--delta", "0.05", *_RUN]
    assert json.loads(_run_python(_PARSE_PROBE, *band, cwd=tmp_path)) == [0, [True]]


@pytest.mark.parametrize("code", [
    "r = uqim.avm([0.0, 1.0], [0.5, 1.5])\n"
    "assert r.exact == 0.5 and abs(r.riemann - 0.5) < 1e-3, r",
    "f = uqim.EmpiricalCdf([3.0, 1.0, 2.0])\n"
    "assert (f.n, f(2.5), list(f([0.0, 3.0]))) == (3, 2 / 3, [0.0, 1.0])",
], ids=["avm", "EmpiricalCdf"])
def test_avm_first_in_a_fresh_interpreter(code):
    # uqim.avm imports numpy on the first call, not with the package
    prelude = "import sys, uqim\nassert 'numpy' not in sys.modules\n"
    assert _run_python(prelude + code + "\nprint('ok')").strip() == "ok"


# ---------------------------------------------------------------------------
# the package surface: the names of ``uqim.__all__`` as they were when the
# package imported every layer module up front, by defining module, less the
# eleven functions that only unit tests called (now oracles in those tests,
# private, or gone) and RunConfig (the CLI reads its config file itself)

_SURFACE = {
    "avm": "AvmResult EmpiricalCdf avm",
    "bootstrap": "BootstrapErrorReport bootstrap_error_quantile",
    "confidence": "DensityBand EpsGamma FeasibilityReport QuantileCi ci_feasibility "
                  "density_band minimal_feasible_delta minimal_feasible_n "
                  "minimize_eps_gamma quantile_ci",
    "data": "InputSample PairedDataset parse_dataset parse_inputs "
            "write_dataset write_inputs",
    "density": "KdeModel QuantileEstimate kde_cdf kde_evaluate mc_quantile "
               "select_bandwidth surrogate_density",
    "errors": "ConditioningError DataError DomainError InfeasibleError "
              "InsufficientDataError InvalidCovarianceError RankDeficiencyError UqError "
              "ValidationError ZeroSpreadError",
    "gp": "DiscrepancyData ErrorQuantileResult GpDiscrepancyParams GpFitResult "
          "GpHyperParams gp_cov_matrix gp_error_quantile gp_fit_map",
    "randgen": "MvnParams estimate_mvn latin_hypercube make_rng sample_mvn spawn_seeds",
    "surrogate": "FunctionFamily ImprovedSurrogate SurrogateModel WeightSelection "
                 "compute_residuals fit_penalized_ls fit_with_gcv improved_surrogate "
                 "load_model save_model select_weight_and_penalty",
    "synthetic": "SyntheticSystem field_measurements make_hidim_like make_mafds_like "
                 "mc_truth_quantile",
}
# the submodules listed in ``__all__``; ``avm`` names the function
_SURFACE_MODULES = sorted(set(_SURFACE) - {"avm"})

# In a fresh interpreter, resolves every name through ``from uqim import`` and
# through ``getattr``, the first of them as given, and prints the names that are
# not the defining module's object (or, for a submodule name, the module).
_SURFACE_PROBE = """
import importlib, json, sys
import uqim
surface, modules, from_first = json.loads(sys.argv[1])
def from_import(name):
    ns = {}
    exec(f"from uqim import {name}", ns)
    return ns[name]
lookups = [from_import, lambda name: getattr(uqim, name)][:: 1 if from_first else -1]
bad = [
    name
    for module, names in surface.items() for name in names.split()
    if any(look(name) is not getattr(importlib.import_module(f"uqim.{module}"), name)
           for look in lookups)
]
bad += [name for name in modules if getattr(uqim, name) is not sys.modules[f"uqim.{name}"]]
print(json.dumps([bad, uqim.__all__, dir(uqim)]))
"""


@pytest.mark.parametrize("from_first", [True, False], ids=["from_import", "getattr"])
def test_every_public_name_resolves_to_its_module_object(from_first):
    frozen = [n for names in _SURFACE.values() for n in names.split()]
    assert len(frozen) == 68
    bad, all_, dir_ = json.loads(_run_python(
        _SURFACE_PROBE, json.dumps([_SURFACE, _SURFACE_MODULES, from_first])
    ))
    assert bad == []
    assert all_ == sorted(frozen + _SURFACE_MODULES)
    assert set(all_) <= set(dir_)


def test_submodules_and_avm_after_lazy_loads(tmp_path):
    code = """
import contextlib, io, sys, types
import uqim
assert "uqim.surrogate" not in sys.modules
assert isinstance(uqim.surrogate, types.ModuleType)
assert uqim.surrogate is sys.modules["uqim.surrogate"]
assert uqim.fit_with_gcv is uqim.surrogate.fit_with_gcv
import uqim.avm
assert isinstance(uqim.avm, types.FunctionType), uqim.avm
import uqim.cli
# the layer names uqim.cli imported at its top before the layers loaded lazily
assert uqim.cli.load_model is uqim.surrogate.load_model
with contextlib.redirect_stdout(io.StringIO()):
    assert uqim.cli.main(["synth", "--n-exp", "20", "--n-sim", "20"]) == 0
    assert uqim.cli.main(["avm", "--exp", "exp.csv", "--sim", "sim.csv"]) == 0
assert isinstance(uqim.avm, types.FunctionType), uqim.avm
assert uqim.avm is sys.modules["uqim.avm"].avm
print("ok")
"""
    assert _run_python(code, cwd=tmp_path).strip() == "ok"


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        uqim.no_such_name  # noqa: B018
    assert not hasattr(uqim, "cli_main")
