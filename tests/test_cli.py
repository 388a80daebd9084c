import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import uqim
from uqim.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([str(a) for a in argv])
    text = out.getvalue()
    report = json.loads(text) if rc == 0 and text.strip() else None
    return rc, report, err.getvalue()


def _cli_child(argv):
    """The command line and environment of ``uqim <argv>`` as a child process."""
    env = dict(os.environ)
    src = str(Path(uqim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "uqim.cli", *map(str, argv)], env


def run_cli_process(argv, stdin=None):
    """``uqim <argv>`` in its own interpreter: what a user's terminal shows,
    numpy's warnings included, which pytest would catch in-process."""
    cmd, env = _cli_child(argv)
    return subprocess.run(
        cmd, input=stdin, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Zero-bias 1-d synthetic workspace: datasets, surrogate, input draw."""
    ws = tmp_path_factory.mktemp("cliws")
    rc, rep, _ = run_cli([
        "synth", "--system", "mafds", "--bias-scale", "0", "--sigma-obs", "0",
        "--n-exp", "50", "--n-sim", "200", "--seed", "11", "--out-dir", ws,
    ])
    assert rc == 0
    rc, _, _ = run_cli([
        "fit-surrogate", "--sim", ws / "sim.csv", "--family", "spline1d",
        "--size", "8", "--out", "model.json", "--out-dir", ws,
    ])
    assert rc == 0
    rc, _, _ = run_cli([
        "gen-inputs", "--count", "50000", "--dist", "mvn",
        "--from", ws / "sim.csv", "--columns", "x1",
        "--out", "inputs.csv", "--out-dir", ws, "--seed", "5",
    ])
    assert rc == 0
    return {"dir": ws, "true_q": rep["results"]["true_quantile"]}


# ---------------------------------------------------------------------------
# report plumbing


def test_report_shape_and_roundtrip(workspace, tmp_path):
    ws = workspace["dir"]
    rc, rep, _ = run_cli([
        "quantile", "--model", ws / "model.json", "--inputs", ws / "inputs.csv",
        "--alpha", "0.95", "--seed", "7", "--report", tmp_path / "rep.json",
        "--out-dir", tmp_path,
    ])
    assert rc == 0
    for key in ("command", "version", "seed", "settings", "results",
                "timings", "artifacts"):
        assert key in rep
    assert rep["command"] == "quantile"
    assert rep["seed"] == 7
    assert rep["version"] != ""
    # the --report file holds the printed report
    assert json.loads((tmp_path / "rep.json").read_text()) == rep


def test_a_reader_that_closes_early_ends_the_report_quietly(workspace, tmp_path):
    # gp-error's report holds 10,000 replicate quantiles, more than a pipe
    # buffers (64 KiB on Linux), so printing it fails once the reader has gone
    ws = workspace["dir"]
    cmd, env = _cli_child([
        "gp-error", "--exp", ws / "exp.csv", "--model", ws / "model.json",
        "--report", tmp_path / "rep.json",
    ])
    with subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""
    # the --report file is written in full all the same
    text = (tmp_path / "rep.json").read_text()
    assert len(text) > 2**16
    rep = json.loads(text)
    assert rep["command"] == "gp-error"
    assert len(rep["results"]["quantiles"]) == 10_000


def test_quantile_matches_synthetic_oracle(workspace):
    ws = workspace["dir"]
    rc, rep, _ = run_cli([
        "quantile", "--model", ws / "model.json", "--inputs", ws / "inputs.csv",
        "--alpha", "0.95,0.5",
    ])
    assert rc == 0
    entries = rep["results"]["quantiles"]
    assert [e["alpha"] for e in entries] == [0.95, 0.5]
    got = entries[0]["value"]
    assert got == pytest.approx(workspace["true_q"], rel=0.05)
    assert rep["results"]["count"] == 50000


def test_quantile_outputs_route_and_exclusivity(tmp_path, workspace):
    path = tmp_path / "vals.csv"
    path.write_text("y\n" + "\n".join(str(v) for v in range(1, 21)) + "\n")
    rc, rep, _ = run_cli(["quantile", "--outputs", path, "--alpha", "0.5"])
    assert rc == 0
    assert rep["results"]["quantiles"][0]["value"] == 10.0
    rc, _, err = run_cli(["quantile", "--alpha", "0.5"])
    assert rc == 1 and "outputs" in err
    ws = workspace["dir"]
    rc, _, _ = run_cli([
        "quantile", "--outputs", path, "--model", ws / "model.json",
        "--alpha", "0.5",
    ])
    assert rc == 1


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_piped_outputs_read_like_the_file(tmp_path):
    # a pipe cannot be reopened or rewound, so the csv reader reads its body;
    # the body outgrows the reader's buffer, so a reopened pipe would start
    # partway through it
    text = "y\n" + "\n".join(str(v) for v in range(1, 20001)) + "\n"
    path = tmp_path / "vals.csv"
    path.write_text(text)

    def piped(body):
        return run_cli_process(["quantile", "--outputs", "/dev/stdin", "--alpha", "0.5"],
                               stdin=body)

    proc = piped(text)
    assert proc.returncode == 0, proc.stderr
    rc, rep, _ = run_cli(["quantile", "--outputs", path, "--alpha", "0.5"])
    assert rc == 0
    assert json.loads(proc.stdout)["results"] == rep["results"]
    proc = piped(text.replace("\n7\n", "\nseven\n"))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {
        "error": "DataError",
        "message": "/dev/stdin: non-numeric value 'seven' at row 7, column 'y'",
    }


# ---------------------------------------------------------------------------
# failure modes


def test_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.csv"
    rc, _, err = run_cli(["avm", "--exp", missing, "--sim", missing])
    assert rc == 1
    payload = json.loads(err)
    assert "nope.csv" in payload["message"]
    assert payload["error"] != ""


def test_bad_model_file_is_a_data_error(workspace, tmp_path):
    ws = workspace["dir"]
    obj = json.loads((ws / "model.json").read_text())
    knots = obj["basis"]["knots"]
    knots[4], knots[5] = knots[5], knots[4]
    (tmp_path / "model.json").write_text(json.dumps(obj))
    rc, _, err = run_cli([
        "quantile", "--model", tmp_path / "model.json",
        "--inputs", ws / "inputs.csv", "--alpha", "0.95",
    ])
    assert rc == 1
    assert json.loads(err) == {
        "error": "DataError",
        "message": f"{tmp_path / 'model.json'}: malformed model file "
                   "(spline knots must be nondecreasing)",
    }


def _surrogate(kind, basis, coef):
    return {"type": "surrogate", "family": {"kind": kind, "size": 2, "penalty": 0.0},
            "basis": {"kind": kind, **basis}, "coef": coef}


_POLY = {"degree": 2, "dim": 1}
_OVERFLOWING_MODELS = {
    # 1e308 * x**2 overflows to inf for x > 1
    "poly": _surrogate("poly", _POLY, [0.0, 0.0, 1e308]),
    # the slope that continues the spline beyond its knot span [0, 1] overflows
    "spline": _surrogate("spline1d", {"knots": [0.0] * 4 + [0.5] + [1.0] * 4},
                         [1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.7e308]),
    # base and residual are each finite, their sum is not
    "improved": {"type": "improved", "weight": None,
                 "base": _surrogate("poly", _POLY, [1.7e308, 0.0, 0.0]),
                 "residual": _surrogate("poly", _POLY, [1.7e308, 0.0, 0.0])},
}


@pytest.mark.parametrize("command", [["quantile", "--alpha", "0.99"], ["density"]])
def test_model_outputs_that_overflow_are_a_domain_error(tmp_path, command):
    """No report may carry an inf or NaN output, and stderr holds the one JSON
    error line: numpy warns of no overflow on the way."""
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x1\n" + "".join(f"{x}\n" for x in np.linspace(0.0, 3.0, 31)))
    for kind, obj in _OVERFLOWING_MODELS.items():
        model = tmp_path / f"{kind}.json"
        model.write_text(json.dumps(obj))
        proc = run_cli_process([command[0], "--model", model, "--inputs", inputs,
                                *command[1:], "--out-dir", tmp_path])
        assert (proc.returncode, proc.stdout) == (1, ""), kind
        assert proc.stderr.count("\n") == 1, (kind, proc.stderr)
        payload = json.loads(proc.stderr)
        assert payload["error"] == "DomainError", kind
        assert payload["message"].endswith("must be finite"), kind
        assert not (tmp_path / "density.csv").exists()


def test_model_file_of_wrong_type_is_a_data_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[]\n")
    rc, _, err = run_cli(["quantile", "--model", path, "--inputs", path,
                          "--alpha", "0.95"])
    assert rc == 1
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "DataError",
        "message": f"{path}: malformed model file "
                   "('list' object has no attribute 'get')",
    }


def test_unknown_subcommand_exits_nonzero():
    with redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
    assert exc.value.code != 0


def test_config_errors_list_every_field(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"seed": -1, "out_dir": 5, "l_n": 0}))
    rc, _, err = run_cli([
        "ci-quantile", "--check-only", "--n", "10",
        "--alpha", "0.95", "--delta", "0.05", "--config", cfg,
    ])
    assert rc == 1
    payload = json.loads(err)
    assert payload["fields"] == ["seed", "l_n", "out_dir"]


@pytest.mark.parametrize("config, fields", [
    ({"seed": -1, "synth": {"n_exp": "x"}, "bogus": {}},
     ["seed", "methods.synth.n_exp", "methods.bogus"]),
    # every bad scalar is named, in the order seed, l_n, out_dir
    ({"seed": -1, "out_dir": 5, "l_n": 0}, ["seed", "l_n", "out_dir"]),
    # JSON true is a Python int; as a seed or a learn size it is no number
    ({"seed": True}, ["seed"]),
    ({"l_n": True}, ["l_n"]),
], ids=["scalar_and_blocks", "bad_scalars", "bool_seed", "bool_l_n"])
def test_config_lists_every_problem_in_one_error(tmp_path, config, fields):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    rc, _, err = run_cli(["synth", "--dry-run", "--config", cfg, "--out-dir", tmp_path])
    assert rc == 1
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["fields"] == fields
    assert os.listdir(tmp_path) == ["bad.json"]


def test_config_round_trip(tmp_path):
    # every scalar key and a method block reach the run they configure
    out_dir = tmp_path / "runs"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "l_n": 10, "out_dir": str(out_dir),
                               "gp-error": {"reps": 50}}))
    rc, rep, err = run_cli(["bootstrap-error", "--exp", "e.csv", "--model", "m.json",
                            "--dry-run", "--config", cfg, "--report", "rep.json"])
    assert rc == 0, err
    assert (rep["seed"], rep["settings"]["n_learn"]) == (7, 10)
    assert json.loads((out_dir / "rep.json").read_text()) == rep
    rc, rep, err = run_cli(["gp-error", "--exp", "e.csv", "--model", "m.json",
                            "--dry-run", "--config", cfg])
    assert rc == 0, err
    assert (rep["seed"], rep["settings"]["reps"]) == (7, 50)


def test_config_n1_n2_are_not_scalars(tmp_path):
    # n1/n2 are no configuration fields: as flat keys they are method blocks
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"n1": 5, "n2": 7}))
    rc, _, err = run_cli([
        "ci-quantile", "--check-only", "--n", "100",
        "--alpha", "0.95", "--delta", "0.05", "--config", cfg,
    ])
    assert rc == 1
    assert json.loads(err)["fields"] == ["methods.n1", "methods.n2"]


def test_config_supplies_defaults_flags_win(tmp_path, workspace):
    ws = workspace["dir"]
    cfg = tmp_path / "cfg.json"
    # method blocks sit flat next to the scalar keys in the config file
    cfg.write_text(json.dumps({
        "seed": 99,
        "density": {"grid-steps": 21},
        "synth": {"bias-kind": "constant"},
    }))
    rc, rep, _ = run_cli([
        "density", "--model", ws / "model.json", "--inputs", ws / "inputs.csv",
        "--config", cfg, "--out-dir", tmp_path, "--out", "d1.csv",
    ])
    assert rc == 0
    assert rep["seed"] == 99
    assert rep["results"]["grid_steps"] == 21
    rc, rep, _ = run_cli([
        "density", "--model", ws / "model.json", "--inputs", ws / "inputs.csv",
        "--config", cfg, "--grid-steps", "7", "--seed", "3",
        "--out-dir", tmp_path, "--out", "d2.csv",
    ])
    assert rc == 0
    assert rep["seed"] == 3
    assert rep["results"]["grid_steps"] == 7
    # a choice from the config reaches the handler: the system it builds
    # has that bias kind; a --bias-kind flag beats it
    synth = ["synth", "--config", cfg, "--out-dir", tmp_path]
    rc, rep, _ = run_cli(synth)
    assert rc == 0
    assert rep["settings"]["bias_kind"] == "constant"
    assert rep["results"]["bias_kind"] == "constant"
    rc, rep, _ = run_cli(synth + ["--bias-kind", "smooth"])
    assert rc == 0
    assert rep["settings"]["bias_kind"] == "smooth"
    assert rep["results"]["bias_kind"] == "smooth"


@pytest.mark.parametrize("argv, block, fields", [
    (["avm", "--exp", "e.csv", "--sim", "s.csv"],
     {"avm": {"grid_steps": [3]}}, ["methods.avm.grid_steps"]),
    (["synth"], {"synth": {"n_exp": "x"}}, ["methods.synth.n_exp"]),
    (["synth"], {"synth": {"bias_kind": "quadratic"}}, ["methods.synth.bias_kind"]),
    (["fit-surrogate", "--sim", "s.csv"],
     {"fit-surrogate": {"weighted": 1}}, ["methods.fit-surrogate.weighted"]),
    (["synth"], {"synth": {"n-exp": 5, "bandwidth": 0.1, "seed": 3}},
     ["methods.synth.bandwidth", "methods.synth.seed"]),
], ids=["list_for_int", "text_for_int", "bad_choice", "int_for_flag", "unknown_key"])
def test_config_method_values_are_validated(tmp_path, argv, block, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(block))
    rc, _, err = run_cli(argv + ["--dry-run", "--config", cfg, "--out-dir", tmp_path])
    assert rc == 1
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["fields"] == fields


def test_config_blocks_of_every_subcommand_are_checked(tmp_path):
    # a block named after no subcommand, and a bad block of a subcommand that
    # is not running, are reported together
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit_surrogate": {"folds": "x"}, "avm": {"grid_steps": [3]}}))
    rc, _, err = run_cli([
        "fit-surrogate", "--sim", "a", "--dry-run", "--config", cfg, "--out-dir", tmp_path,
    ])
    assert rc == 1
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["fields"] == ["methods.fit_surrogate", "methods.avm.grid_steps"]
    # a valid block of another subcommand sets nothing
    cfg.write_text(json.dumps({"avm": {"grid_steps": 7}}))
    rc, rep, _ = run_cli([
        "density", "--model", "m.json", "--inputs", "i.csv", "--dry-run",
        "--config", cfg, "--out-dir", tmp_path,
    ])
    assert rc == 0
    assert rep["settings"]["grid_steps"] == 201


def test_config_method_values_convert_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "density": {"grid-steps": "21", "bandwidth": 0.05},
        "gen-inputs": {"dist": "lhs"},
        "fit-surrogate": {"weighted": True, "folds": 3},
    }))
    rc, rep, _ = run_cli([
        "density", "--model", "m.json", "--inputs", "i.csv", "--dry-run",
        "--config", cfg, "--out-dir", tmp_path,
    ])
    assert rc == 0
    got = {k: rep["settings"][k] for k in ("grid_steps", "bandwidth")}
    assert got == {"grid_steps": 21, "bandwidth": "0.05"}
    rc, rep, _ = run_cli([
        "gen-inputs", "--count", "5", "--dry-run", "--config", cfg,
        "--out-dir", tmp_path,
    ])
    assert rc == 0
    assert rep["settings"]["dist"] == "lhs"
    rc, rep, _ = run_cli([
        "fit-surrogate", "--sim", "s.csv", "--dry-run", "--config", cfg,
        "--out-dir", tmp_path,
    ])
    assert rc == 0
    assert (rep["settings"]["weighted"], rep["settings"]["folds"]) == (True, 3)


def test_flag_beats_config_beats_parser_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    gp = ["gp-error", "--exp", "e.csv", "--model", "m.json", "--dry-run"]
    boot = ["bootstrap-error", "--exp", "e.csv", "--model", "m.json", "--dry-run"]

    def resolved(argv, key, config=None):
        rc, rep, err = run_cli(argv + (["--config", config] if config else []))
        assert rc == 0, err
        return rep["seed"], rep["settings"][key]

    assert resolved(gp, "reps") == (0, 10_000)
    cfg.write_text(json.dumps({"seed": 5, "gp-error": {"reps": 50}}))
    assert resolved(gp, "reps", cfg) == (5, 50)
    assert resolved(gp + ["--reps", "7", "--seed", "3"], "reps", cfg) == (3, 7)
    # the bootstrap learn size: flag, then its block, then l_n, then the default
    cfg.write_text(json.dumps({"l_n": 8}))
    assert resolved(boot, "n_learn", cfg) == (0, 8)
    cfg.write_text(json.dumps({"l_n": 8, "bootstrap-error": {"n_learn": 9}}))
    assert resolved(boot, "n_learn", cfg) == (0, 9)
    assert resolved(boot + ["--n-learn", "4"], "n_learn", cfg) == (0, 4)
    # no config value outlives its run
    assert resolved(gp, "reps") == (0, 10_000)
    assert resolved(boot, "n_learn") == (0, 10)


@pytest.mark.parametrize("flags", [
    ["--grid-steps", "-3"],
    ["--grid-steps", "0"],
    ["--grid", "0:1:2.5"],
    ["--grid", "0:1:1"],
    ["--bandwidth", "abc"],
    ["--bandwidth", "0.1,0.2"],
], ids=["negative_steps", "zero_steps", "fractional_grid_steps", "one_grid_step",
        "text_bandwidth", "two_bandwidths"])
def test_density_bad_input_is_a_domain_error(tmp_path, workspace, flags):
    ws = workspace["dir"]
    rc, _, err = run_cli([
        "density", "--model", ws / "model.json", "--inputs", ws / "inputs.csv",
        *flags, "--out-dir", tmp_path,
    ])
    assert rc == 1
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "DomainError"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, flags", [
    ("density", ["--grid", "0:inf:3"]),
    ("density-band", ["--interval", "0:inf"]),
    ("quantile", ["--alpha", "nan"]),
    ("density-band", ["--bandwidths", "inf"]),
], ids=["density_inf_grid", "band_inf_interval", "quantile_nan_alpha",
        "band_inf_bandwidth"])
def test_non_finite_number_is_a_domain_error(tmp_path, workspace, command, flags):
    ws = workspace["dir"]
    args = {
        "density": [],
        "quantile": [],
        "density-band": ["--exp", ws / "exp.csv", "--kappa", "0.005", "--delta", "0.05"],
    }[command]
    rc, _, err = run_cli([
        command, "--model", ws / "model.json", "--inputs", ws / "inputs.csv", *args,
        *flags, "--out-dir", tmp_path,
    ])
    assert rc == 1
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert "finite" in payload["message"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["fit-surrogate", "--weight-grid", ","],
    ["fit-surrogate", "--res-penalty-grid", ","],
    ["quantile", "--alpha", ","],
    ["ci-quantile", "--check-only", "--n", "100", "--alpha", "0.95", "--delta", "0.05",
     "--d-delta", ","],
], ids=["weight_grid", "res_penalty_grid", "quantile_alpha", "check_only_d_delta"])
def test_empty_number_list_is_a_domain_error(tmp_path, workspace, argv):
    ws = workspace["dir"]
    args = {
        "fit-surrogate": ["--sim", ws / "sim.csv", "--exp", ws / "exp.csv"],
        "quantile": ["--model", ws / "model.json", "--inputs", ws / "inputs.csv"],
        "ci-quantile": [],
    }[argv[0]]
    rc, _, err = run_cli([*argv, *args, "--out-dir", tmp_path])
    assert rc == 1
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "DomainError",
        "message": "expected comma-separated finite numbers, got ','",
    }
    assert os.listdir(tmp_path) == []


def test_gen_inputs_zero_columns_is_a_data_error(tmp_path, workspace):
    rc, _, err = run_cli([
        "gen-inputs", "--count", "5", "--from", workspace["dir"] / "sim.csv",
        "--columns", ",", "--out-dir", tmp_path,
    ])
    assert rc == 1
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "DataError"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("d_delta", ["abc", "0.01,0.02"], ids=["text", "two_values"])
def test_ci_quantile_d_delta_is_one_number(workspace, d_delta):
    ws = workspace["dir"]
    rc, _, err = run_cli([
        "ci-quantile", "--exp", ws / "exp.csv", "--model", ws / "model.json",
        "--inputs", ws / "inputs.csv", "--alpha", "0.95", "--delta", "0.2",
        "--d-delta", d_delta,
    ])
    assert rc == 1
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert "--d-delta" in payload["message"] or "numbers" in payload["message"]


def test_synth_mc_count_zero_is_a_domain_error(tmp_path):
    # an explicit 0 reaches the sampler, not a 100,000-draw default
    rc, _, err = run_cli([
        "synth", "--system", "hidim", "--mc-count", "0", "--out-dir", tmp_path,
    ])
    assert rc == 1
    assert json.loads(err) == {
        "error": "DomainError", "message": "count must be an integer >= 1, got 0",
    }


@pytest.mark.parametrize("flags", [
    ["synth", "--alpha", "1.5"],
    ["synth", "--system", "hidim", "--mc-count", "0"],
], ids=["alpha", "mc_count"])
def test_synth_bad_value_writes_nothing(tmp_path, flags):
    rc, _, err = run_cli([*flags, "--out-dir", tmp_path])
    assert rc == 1
    assert json.loads(err)["error"] == "DomainError"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flags, message", [
    (["synth", "--seed", "-1"], "seed must be an integer in [0, 2^64 - 1], got -1"),
    # a dry run draws nothing, and both ends of the range are checked all the same
    (["synth", "--dry-run", "--seed", "-1"],
     "seed must be an integer in [0, 2^64 - 1], got -1"),
    (["synth", "--dry-run", "--seed", str(2**64)],
     f"seed must be an integer in [0, 2^64 - 1], got {2**64}"),
    (["synth", "--seed", str(2**64)],
     f"seed must be an integer in [0, 2^64 - 1], got {2**64}"),
    # the field table draws nothing, and the seed is checked all the same
    (["synth", "--system", "field", "--seed", str(2**64)],
     f"seed must be an integer in [0, 2^64 - 1], got {2**64}"),
    (["synth", "--sigma-obs", "-1"], "sigma_obs must be finite and >= 0, got -1.0"),
    (["synth", "--system", "hidim", "--bias-scale", "nan"],
     "bias_scale must be finite, got nan"),
    (["ci-quantile", "--check-only", "--n", "100", "--alpha", "0.95",
      "--delta", "0.05", "--big-n", "0"], "N must be finite and >= 1, got 0.0"),
    (["ci-quantile", "--check-only", "--n", "100", "--alpha", "0.95",
      "--delta", "0.05", "--big-n", "-5"], "N must be finite and >= 1, got -5.0"),
], ids=["negative_seed", "negative_dry_run_seed", "too_large_dry_run_seed",
        "too_large_seed", "too_large_field_seed",
        "negative_sigma_obs", "nan_bias_scale", "zero_big_n",
        "negative_big_n"])
def test_bad_number_is_one_domain_error_line(tmp_path, flags, message):
    rc, _, err = run_cli([*flags, "--out-dir", tmp_path])
    assert rc == 1
    assert json.loads(err) == {"error": "DomainError", "message": message}
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# determinism and artifact hygiene


def test_same_seed_byte_identical_reports(tmp_path, workspace):
    def one(sub):
        out = tmp_path / sub
        rc, rep, _ = run_cli([
            "synth", "--system", "mafds", "--n-exp", "12", "--n-sim", "30",
            "--seed", "42", "--out-dir", out,
        ])
        assert rc == 0
        del rep["timings"]
        rep["artifacts"] = [os.path.basename(a) for a in rep["artifacts"]]
        return json.dumps(rep, sort_keys=True), (out / "exp.csv").read_bytes()

    rep_a, exp_a = one("a")
    rep_b, exp_b = one("b")
    assert rep_a == rep_b
    assert exp_a == exp_b
    rc, rep_c, _ = run_cli([
        "synth", "--system", "mafds", "--n-exp", "12", "--n-sim", "30",
        "--seed", "43", "--out-dir", tmp_path / "c",
    ])
    assert rc == 0
    assert (tmp_path / "c" / "exp.csv").read_bytes() != exp_a


def test_no_writes_outside_out_dir(tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    out = tmp_path / "out"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    rc, rep, _ = run_cli([
        "synth", "--system", "mafds", "--n-exp", "5", "--n-sim", "5",
        "--out-dir", out, "--report", "report.json",
    ])
    assert rc == 0
    assert os.listdir(cwd) == []
    assert sorted(os.listdir(out)) == ["exp.csv", "report.json", "sim.csv"]
    for art in rep["artifacts"]:
        assert os.path.abspath(art).startswith(str(out))


def test_dry_run_skips_computation(tmp_path):
    rc, rep, _ = run_cli([
        "fit-surrogate", "--sim", tmp_path / "never_created.csv",
        "--dry-run", "--out-dir", tmp_path,
    ])
    assert rc == 0
    assert rep["results"] == {}
    assert rep["artifacts"] == []
    assert rep["settings"]["dry_run"] is True
    assert rep["settings"]["sim"].endswith("never_created.csv")
    assert os.listdir(tmp_path) == []


def test_dry_run_still_validates_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"out_dir": ["runs"]}))
    rc, _, err = run_cli([
        "synth", "--dry-run", "--config", cfg, "--out-dir", tmp_path,
    ])
    assert rc == 1
    assert "out_dir" in json.loads(err)["fields"]


# ---------------------------------------------------------------------------
# no thread knob


def test_threads_flag_is_a_usage_error(tmp_path):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["synth", "--dry-run", "--threads", "2", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in err.getvalue()


def test_beta_mode_flag_is_a_usage_error(tmp_path):
    # closed_form is the one beta mode, so there is no flag to choose it
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["gp-error", "--exp", "e.csv", "--model", "m.json", "--dry-run",
              "--beta-mode", "free", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --beta-mode free" in err.getvalue()


def test_bootstrap_error_report(tmp_path, workspace):
    ws = workspace["dir"]
    rc, rep, _ = run_cli([
        "bootstrap-error", "--exp", ws / "exp.csv", "--model", ws / "model.json",
        "--family", "poly", "--size", "1", "--b-reps", "3", "--n-learn", "10",
        "--out-dir", tmp_path,
    ])
    assert rc == 0
    assert rep["settings"] == {
        "exp": str(ws / "exp.csv"), "model": str(ws / "model.json"),
        "family": "poly", "size": 1, "penalty": 0.0, "b_reps": 3, "n_learn": 10,
        "alpha": 0.95, "weight": None, "extra_inputs": None,
        "input_columns": None, "output_column": None,
        "output": "bootstrap_quantiles.csv", "dry_run": False,
    }
    res = rep["results"]
    assert len(res["quantiles"]) == res["b_reps"] == 3
    assert res["median"] == float(np.median(res["quantiles"]))
    saved = np.loadtxt(tmp_path / "bootstrap_quantiles.csv", delimiter=",", skiprows=1)
    assert saved.tolist() == res["quantiles"]


def test_bootstrap_error_defaults_are_poly_1(tmp_path, workspace):
    # the defaults run on any data that a line fits: poly 1 at penalty 0
    ws = workspace["dir"]
    argv = ["bootstrap-error", "--exp", ws / "exp.csv", "--model", ws / "model.json",
            "--b-reps", "3", "--out-dir", tmp_path]
    rc, rep, err = run_cli(argv)
    assert rc == 0, err
    settings = rep["settings"]
    assert (settings["family"], settings["size"], settings["penalty"]) == ("poly", 1, 0.0)
    rc, explicit, err = run_cli(argv + ["--family", "poly", "--size", "1"])
    assert rc == 0, err
    assert rep["results"] == explicit["results"]


def test_threads_config_key_is_a_validation_error(tmp_path):
    # an unknown flat key is a method block, and a number is no block
    cfg = tmp_path / "threads.json"
    cfg.write_text(json.dumps({"threads": 2}))
    rc, _, err = run_cli(["synth", "--dry-run", "--config", cfg, "--out-dir", tmp_path])
    assert rc == 1
    assert "Traceback" not in err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["fields"] == ["methods.threads"]


# ---------------------------------------------------------------------------
# flag grammar


def test_gen_inputs_lhs_ranges_from_data(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("a,b\n0,10\n1,14\n0.5,12\n")
    rc, rep, _ = run_cli([
        "gen-inputs", "--count", "8", "--dist", "lhs", "--from", data,
        "--out", "pts.csv", "--out-dir", tmp_path, "--seed", "1",
    ])
    assert rc == 0
    assert rep["results"]["ranges"] == [[0.0, 1.0], [10.0, 14.0]]
    rows = np.loadtxt(tmp_path / "pts.csv", delimiter=",", skiprows=1)
    assert rows.shape == (8, 2)
    assert rows[:, 0].min() >= 0.0 and rows[:, 0].max() <= 1.0
    assert rows[:, 1].min() >= 10.0 and rows[:, 1].max() <= 14.0


def test_gen_inputs_lhs_explicit_ranges(tmp_path):
    rc, rep, _ = run_cli([
        "gen-inputs", "--count", "6", "--ranges", "0:1,2:5",
        "--out", "pts.csv", "--out-dir", tmp_path,
    ])
    assert rc == 0
    assert rep["results"]["dist"] == "lhs"
    rows = np.loadtxt(tmp_path / "pts.csv", delimiter=",", skiprows=1)
    assert rows.shape == (6, 2)
    rc, _, err = run_cli(["gen-inputs", "--count", "6", "--dist", "lhs",
                          "--out-dir", tmp_path])
    assert rc == 1 and "ranges" in err


def test_density_auto_bandwidth_and_grid(tmp_path, workspace):
    ws = workspace["dir"]
    rc, rep, _ = run_cli([
        "density", "--model", ws / "model.json", "--inputs", ws / "inputs.csv",
        "--bandwidth", "auto", "--grid", "0.05:0.12:11",
        "--out", "den.csv", "--out-dir", tmp_path,
    ])
    assert rc == 0
    assert rep["results"]["bandwidth"] > 0.0
    assert rep["results"]["grid_lo"] == 0.05
    assert rep["results"]["grid_hi"] == 0.12
    table = np.loadtxt(tmp_path / "den.csv", delimiter=",", skiprows=1)
    assert table.shape == (11, 3)
    assert table[0, 0] == 0.05 and table[-1, 0] == 0.12
    assert np.all(table[:, 1] >= 0.0)
    assert np.all(np.diff(table[:, 2]) >= 0.0)


def test_ci_quantile_check_only(tmp_path):
    rc, rep, _ = run_cli([
        "ci-quantile", "--check-only", "--n", "10",
        "--alpha", "0.95", "--delta", "0.05", "--out-dir", tmp_path,
    ])
    assert rc == 0
    assert rep["results"]["feasible"] is False
    assert len(rep["results"]["entries"]) == 9
    rc, rep, _ = run_cli([
        "ci-quantile", "--check-only", "--n", "100",
        "--alpha", "0.5", "--delta", "0.5", "--out-dir", tmp_path,
    ])
    assert rc == 0
    assert rep["results"]["feasible"] is True


def test_ci_quantile_check_only_big_n_report(tmp_path):
    rc, rep, err = run_cli([
        "ci-quantile", "--check-only", "--n", "100", "--alpha", "0.95",
        "--delta", "0.05", "--big-n", "100000", "--out-dir", tmp_path,
    ])
    assert rc == 0, err
    entries = rep["results"]["entries"]
    assert len(entries) == 9
    for e in entries:
        assert type(e["feasible"]) is bool
        assert type(e["objective"]) is float
        assert type(e["hoeffding"]) is float
    assert rep["results"]["feasible"] is True


def test_fit_surrogate_weighted_improvement(tmp_path, workspace):
    ws = workspace["dir"]
    rc, rep, _ = run_cli([
        "fit-surrogate", "--sim", ws / "sim.csv", "--exp", ws / "exp.csv",
        "--family", "spline1d", "--size", "8",
        "--res-family", "poly", "--res-size", "1", "--weighted",
        "--out", "improved.json", "--out-dir", tmp_path,
    ])
    assert rc == 0
    assert rep["settings"]["weighted"] is True
    assert 0.0 <= rep["results"]["weight"] <= 1.0
    assert rep["results"]["residual_family"] == "poly"
    from uqim.surrogate import load_model

    model = load_model(tmp_path / "improved.json")
    vals = model(np.array([[0.05]]))
    assert np.isfinite(vals).all()
