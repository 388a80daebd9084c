import numpy as np
import pytest

from uqim.avm import avm
from uqim.bootstrap import bootstrap_error_quantile
from uqim.confidence import (
    ci_feasibility, density_band, minimal_feasible_delta, quantile_ci,
)
from uqim.data import (
    InputSample,
    PairedDataset,
    parse_dataset,
    parse_inputs,
    write_dataset,
    write_inputs,
)
from uqim.density import KdeModel, mc_quantile, select_bandwidth
from uqim.errors import DataError, DomainError, InsufficientDataError
from uqim.gp import (
    DiscrepancyData,
    GpDiscrepancyParams,
    gp_cov_matrix,
    gp_error_quantile,
    gp_fit_map,
)
from uqim.randgen import MvnParams, estimate_mvn, latin_hypercube, make_rng, sample_mvn
from uqim.surrogate import (
    FunctionFamily,
    build_basis,
    compute_residuals,
    fit_penalized_ls,
    select_weight_and_penalty,
)
from uqim.synthetic import FIELD_INPUT_NAMES, field_measurements, make_mafds_like


def test_field_table_shape():
    ds = field_measurements()
    assert ds.n == 10 and ds.dim == 5
    assert ds.kind == "experimental"
    assert ds.input_names == FIELD_INPUT_NAMES


def test_parse_field_table_round_trip(tmp_path):
    ds = field_measurements()
    path = tmp_path / "table.csv"
    write_dataset(ds, path)
    back = parse_dataset(path, list(ds.input_names), ds.output_name)
    assert back.n == 10 and back.dim == 5
    # bitwise round trip
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.outputs, ds.outputs)
    # row count equals data-row count of the file
    assert len(path.read_text().strip().splitlines()) - 1 == back.n


def test_parse_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("x,y\n0.05,0.08\n")
    ds = parse_dataset(path, ["x"], "y")
    assert ds.n == 1 and ds.dim == 1
    assert ds.inputs[0, 0] == 0.05 and ds.outputs[0] == 0.08


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\nabc,1.0\n")
    with pytest.raises(DataError, match="row 1"):
        parse_dataset(bad, ["x"], "y")
    with pytest.raises(DataError, match="cannot read"):
        parse_dataset(tmp_path / "missing.csv", ["x"], "y")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        parse_dataset(empty, ["x"], "y")
    short = tmp_path / "short.csv"
    short.write_text("x,y\n1.0\n")
    with pytest.raises(DataError, match="row 1"):
        parse_dataset(short, ["x"], "y")
    nocol = tmp_path / "nocol.csv"
    nocol.write_text("x,y\n1.0,2.0\n")
    with pytest.raises(DataError, match="missing columns"):
        parse_dataset(nocol, ["z"], "y")
    norows = tmp_path / "norows.csv"
    norows.write_text("x,y\n")
    with pytest.raises(DataError, match="no data rows"):
        parse_dataset(norows, ["x"], "y")


def test_column_selection_follows_schema_order(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,6\n")
    ds = parse_dataset(path, ["b", "a"], "y")
    assert ds.input_names == ("b", "a")
    assert np.array_equal(ds.inputs, [[2.0, 1.0], [5.0, 4.0]])


def test_default_columns_are_the_cli_columns(tmp_path):
    """Without names the output is the last column and the inputs every other
    column, in header order, as the CLI picks them without its column flags."""
    import argparse

    from uqim.cli import _load_dataset

    path = tmp_path / "cols.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,6\n")
    for out in (None, "a"):
        args = argparse.Namespace(exp=path, input_columns=None, output_column=out)
        cli = _load_dataset(args, "exp")
        ds = parse_dataset(path, output_column=out)
        assert (ds.input_names, ds.output_name) == (cli.input_names, cli.output_name)
        assert np.array_equal(ds.inputs, cli.inputs)
        assert np.array_equal(ds.outputs, cli.outputs)
    assert parse_dataset(path).input_names == ("a", "b")
    assert parse_dataset(path, output_column="a").input_names == ("b", "y")
    with pytest.raises(DataError, match="no input columns left besides 'y'"):
        parse_dataset(path, [])


def test_inputs_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    sample = InputSample(points=rng.normal(size=(7, 3)) * 1e-7)
    path = tmp_path / "pts.csv"
    write_inputs(sample, path)
    back = parse_inputs(path)
    assert np.array_equal(back.points, sample.points)
    assert back.names == sample.names
    sub = parse_inputs(path, columns=["x3", "x1"])
    assert np.array_equal(sub.points, sample.points[:, [2, 0]])


# Files that numpy's C parser rejects or reads at the wrong width, CR-only
# line ends, and a header after blank rows that spans two physical lines,
# which numpy's skiprows must count as lines, not rows: the reader must handle
# them exactly as the per-cell float() rules do.  A lone surrogate such as
# "\udcff" is written as the byte 0xff, which no codec decodes: it reads as
# U+FFFD.  Values are float() of the cell text; a string is the DataError
# message after "<path>: ".
READER_SPEC = {
    "underscore_digits": ("a,b\n1_000,2\n3,4_0\n", ["a", "b"],
                          [[float("1_000"), 2.0], [3.0, float("4_0")]]),
    "arabic_indic_digits": ("a,b\n\u0661\u0662,1\n", ["a", "b"],
                            [[float("\u0661\u0662"), 1.0]]),
    "whitespace_rows": ("a,b\n1,2\n   \n\t\n3,4\n", ["a", "b"],
                        [[1.0, 2.0], [3.0, 4.0]]),
    "comma_rows": ("a,b\n1,2\n,\n , \n3,4\n", ["a", "b"],
                   [[1.0, 2.0], [3.0, 4.0]]),
    "cr_line_ends": ("a,b\r1,2\r3,4\r", ["a", "b"], [[1.0, 2.0], [3.0, 4.0]]),
    "header_with_quoted_line_break": ('\n\n"x\n1",y\n1,2\n3,4\n', ["x\n1", "y"],
                                      [[1.0, 2.0], [3.0, 4.0]]),
    "quoted_text_column": ('a,label,b\n1,"a,b",2\n3,"say ""hi""",4\n', ["b", "a"],
                           [[2.0, 1.0], [4.0, 3.0]]),
    "text_column_selected": ('a,label\n1,"a,b"\n', None,
                             "non-numeric value 'a,b' at row 1, column 'label'"),
    "undecodable_header_byte": ("a\udcff,b\n1,2\n", ["a\ufffd", "b"], [[1.0, 2.0]]),
    "undecodable_byte": ("y\n1\n2\udcff\n3\n", None,
                         "non-numeric value '2\ufffd' at row 2, column 'y'"),
    "blank_body": ("a,b\n\n , \n", None, "no data rows"),
    "one_row_wider": ("a,b\n1,2\n3,4,5\n6,7\n", None,
                      "row 2 has 3 fields, expected 2"),
    "one_row_narrower": ("a,b\n1,2\n3\n6,7\n", None,
                         "row 2 has 1 fields, expected 2"),
    "every_row_wider": ("a,b\n1,2,3\n4,5,6\n", None,
                        "row 1 has 3 fields, expected 2"),
}


@pytest.mark.parametrize("case", list(READER_SPEC))
def test_reader_spec_files_the_c_parser_rejects(tmp_path, case):
    text, columns, want = READER_SPEC[case]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode(errors="surrogateescape"))
    if isinstance(want, str):
        with pytest.raises(DataError) as err:
            parse_inputs(path, columns)
        assert str(err.value) == f"{path}: {want}"
        return
    back = parse_inputs(path, columns)
    assert back.names == tuple(columns)
    assert np.array_equal(back.points, want)
    ds = parse_dataset(path, columns[:-1], columns[-1])
    assert np.array_equal(ds.inputs, np.array(want)[:, :-1])
    assert np.array_equal(ds.outputs, np.array(want)[:, -1])


def test_parsed_arrays_are_c_contiguous(tmp_path):
    """Memory order decides the summation order of reductions downstream."""
    path = tmp_path / "cols.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
    for columns in (None, ["y", "a"]):
        assert parse_inputs(path, columns).points.flags.c_contiguous
    assert parse_dataset(path, ["b", "a"], "y").inputs.flags.c_contiguous


def test_dataset_validation():
    with pytest.raises(DataError, match="row mismatch"):
        PairedDataset(inputs=[[1.0], [2.0]], outputs=[1.0], kind="experimental")
    with pytest.raises(DataError, match="kind"):
        PairedDataset(inputs=[[1.0]], outputs=[1.0], kind="observed")
    with pytest.raises(DataError, match="non-finite"):
        PairedDataset(inputs=[[np.nan]], outputs=[1.0], kind="experimental")
    with pytest.raises(DataError, match="names"):
        PairedDataset(
            inputs=[[1.0, 2.0]], outputs=[1.0], kind="simulated", input_names=("a",)
        )
    ds = PairedDataset(inputs=[[1.0, 2.0]], outputs=[3.0], kind="simulated")
    assert ds.input_names == ("x1", "x2")
    with pytest.raises(ValueError):
        ds.inputs[0, 0] = 9.0


def test_zero_columns_are_a_data_error():
    with pytest.raises(DataError, match="one input column"):
        PairedDataset(inputs=np.zeros((2, 0)), outputs=[1.0, 2.0], kind="simulated")
    with pytest.raises(DataError, match="nonempty"):
        InputSample(points=np.zeros((2, 0)))


_X = np.linspace(0.0, 1.0, 6)

# each entry point on the points x: six points of one coordinate, whether
# x is 1-d or the column _X[:, None]
_ONE_D_ENTRIES = {
    "InputSample": lambda x: InputSample(points=x).points,
    "PairedDataset": lambda x: PairedDataset(
        inputs=x, outputs=np.sin(_X), kind="simulated").inputs,
    "DiscrepancyData": lambda x: DiscrepancyData(
        inputs=x, model_outputs=_X, observed=np.sin(_X)).inputs,
    "estimate_mvn": lambda x: estimate_mvn(x).cov,
    "gp_cov_matrix": lambda x: gp_cov_matrix(
        x, GpDiscrepancyParams(lam=0.1, beta=0.0, sigma2=1.0, omegas=(2.0,))),
    "spline1d": lambda x: build_basis(FunctionFamily("spline1d", 3), x).design(_X),
    "rbf": lambda x: build_basis(FunctionFamily("rbf", 4), x).design(_X),
    "poly": lambda x: build_basis(FunctionFamily("poly", 2), x).design(_X),
    "fit_penalized_ls": lambda x: fit_penalized_ls(
        FunctionFamily("poly", 2),
        PairedDataset(inputs=x, outputs=np.sin(_X), kind="simulated")).coef,
}


@pytest.mark.parametrize("entry", list(_ONE_D_ENTRIES))
def test_a_1d_array_is_points_of_one_coordinate(entry):
    got, want = (_ONE_D_ENTRIES[entry](x) for x in (_X, _X[:, None]))
    assert np.array_equal(got, want)
    rows = {"estimate_mvn": 1, "fit_penalized_ls": 3}.get(entry, 6)
    assert got.shape[0] == rows


_EXP = PairedDataset(inputs=_X, outputs=np.sin(_X), kind="experimental")


def _sin(x):
    return np.sin(np.ravel(x))


# each consumer of a sample of outputs or residuals, fed the sample v; with
# 1e4 finite values each returns a result
_SAMPLE_ENTRIES = {
    "mc_quantile": lambda v: mc_quantile(v, 0.5),
    "select_bandwidth": select_bandwidth,
    "KdeModel": lambda v: KdeModel(values=v, bandwidth=1.0),
    "quantile_ci": lambda v: quantile_ci(_EXP, _sin, v, alpha=0.5, delta=0.5),
    "density_band": lambda v: density_band(
        v, _EXP, _sin, kappa=0.5, delta=0.1, bandwidths=[0.3], interval=(-1.0, 1.0)),
    # the model's outputs are the sample: residuals 0 - v on one row
    "compute_residuals": lambda v: compute_residuals(
        lambda x: v, PairedDataset(inputs=[0.0], outputs=[0.0], kind="experimental")),
}


@pytest.mark.parametrize("bad", ["empty", "nan", "inf"])
@pytest.mark.parametrize("entry", list(_SAMPLE_ENTRIES))
def test_a_sample_is_nonempty_and_finite(entry, bad):
    v = make_rng(3).standard_normal(10_000)
    _SAMPLE_ENTRIES[entry](v)
    if bad == "empty":
        with pytest.raises(InsufficientDataError):
            _SAMPLE_ENTRIES[entry](v[:0])
        return
    v[5] = np.nan if bad == "nan" else np.inf
    with pytest.raises(DomainError, match="must be finite"):
        _SAMPLE_ENTRIES[entry](v)


def test_a_1d_point_of_a_5d_model_is_one_point():
    x = make_rng(5).random((20, 5))
    model = fit_penalized_ls(FunctionFamily("poly", 1), PairedDataset(
        inputs=x, outputs=x.sum(axis=1), kind="simulated"))
    point = np.full(5, 0.5)
    assert model(point).shape == (1,)
    assert model(point)[0] == model(point[None, :])[0]
    for bad in (np.zeros(4), np.zeros((3, 4))):
        with pytest.raises(DomainError):
            model(bad)


def test_input_sample_promotes_1d():
    s = InputSample(points=[1.0, 2.0, 3.0])
    assert s.points.shape == (3, 1)
    assert s.n == 3 and s.dim == 1
    with pytest.raises(ValueError):
        s.points[0, 0] = 0.0


_GP_DATA = DiscrepancyData(inputs=_X, model_outputs=np.zeros(6), observed=np.sin(_X))
_GP_PARAMS = GpDiscrepancyParams(lam=0.1, beta=0.0, sigma2=1.0, omegas=(2.0,))
_OUTPUTS = make_rng(4).standard_normal(1000)
_POLY1 = FunctionFamily("poly", 1)

# each count argument, "<entry point> <argument>", fed the value v
_COUNT_ENTRIES = {
    "sample_mvn count": lambda v: sample_mvn(MvnParams(mean=[0.0], cov=[[1.0]]), v, 0),
    "latin_hypercube count": lambda v: latin_hypercube([(0.0, 1.0)], v, 0),
    "gp_error_quantile reps": lambda v: gp_error_quantile(_GP_PARAMS, _GP_DATA, 0.9, reps=v),
    "gp_fit_map restarts": lambda v: gp_fit_map(_GP_DATA, restarts=v, maxiter=5),
    "bootstrap_error_quantile b_reps": lambda v: bootstrap_error_quantile(
        _EXP, _sin, _POLY1, b_reps=v, n_learn=3),
    "bootstrap_error_quantile n_learn": lambda v: bootstrap_error_quantile(
        _EXP, _sin, _POLY1, b_reps=2, n_learn=v),
    "density_band grid_steps": lambda v: density_band(
        _OUTPUTS, _EXP, _sin, kappa=0.5, delta=0.1, bandwidths=[0.3],
        interval=(-1.0, 1.0), grid_steps=v),
    "avm grid_steps": lambda v: avm(np.sin(_X), np.cos(_X), grid_steps=v),
    "select_weight_and_penalty folds": lambda v: select_weight_and_penalty(
        _POLY1, _EXP, np.cos(_X), _X, folds=v),
    "ci_feasibility n": lambda v: ci_feasibility(v, 0.9, 0.1),
    "minimal_feasible_delta n": lambda v: minimal_feasible_delta(v, 0.5),
    "FunctionFamily poly size": lambda v: FunctionFamily("poly", v),
}


@pytest.mark.parametrize("bad", [2.5, np.nan], ids=["fraction", "nan"])
@pytest.mark.parametrize("entry", list(_COUNT_ENTRIES))
def test_a_count_is_a_whole_number(entry, bad):
    _COUNT_ENTRIES[entry](2.0)
    what = entry.split(" ", 1)[1]
    with pytest.raises(DomainError, match=rf"^{what} must be an integer >= \d, got {bad}$"):
        _COUNT_ENTRIES[entry](bad)


def test_gp_maxiter_is_a_count_from_zero():
    assert gp_fit_map(_GP_DATA, restarts=2, maxiter=0).iterations == [0, 0]
    with pytest.raises(DomainError, match=r"^maxiter must be an integer >= 0, got -1$"):
        gp_fit_map(_GP_DATA, restarts=2, maxiter=-1)


def test_a_whole_float_count_is_taken_as_an_int():
    size = FunctionFamily("poly", 2.0).size
    assert size == 2 and type(size) is int
    assert avm(np.sin(_X), np.cos(_X), grid_steps=np.int64(3)).grid_steps == 3
    ref = bootstrap_error_quantile(_EXP, _sin, _POLY1, b_reps=3, n_learn=4)
    got = bootstrap_error_quantile(_EXP, _sin, _POLY1, b_reps=3.0, n_learn=4.0)
    assert got.n_learn == 4 and np.array_equal(got.quantiles, ref.quantiles)


# each probability level argument, "<entry point> <argument>", fed the value v
_LEVEL_ENTRIES = {
    "mc_quantile alpha": lambda v: mc_quantile(_OUTPUTS, v),
    "gp_error_quantile alpha": lambda v: gp_error_quantile(_GP_PARAMS, _GP_DATA, v, reps=2),
    "bootstrap_error_quantile alpha": lambda v: bootstrap_error_quantile(
        _EXP, _sin, _POLY1, b_reps=2, n_learn=3, alpha=v),
    "quantile_ci alpha": lambda v: quantile_ci(_EXP, _sin, _OUTPUTS, alpha=v, delta=0.5),
    "ci_feasibility alpha": lambda v: ci_feasibility(10, v, 0.1),
    "ci_feasibility delta": lambda v: ci_feasibility(10, 0.9, v),
    "density_band delta": lambda v: density_band(
        _OUTPUTS, _EXP, _sin, kappa=0.5, delta=v, bandwidths=[0.3], interval=(-1.0, 1.0)),
    "minimal_feasible_delta alpha": lambda v: minimal_feasible_delta(10, v),
    "true_quantile alpha": lambda v: make_mafds_like().true_quantile(v),
}


@pytest.mark.parametrize("bad", [0.0, 1.0, np.nan])
@pytest.mark.parametrize("entry", list(_LEVEL_ENTRIES))
def test_a_level_lies_strictly_inside_0_1(entry, bad):
    what = entry.split(" ", 1)[1]
    with pytest.raises(DomainError, match=rf"^{what} must lie in \(0, 1\), got {bad}$"):
        _LEVEL_ENTRIES[entry](bad)


@pytest.mark.parametrize("big_n", [0.5, np.inf])
def test_minimal_feasible_delta_checks_big_n(big_n):
    # a bad N is bad input, not an infeasible delta
    with pytest.raises(DomainError, match=rf"^N must be finite and >= 1, got {big_n}$"):
        minimal_feasible_delta(50, 0.95, big_n=big_n)
