import numpy as np
import pytest

from uqim.data import (
    InputSample,
    PairedDataset,
    parse_dataset,
    parse_inputs,
    write_dataset,
    write_inputs,
)
from uqim.errors import DataError
from uqim.synthetic import FIELD_INPUT_NAMES, field_measurements


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


# Files that numpy's C parser rejects or reads at the wrong width, and CR-only
# line ends: the reader must handle them exactly as the per-cell float()
# rules do.  Values are float() of the cell text; a string is the DataError
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
    "quoted_text_column": ('a,label,b\n1,"a,b",2\n3,"say ""hi""",4\n', ["b", "a"],
                           [[2.0, 1.0], [4.0, 3.0]]),
    "text_column_selected": ('a,label\n1,"a,b"\n', None,
                             "non-numeric value 'a,b' at row 1, column 'label'"),
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
    path.write_bytes(text.encode())
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


def test_input_sample_promotes_1d():
    s = InputSample(points=[1.0, 2.0, 3.0])
    assert s.points.shape == (3, 1)
    assert s.n == 3 and s.dim == 1
    with pytest.raises(ValueError):
        s.points[0, 0] = 0.0
