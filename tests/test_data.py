import json

import numpy as np
import pytest

from uqim.data import (
    InputSample,
    PairedDataset,
    RunConfig,
    parse_dataset,
    parse_inputs,
    write_dataset,
    write_inputs,
)
from uqim.errors import DataError, ValidationError
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


def test_input_sample_promotes_1d():
    s = InputSample(points=[1.0, 2.0, 3.0])
    assert s.points.shape == (3, 1)
    assert s.n == 3 and s.dim == 1
    with pytest.raises(ValueError):
        s.points[0, 0] = 0.0


def test_run_config_round_trip(tmp_path):
    cfg = RunConfig(seed=7, l_n=10, threads=2, out_dir="runs",
                    methods={"quantile": {"alpha": 0.9}})
    cfg.validate()
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    back = RunConfig.from_json(path)
    assert back == cfg
    # method blocks are stored flat, next to the scalar keys
    assert json.loads(path.read_text())["quantile"]["alpha"] == 0.9


def test_run_config_lists_every_bad_field():
    cfg = RunConfig(seed=-1, l_n=0, threads=0)
    with pytest.raises(ValidationError) as err:
        cfg.validate()
    joined = " ".join(err.value.fields)
    assert "seed" in joined and "l_n" in joined and "threads" in joined
    assert len(err.value.fields) == 3

