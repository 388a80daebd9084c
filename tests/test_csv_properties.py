"""Property tests of the CSV reader and writer.

Round trips must be bitwise, the writer must match ``csv.writer`` byte for
byte, and the reader must agree with a per-cell ``float()`` reference on
values, acceptance and the exact ``DataError`` message.
"""

import csv

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqim.data import (
    InputSample,
    PairedDataset,
    _write_table,
    parse_dataset,
    parse_inputs,
    write_dataset,
    write_inputs,
)
from uqim.errors import DataError

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, 0.1, -1.5e-7]
values = st.one_of(
    st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
# names survive the header strip and may need quoting
names = st.text(st.sampled_from('ab_xyZ09 ,"\n'), min_size=1, max_size=6).filter(
    lambda s: s == s.strip()
)


@st.composite
def tables(draw, min_cols=1):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(min_cols, 4))
    cols = draw(st.lists(names, min_size=d, max_size=d, unique=True))
    data = draw(st.lists(values, min_size=n * d, max_size=n * d))
    return cols, np.array(data, dtype=float).reshape(n, d)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


@SETTINGS
@given(table=tables())
def test_inputs_round_trip_bitwise(tmp_path_factory, table):
    cols, pts = table
    path = tmp_path_factory.mktemp("csv") / "pts.csv"
    write_inputs(InputSample(points=pts, names=cols), path)
    back = parse_inputs(path)
    assert back.names == tuple(cols)
    assert _bits(back.points) == _bits(pts)


@SETTINGS
@given(table=tables(min_cols=2))
def test_dataset_round_trip_bitwise(tmp_path_factory, table):
    cols, raw = table
    ds = PairedDataset(inputs=raw[:, :-1], outputs=raw[:, -1], kind="simulated",
                       input_names=cols[:-1], output_name=cols[-1])
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    write_dataset(ds, path)
    back = parse_dataset(path, cols[:-1], cols[-1], kind="simulated")
    assert _bits(back.inputs) == _bits(ds.inputs)
    assert _bits(back.outputs) == _bits(ds.outputs)


@SETTINGS
@given(table=tables())
def test_writer_matches_csv_writer_bytes(tmp_path_factory, table):
    cols, pts = table
    tmp = tmp_path_factory.mktemp("csv")
    with open(tmp / "ref.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(cols)
        for row in pts:
            out.writerow([repr(float(v)) for v in row])
    _write_table(tmp / "new.csv", cols, list(pts.T))
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# reader against a per-cell reference


def _reference_table(path, columns):
    """Per-row, per-cell parse with the reader's documented rules."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if any(c.strip() for c in r)]
    if not rows:
        raise DataError(f"{path}: file is empty")
    header, body = [c.strip() for c in rows[0]], rows[1:]
    columns = header if columns is None else columns
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing} (header: {header})")
    if not body:
        raise DataError(f"{path}: no data rows")
    for i, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {i} has {len(row)} fields, expected {len(header)}"
            )
    out = np.empty((len(body), len(columns)))
    for i, row in enumerate(body, start=1):
        for k, col in enumerate(columns):
            raw = row[header.index(col)]
            try:
                out[i - 1, k] = float(raw)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric value {raw.strip()!r} at row {i}, "
                    f"column {col!r}"
                ) from None
    return list(columns), out


def _reference_inputs(path, columns):
    names, pts = _reference_table(path, columns)
    return InputSample(points=pts, names=tuple(names))


def _reference_dataset(path, columns):
    names, raw = _reference_table(path, columns)
    return PairedDataset(inputs=raw[:, :-1], outputs=raw[:, -1], kind="experimental",
                         input_names=tuple(names[:-1]), output_name=names[-1])


numerals = st.one_of(
    values.map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", ".5", "5.", "+.5e-3", "١٢"]),
)
# rejected by float(), or accepted but non-finite: each about 1 cell in 30
garbage = st.sampled_from(["", " ", "abc", "1e", "1__0", "--1", "0x1p3", "1,5", '"'])
non_finite = st.sampled_from(["nan", "-inf", "1e500"])


def _cell_text(parts) -> str:
    core, left, right, quoted = parts
    text = left + core + right
    return f'"{text}"' if quoted and '"' not in core else text


cells = st.tuples(
    st.integers(0, 29).flatmap(
        lambda k: garbage if k == 0 else non_finite if k == 1 else numerals
    ),
    st.sampled_from(["", " ", "\t", "  "]),
    st.sampled_from(["", " ", "\t"]),
    st.booleans(),
).map(_cell_text)
labels = st.sampled_from(["red", '"a,b"', "", "  ", '"say ""hi"""', "1.0"])
fillers = st.sampled_from(["", ",,", " , ,", "\t"])


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 3))
    header = [f"c{j}" for j in range(width)] + ["label"]
    lines = [draw(fillers) for _ in range(draw(st.integers(0, 2)))]
    lines.append(" , ".join(header) if draw(st.booleans()) else ",".join(header))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(fillers))
            continue
        row = [draw(cells) for _ in range(width)] + [draw(labels)]
        if draw(st.integers(0, 15)) == 0:
            row = row[: draw(st.integers(0, width))]  # ragged
        lines.append(",".join(row))
    numeric = header[:-1]
    subsets = st.permutations(numeric).flatmap(
        lambda p: st.integers(1, len(p)).map(lambda k: list(p[:k]))
    )
    columns = draw(st.one_of(subsets, subsets, subsets, subsets, st.none(),
                             st.just(["c0", "missing"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), columns


def _outcome(fn):
    try:
        out = fn()
    except DataError as exc:
        return ("error", str(exc))
    if isinstance(out, InputSample):
        return ("ok", out.names, _bits(out.points))
    return ("ok", out.input_names, out.output_name, _bits(out.inputs),
            _bits(out.outputs))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=csv_texts())
def test_reader_matches_per_cell_reference(tmp_path_factory, case):
    text, columns = case
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(text.encode())
    assert _outcome(lambda: parse_inputs(path, columns)) == _outcome(
        lambda: _reference_inputs(path, columns)
    )
    if columns is not None and len(columns) >= 2:
        assert _outcome(lambda: parse_dataset(path, columns[:-1], columns[-1])) == (
            _outcome(lambda: _reference_dataset(path, columns))
        )
