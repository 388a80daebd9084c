"""Dataset containers and CSV ingestion.

Containers are frozen dataclasses holding read-only numpy arrays, so they can
be shared freely across threads.  A CSV table is read in two steps: numpy's
C parser (``np.loadtxt``) converts a well-formed numeric body in one call,
and only a file it rejects is tokenized again with ``csv.reader``, which
decides acceptance and reports the exact row and column of the first
offending cell; data rows are numbered from 1 (the header is row 0).
:func:`parse_dataset` alone picks a paired table's default columns, for the
CLI and the API alike.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

DATASET_KINDS = ("experimental", "simulated")


def _readonly(a) -> np.ndarray:
    """A read-only float copy of ``a``: every container takes its caller's
    arrays through it, so they stay writeable and later writes to them do not
    reach the container.  What a container builds itself (a sorted copy, an
    average) it freezes in place, with no second copy.  The one intended
    sharing: the models ``KdeModel._with_bandwidth`` makes share one array.
    """
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PairedDataset:
    """Input/output pairs (X_i, Y_i) with a provenance tag.

    Parameters
    ----------
    inputs : (n, d) array
    outputs : (n,) array
    kind : {"experimental", "simulated"}
    """

    inputs: np.ndarray
    outputs: np.ndarray
    kind: str
    input_names: tuple[str, ...] = ()
    output_name: str = "y"

    def __post_init__(self):
        inputs = np.atleast_2d(_readonly(self.inputs))
        if inputs.ndim != 2:
            raise DataError("inputs must be a 2-d array of shape (n, d)")
        outputs = _readonly(self.outputs).ravel()
        if inputs.shape[0] != outputs.shape[0]:
            raise DataError(
                f"row mismatch: {inputs.shape[0]} input rows vs "
                f"{outputs.shape[0]} outputs"
            )
        if inputs.shape[0] < 1 or inputs.shape[1] < 1:
            raise DataError("dataset needs at least one row and one input column")
        if self.kind not in DATASET_KINDS:
            raise DataError(f"unknown dataset kind {self.kind!r}")
        if not np.all(np.isfinite(inputs)) or not np.all(np.isfinite(outputs)):
            raise DataError("dataset contains non-finite values")
        names = tuple(self.input_names) or tuple(
            f"x{j + 1}" for j in range(inputs.shape[1])
        )
        if len(names) != inputs.shape[1]:
            raise DataError(
                f"{len(names)} input names for {inputs.shape[1]} columns"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "input_names", names)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class InputSample:
    """Bare input points (no outputs), e.g. a Monte Carlo design."""

    points: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self):
        pts = _readonly(self.points)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DataError("input sample must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise DataError("input sample contains non-finite values")
        names = tuple(self.names) or tuple(
            f"x{j + 1}" for j in range(pts.shape[1])
        )
        if len(names) != pts.shape[1]:
            raise DataError(f"{len(names)} names for {pts.shape[1]} columns")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _read_table(path, pick) -> tuple[list[str], np.ndarray]:
    """Read the columns ``pick(header)`` names from a CSV file as an (n, k) array.

    Rows whose cells are all blank are skipped and the first remaining row is
    the header, its cells stripped.  The body is then read in one of two steps:

    1. numpy's C parser (``np.loadtxt``) converts every column.  It accepts
       only what ``float()`` accepts, with equal values, and takes the file
       when each row has exactly the header's width.
    2. Any file it rejects (blank filler rows, text columns, ragged rows,
       spellings such as ``1_000`` or non-ASCII digits, or a bad cell) is
       tokenized again with ``csv.reader``.  Only the picked cells are
       converted, in one call that follows ``float()`` rules, and the exact
       ``DataError`` for a ragged row or the first bad cell comes from here.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        header = next(_nonblank_rows(fh), None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        header = [c.strip() for c in header]
        names = list(pick(header))
        missing = [c for c in names if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing} (header: {header})")
        idx = [header.index(c) for c in names]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contains no data"
                values = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                    ndmin=2, dtype=float)
        except ValueError:
            values = None
        if values is not None and values.shape[0] and values.shape[1] == len(header):
            # take keeps C order like the reshape below; values[:, idx] would not
            return names, values.take(idx, axis=1)
        fh.seek(0)
        rows = _nonblank_rows(fh)
        next(rows)
        cells, n = [], 0
        for n, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {n} has {len(row)} fields, expected {len(header)}"
                )
            cells.extend([row[j] for j in idx])
    if not n:
        raise DataError(f"{path}: no data rows")
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        _raise_bad_cell(path, cells, names)
        raise
    return names, values.reshape(n, len(names))


def _nonblank_rows(fh):
    """``csv.reader`` rows of ``fh`` with the all-blank rows left out."""
    return filter(lambda row: any(map(str.strip, row)), csv.reader(fh))


def _raise_bad_cell(path, cells: list[str], names: list[str]) -> None:
    """Raise a DataError naming the first cell, row-major, that ``float()`` rejects."""
    for i, raw in enumerate(cells):
        try:
            float(raw)
        except ValueError:
            raise DataError(
                f"{path}: non-numeric value {raw.strip()!r} at row "
                f"{i // len(names) + 1}, column {names[i % len(names)]!r}"
            ) from None


def parse_dataset(path, input_columns=None, output_column=None, kind="experimental"):
    """Parse a CSV file with a header row into a :class:`PairedDataset`.

    The output is ``output_column``, by default the last column; the inputs
    are ``input_columns``, by default every column but the output.
    """

    def pick(header):
        out = output_column or header[-1]
        if input_columns is None:
            cols = [c for c in header if c != out]
        else:
            cols = list(input_columns)
        if not cols:
            raise DataError(f"{path}: no input columns left besides {out!r}")
        return cols + [out]

    names, raw = _read_table(path, pick)
    return PairedDataset(inputs=raw[:, :-1], outputs=raw[:, -1], kind=kind,
                         input_names=tuple(names[:-1]), output_name=names[-1])


def parse_inputs(path, columns=None) -> InputSample:
    """Parse a CSV of input points; ``columns=None`` takes every column."""
    names, pts = _read_table(path, lambda header: header if columns is None else columns)
    return InputSample(points=pts, names=tuple(names))


_WRITE_CHUNK_ROWS = 65536


def _write_table(path, names, columns) -> None:
    """Write a header and the row-aligned ``columns`` (1-d arrays or 2-d blocks).

    Values are written as ``repr`` of the Python float, the shortest string
    that round-trips bitwise, with the csv module's CRLF line ends.  Rows go
    out in fixed-size chunks, so the extra memory does not grow with n.
    """
    n = len(columns[0])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(names)
        for a in range(0, n, _WRITE_CHUNK_ROWS):
            block = np.column_stack([c[a : a + _WRITE_CHUNK_ROWS] for c in columns])
            cells = [map(repr, col) for col in block.T.tolist()]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_dataset(dataset: PairedDataset, path) -> None:
    names = list(dataset.input_names) + [dataset.output_name]
    _write_table(path, names, [dataset.inputs, dataset.outputs])


def write_inputs(sample: InputSample, path) -> None:
    _write_table(path, sample.names, [sample.points])
