"""Dataset containers and CSV ingestion.

The package's five input rules live here: :func:`_points` says what an
array of points means, (n, d) points with a 1-d array a column,
:func:`_rows` checks and copies a container's points and columns,
:func:`_values` checks a sample of values, such as model outputs or
residuals, :func:`_count` takes every size, count and number of steps, and
:func:`_level` every probability level.
Containers are frozen dataclasses holding read-only numpy arrays, so they can
be shared freely across threads.  A CSV file is read once, front to back:
``csv.reader`` reads the header, numpy's C parser (``np.loadtxt``) reads a
seekable file's well-formed numeric body by path, and the same reader reads a
body numpy rejects or cannot reopen, reporting the exact row and column of the
first offending cell; data rows are numbered from 1 (the header is row 0).
:func:`parse_dataset` alone picks a paired table's default columns, for the
CLI and the API alike.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, InsufficientDataError

DATASET_KINDS = ("experimental", "simulated")


def _readonly(a) -> np.ndarray:
    """A read-only float copy of ``a``: every container takes its caller's
    arrays through it, so they stay writeable and later writes to them do not
    reach the container.  What a container builds itself (a sorted copy, an
    average) it freezes in place, with no second copy.
    """
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _points(x, dim=None) -> np.ndarray:
    """``x`` (an array or an :class:`InputSample`) as an (n, d) float array.

    A 1-d array is a column of n points, except that with ``dim > 1`` it is
    one point, as ``model(point)`` reads it; a scalar is one point.  When
    ``dim`` is given, d must equal it.
    """
    a = x.points if isinstance(x, InputSample) else np.asarray(x, dtype=float)
    if a.ndim < 2:
        a = a.reshape((1, -1) if dim is not None and dim > 1 else (-1, 1))
    if a.ndim != 2 or dim is not None and a.shape[1] != dim:
        raise DomainError(f"expected points of dimension {dim or 'd'}, got shape {a.shape}")
    return a


def _rows(points, *columns) -> tuple[np.ndarray, ...]:
    """Read-only copies of ``points``, read by :func:`_points`, and of each
    1-d column: at least one row and one coordinate, n values in every
    column, every value finite.  Every data container takes its arrays here."""
    try:
        x = _readonly(_points(points))
    except DomainError as exc:
        raise DataError(str(exc)) from None
    cols = [_readonly(np.ravel(c)) for c in columns]
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise DataError(
            f"need a nonempty (n, d) array, at least one row and one input column, "
            f"got shape {x.shape}"
        )
    if any(c.shape[0] != x.shape[0] for c in cols):
        raise DataError(
            f"row mismatch: {x.shape[0]} input rows, mismatched column lengths "
            f"{[c.shape[0] for c in cols]}"
        )
    if not all(np.isfinite(a).all() for a in (x, *cols)):
        raise DataError("data contains non-finite values")
    return (x, *cols)


def _values(x, what: str, least: int = 1) -> np.ndarray:
    """``x`` as a 1-d float array of at least ``least`` values, every one
    finite: every sample of outputs or residuals, and a model file's
    coefficients, is taken through it."""
    v = np.asarray(x, dtype=float).ravel()
    if v.size < least:
        raise InsufficientDataError(f"{what}: need at least {least}, got {v.size}")
    if not np.isfinite(v).all():
        raise DomainError(f"{what} must be finite")
    return v


def _count(value, what: str, least: int = 1) -> int:
    """``value`` as an int of at least ``least``: a Python or numpy int, or a
    float with an integer value.  Every sample size, fold, replicate, restart,
    iteration and grid step count is taken through it."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value}")
    return count


def _level(value, what: str):
    """``value``, a probability level such as alpha or delta, strictly inside (0, 1)."""
    if not 0.0 < value < 1.0:
        raise DomainError(f"{what} must lie in (0, 1), got {value}")
    return value


def _names(names, dim: int) -> tuple[str, ...]:
    """``names``, or ``x1..xd`` when there are none; one per coordinate."""
    names = tuple(names) or tuple(f"x{j + 1}" for j in range(dim))
    if len(names) != dim:
        raise DataError(f"{len(names)} input names for {dim} columns")
    return names


@dataclass(frozen=True)
class PairedDataset:
    """Input/output pairs (X_i, Y_i) with a provenance tag.

    Parameters
    ----------
    inputs : (n, d) array; a 1-d array is n points of one coordinate
    outputs : (n,) array
    kind : {"experimental", "simulated"}
    """

    inputs: np.ndarray
    outputs: np.ndarray
    kind: str
    input_names: tuple[str, ...] = ()
    output_name: str = "y"

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise DataError(f"unknown dataset kind {self.kind!r}")
        inputs, outputs = _rows(self.inputs, self.outputs)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "input_names", _names(self.input_names, inputs.shape[1]))

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
        (pts,) = _rows(self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "names", _names(self.names, pts.shape[1]))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _read_table(path, pick) -> tuple[list[str], np.ndarray]:
    """Read the columns ``pick(header)`` names from a CSV file as an (n, k) array.

    Rows whose cells are all blank are skipped and the first remaining row is
    the header, its cells stripped.  One ``csv.reader`` reads them, and then:

    1. numpy's C parser (``np.loadtxt``) reopens a seekable file by path,
       skips the header's physical lines (``reader.line_num``) and converts
       every column.  It accepts only what ``float()`` accepts, with equal
       values, and takes the body when each row has the header's width.
    2. A body numpy rejects (blank filler rows, text columns, ragged rows,
       spellings such as ``1_000`` or non-ASCII digits, or a bad cell), or a
       pipe's body, is read on by the same reader.  Only the picked cells are
       converted, in one call that follows ``float()`` rules, and the exact
       ``DataError`` for a ragged row or the first bad cell comes from here.
    """
    try:
        fh = open(path, newline="", errors="replace")  # a bad byte is a bad cell
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        rows = (row for row in reader if any(map(str.strip, row)))
        header = next(rows, None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        header = [c.strip() for c in header]
        names = list(pick(header))
        missing = [c for c in names if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing} (header: {header})")
        idx = [header.index(c) for c in names]
        values = None
        if fh.seekable():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # "input contains no data"
                    values = np.loadtxt(path, delimiter=",", comments=None, quotechar='"',
                                        ndmin=2, dtype=float, skiprows=reader.line_num)
            except ValueError:
                pass
        if values is not None and values.shape[0] and values.shape[1] == len(header):
            # take keeps C order like the reshape below; values[:, idx] would not
            return names, values.take(idx, axis=1)
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
