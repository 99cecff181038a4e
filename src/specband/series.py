"""Ingestion and centering of multivariate time-series data.

A series is a T x n real matrix: rows are time points, columns are
components. Estimation assumes a mean-zero process, so real data should be
passed through :func:`center` before anything downstream, or read with
``load_csv(..., centered=True)``, which centers the parsed array in place so
that only one copy of the series is ever held.

The CSV format: UTF-8 text, one time point per line, cells separated by
commas, every row of the same width, every cell a finite decimal float as
Python's ``float`` reads it. An optional first line is a header (read with
``has_header``). Blank lines are skipped. There are no comments: ``#`` is a
bad cell like any other.

JSON payloads (CLI output and experiment reports) have one encoder.
:func:`_jsonable` turns a result into plain JSON values: an object through
its ``to_dict()`` if it has one, any other dataclass through its fields,
numpy arrays and scalars through ``tolist()``, tuples as lists, and
non-finite floats as the strings "inf", "-inf" and "nan". :func:`_json_text`
adds ``schema_version`` and writes the payload with sorted keys, one line.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import os
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientData, InvalidSeries, ParseError

log = logging.getLogger(__name__)

_WRITE_BLOCK_CELLS = 2048  # cells formatted at a time by write_csv

SCHEMA_VERSION = 1


def _fields(obj) -> dict:
    """A dataclass's fields by name, values as they are."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _jsonable(obj):
    """Plain JSON values of a payload (the encoding is in the module docstring)."""
    if isinstance(obj, float):  # numpy's float64 too
        return float(obj) if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _jsonable(obj.tolist())
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    if dataclasses.is_dataclass(obj):
        return _jsonable(_fields(obj))
    return obj


def _json_text(payload) -> str:
    """The payload as one line of JSON with sorted keys and a schema version."""
    payload = {"schema_version": SCHEMA_VERSION, **_jsonable(payload)}
    return json.dumps(payload, sort_keys=True) + "\n"


@dataclass(frozen=True)
class MultivariateSeries:
    """Immutable T x n array of observations plus a centering flag."""

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise InvalidSeries("series values must be a 2-D (T, n) array")
        if values.shape[0] < 2:
            raise InsufficientData(
                f"need at least 2 time points, got {values.shape[0]}"
            )
        if values.shape[1] < 1:
            raise InvalidSeries("series needs at least one component column")
        col_max, col_min = _column_extremes(values)
        if not _finite(col_max, col_min):
            raise InvalidSeries("series contains NaN or infinite entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.centered:  # max |x| per column, with no (T, n) temporary
            scale = np.maximum(col_max, -col_min)
            tol = 1e-10 * values.shape[0] * np.maximum(scale, 1e-300)
            with np.errstate(over="ignore", invalid="ignore"):
                col_sums = np.abs(values.sum(axis=0))
            if not np.all(col_sums <= tol):  # an overflowed sum may be NaN
                raise InvalidSeries("centered flag set but column sums are nonzero")

    @property
    def t_len(self) -> int:
        return self.values.shape[0]

    @property
    def n_dim(self) -> int:
        return self.values.shape[1]


def load_csv(path, has_header: bool = False, centered: bool = False) -> MultivariateSeries:
    """Read a comma-separated file into a series, centered if ``centered``.

    Every row must have the same number of columns and every cell must parse
    as a finite real. Row order is time order. The file is parsed in bulk
    first; only a file the bulk parse rejects goes through the per-cell
    reader, which either accepts it or names the offending row and column.
    With ``centered`` the parsed array, which nothing else holds, is centered
    in place: the values are those of ``center(load_csv(path))`` bit for bit,
    and an overflow raises the same InvalidSeries, but no second copy of the
    series is made.
    """
    start = time.perf_counter()
    values = _bulk_parse(path, has_header)
    method = "bulk"
    if values is None:
        values = _parse_cells(path, has_header)
        method = "per-cell"
    if centered:
        _centered(values, out=values)
    series = MultivariateSeries(values, centered=centered)
    log.info(
        "read %s: %d rows x %d columns, %d bytes, %.3f s (%s parse)",
        path, series.t_len, series.n_dim, os.path.getsize(path),
        time.perf_counter() - start, method,
    )
    return series


def _bulk_parse(path, has_header: bool):
    """All values of the file from one np.loadtxt parse, or None if it is rejected.

    Accepted only when the result is what the per-cell reader would return:
    at least 2 rows, every value finite, and under a header a one-line header
    of the same width. An open handle is passed so that loadtxt never
    decompresses a .gz path or fetches a URL.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            values = np.loadtxt(
                fh, delimiter=",", ndmin=2, comments=None, skiprows=int(has_header)
            )
    except (ValueError, OSError):
        return None
    if values.shape[0] < 2 or not _finite(*_column_extremes(values)):
        return None
    if has_header:  # loadtxt skipped one line: was that line the whole header?
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(_checked(reader), [])
            if reader.line_num != 1 or len(header) != values.shape[1]:
                return None
    return values


def _checked(reader):
    """The rows of a csv.reader, with a line it cannot split (such as one with
    a cell over the reader's field limit) raised as a ParseError, and so is a
    row that is not UTF-8: on a file opened with errors="surrogateescape" its
    bad bytes are lone surrogates, which do not encode."""
    try:
        for cells in reader:
            "".join(cells).encode("utf-8")
            yield cells
    except csv.Error as exc:
        raise ParseError(
            f"row {reader.line_num} is not readable CSV: {exc}", row=reader.line_num
        ) from None
    except UnicodeEncodeError:
        raise ParseError(
            f"row {reader.line_num} is not UTF-8 text", row=reader.line_num
        ) from None


def load_matrix(path) -> np.ndarray:
    """A matrix file, such as a model's coefficient or covariance, as an array.

    The file follows the CSV format above, with no header, and may have a
    single row.
    """
    return _parse_cells(path, False, min_rows=1)


def _parse_cells(path, has_header: bool, min_rows: int = 2) -> np.ndarray:
    """Per-cell reader: the reference semantics of the CSV format.

    Raises ParseError(row, col) at the first bad cell or ragged row, and
    InsufficientData below ``min_rows`` data rows.
    """
    rows = []
    width = None
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        for row_idx, cells in enumerate(_checked(reader), start=1):
            if has_header and row_idx == 1:
                width = len(cells)
                continue
            if not cells or (len(cells) == 1 and cells[0].strip() == ""):
                continue  # ignore blank lines
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ParseError(
                    f"row {row_idx} has {len(cells)} columns, expected {width}",
                    row=row_idx,
                )
            parsed = []
            for col_idx, cell in enumerate(cells, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"non-numeric cell {cell!r} at row {row_idx}, col {col_idx}",
                        row=row_idx,
                        col=col_idx,
                    ) from None
                if not np.isfinite(value):
                    raise ParseError(
                        f"non-finite cell at row {row_idx}, col {col_idx}",
                        row=row_idx,
                        col=col_idx,
                    )
                parsed.append(value)
            rows.append(parsed)
    data_row = 2 if has_header else 1
    if len(rows) < min_rows:
        raise InsufficientData(
            f"need at least {min_rows} data {'row' if min_rows == 1 else 'rows'},"
            f" got {len(rows)} (data starts at row {data_row})"
        )
    return np.array(rows, dtype=float)


def center(series: MultivariateSeries) -> MultivariateSeries:
    """Subtract each column's sample mean.

    Idempotent: a centered series is returned as it is. Otherwise the result
    is a new series on one new array, and the input is left untouched.
    """
    if series.centered:
        return series
    return replace(series, values=_centered(series.values), centered=True)


def _centered(values: np.ndarray, out=None) -> np.ndarray:
    """Each column of a (T, n) float array minus its mean, or InvalidSeries.

    Two mean subtractions: the second forces exact-zero column sums, so that
    centering again is a no-op. The result goes to ``out`` (``values`` itself
    to center in place) or to a new array.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.subtract(values, values.mean(axis=0, keepdims=True), out=out)
        out -= out.mean(axis=0, keepdims=True)
    if not _finite(*_column_extremes(out)):
        raise InvalidSeries(
            "centering overflows: a column mean or deviation exceeds the float range"
        )
    return out


def _column_extremes(values: np.ndarray):
    """(max, min) of each column of a (T, n) array; NaN where a column has one.

    One column view at a time, since an axis-0 reduction loops per row, and
    with no (T, n) temporary.
    """
    return (
        np.array([col.max() for col in values.T]),
        np.array([col.min() for col in values.T]),
    )


def _finite(col_max: np.ndarray, col_min: np.ndarray) -> bool:
    """Whether columns with these extremes hold only finite values: NaN shows in
    both, +inf in the max and -inf in the min."""
    return bool(np.all(np.isfinite(col_max)) and np.all(np.isfinite(col_min)))


def write_csv(series: MultivariateSeries, path) -> None:
    """Write a series back out at full float precision (round-trips exactly).

    The bytes are those of ``csv.writer`` on ``repr`` of each value: cells
    joined by "," and rows ended by "\\r\\n". Whole rows are formatted a
    block of about ``_WRITE_BLOCK_CELLS`` cells at a time (one row when a row
    is wider), so the strings in memory stay bounded whatever the shape.
    """
    start = time.perf_counter()
    values = series.values
    n_dim = values.shape[1]
    block = max(1, _WRITE_BLOCK_CELLS // n_dim)  # rows per block
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for first in range(0, values.shape[0], block):
            cells = map(repr, values[first : first + block].ravel().tolist())
            fh.write("\r\n".join(map(",".join, zip(*[cells] * n_dim))))
            fh.write("\r\n")
    log.info(
        "wrote %s: %d rows x %d columns, %d bytes, %.3f s",
        path, series.t_len, n_dim, os.path.getsize(path), time.perf_counter() - start,
    )
