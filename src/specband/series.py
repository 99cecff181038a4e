"""Ingestion and centering of multivariate time-series data.

A series is a T x n real matrix: rows are time points, columns are
components. Estimation assumes a mean-zero process, so real data should be
passed through :func:`center` before anything downstream.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientData, InvalidSeries, ParseError

__all__ = ["MultivariateSeries", "load_csv", "center", "write_csv"]


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
        if not np.all(np.isfinite(values)):
            raise InvalidSeries("series contains NaN or infinite entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.centered:
            scale = np.max(np.abs(values), axis=0)
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


def load_csv(path, has_header: bool = False) -> MultivariateSeries:
    """Read a comma-separated file into an (uncentered) series.

    Every row must have the same number of columns and every cell must parse
    as a finite real. Row order is time order.
    """
    rows = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row_idx, cells in enumerate(reader, start=1):
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
    if len(rows) < 2:
        raise InsufficientData(
            f"need at least 2 data rows, got {len(rows)} (data starts at row {data_row})"
        )
    return MultivariateSeries(np.array(rows, dtype=float), centered=False)


def center(series: MultivariateSeries) -> MultivariateSeries:
    """Subtract each column's sample mean. Idempotent."""
    if series.centered:
        return series
    with np.errstate(over="ignore", invalid="ignore"):
        values = series.values - series.values.mean(axis=0, keepdims=True)
        # force exact-zero column sums so repeated centering is a no-op
        values = values - values.mean(axis=0, keepdims=True)
    if not np.all(np.isfinite(values)):
        raise InvalidSeries(
            "centering overflows: a column mean or deviation exceeds the float range"
        )
    return replace(series, values=values, centered=True)


def write_csv(series: MultivariateSeries, path) -> None:
    """Write a series back out at full float precision (round-trips exactly)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in series.values:
            writer.writerow([repr(float(v)) for v in row])
