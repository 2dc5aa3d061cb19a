"""Time-series container and its CSV round-trip."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InsufficientDataError


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled multichannel record.

    values has shape (n_samples, n_channels); dt is the sampling step in the
    caller's time units (1.0 for maps), finite and positive.
    """

    values: np.ndarray
    dt: float = 1.0
    names: tuple = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise FormatError("values must be a 1-D or 2-D array")
        if v.shape[0] < 2:
            raise InsufficientDataError("a series needs at least 2 samples")
        if not np.all(np.isfinite(v)):
            bad = np.argwhere(~np.isfinite(v))[0]
            raise FormatError(f"non-finite value at row {bad[0]}, column {bad[1]}")
        if not 0.0 < self.dt < math.inf:
            raise FormatError(f"dt must be positive and finite, got {self.dt}")
        names = tuple(self.names) if self.names else tuple(
            f"ch{i}" for i in range(v.shape[1]))
        if len(names) != v.shape[1]:
            raise FormatError("channel name count does not match column count")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "names", names)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def column(self, index: int) -> np.ndarray:
        """One channel's samples; an index outside the channels is a ValueError."""
        if not 0 <= index < self.n_channels:
            raise ValueError(f"channel {index} is out of range; the series has "
                             f"channels 0 to {self.n_channels - 1}")
        return self.values[:, index]

    def channel(self, index: int) -> "TimeSeries":
        """Single-channel view as a new series."""
        return TimeSeries(self.column(index)[:, None].copy(), self.dt,
                          (self.names[index],))

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _cells(line: str, delim: str | None) -> list:
    if delim is None:  # whitespace mode: str.split(None) collapses whitespace runs
        return line.split()
    return [c.strip() for c in line.split(delim)]


def _loadtxt(lines: list, delim: str | None, n_cols: int) -> np.ndarray | None:
    """The data lines parsed by np.loadtxt, or None where it raises, warns or
    finds other than n_cols columns in every line.

    What loadtxt accepts, float() reads to the same value; some tokens that
    float() accepts (digit underscores, non-ASCII digits) it rejects.  None
    leaves such tables, and malformed ones, to _parse_cells.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(lines, delimiter=delim, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return data if data.shape == (len(lines), n_cols) else None


def _parse_cells(path, rows: list, delim: str | None, n_cols: int) -> np.ndarray:
    """The (line number, line) rows parsed cell by cell with float()."""
    data = np.empty((len(rows), n_cols))
    for r, (lineno, line) in enumerate(rows):
        cells = _cells(line, delim)
        if len(cells) != n_cols:
            raise FormatError(
                f"{path}: line {lineno} has {len(cells)} columns, expected {n_cols}")
        for c, cell in enumerate(cells):
            try:
                data[r, c] = float(cell)
            except ValueError:
                raise FormatError(
                    f"{path}: non-numeric cell at line {lineno}, column {c + 1}"
                ) from None
    return data


def read_numeric_table(path, min_rows: int = 2, header: bool | None = None):
    """Parse a numeric table with an optional single header line.

    Cells are comma separated when the first non-blank line holds a comma,
    whitespace separated otherwise.  header None detects a header by whether
    the first row parses as numbers; True or False forces it.
    Returns (data, names) where names is () without a header.  Raises
    FormatError naming the offending 1-based file line and column on
    malformed input, InsufficientDataError below min_rows data rows.

    The non-blank data lines go to np.loadtxt as they are.  Only when
    loadtxt rejects them are their file line numbers worked out, for the
    cell-by-cell float() parse that names the bad line and column.
    """
    lines = Path(path).read_text().splitlines()
    data_lines = list(filter(str.strip, lines))  # blank lines strip to ""
    if not data_lines:
        raise InsufficientDataError(f"{path}: empty file")

    delim = "," if "," in data_lines[0] else None  # None selects whitespace mode

    first_cells = _cells(data_lines[0], delim)
    names: tuple = ()
    is_header = (header if header is not None
                 else not all(_is_float(c) for c in first_cells))
    if is_header:
        names = tuple(first_cells)
        data_lines = data_lines[1:]

    if len(data_lines) < min_rows:
        raise InsufficientDataError(f"{path}: fewer than {min_rows} data rows")

    n_cols = len(_cells(data_lines[0], delim))
    data = _loadtxt(data_lines, delim, n_cols)
    if data is None:
        rows = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
        data = _parse_cells(path, rows[1:] if is_header else rows, delim, n_cols)
    return data, names


def write_numeric_table(path, names, data) -> None:
    """Write a header line and one row per line of a 2-D float array.

    Cells are full-precision float reprs, so read_numeric_table restores
    bit-equal values.
    """
    rows = np.asarray(data, dtype=float).tolist()
    lines = [",".join(names)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


# Largest tolerated relative wobble in a time column's spacing.
TIME_UNIFORMITY_RTOL = 1e-9


def load_csv(path, dt: float | None = None, time_column: bool = False) -> TimeSeries:
    """Read a one-column-per-channel table, with an optional single header line.

    With time_column=True the first column holds sample times; dt is taken
    from their (required uniform) spacing; passing dt as well is a caller's
    error (ValueError), raised before the file is read.  The default dt
    without a time column is 1.0.  Raises FormatError naming the offending
    1-based file line and column on malformed input, InsufficientDataError
    when fewer than 2 data rows remain.
    """
    if time_column and dt is not None:
        raise ValueError("dt is read from the time column; drop one of them")
    data, names = read_numeric_table(path, min_rows=2)
    if time_column:
        if data.shape[1] < 2:
            raise FormatError(f"{path}: a time column needs at least one "
                              "value column beside it")
        steps = np.diff(data[:, 0])
        step = (data[-1, 0] - data[0, 0]) / (data.shape[0] - 1)
        if step <= 0 or np.max(np.abs(steps - step)) > TIME_UNIFORMITY_RTOL * abs(step):
            raise FormatError(f"{path}: time column is not uniformly spaced")
        data = data[:, 1:]
        if names:
            names = names[1:]
        dt = step
    return TimeSeries(data, dt=1.0 if dt is None else dt, names=names)


def save_csv(series: TimeSeries, path) -> None:
    """Write with full-precision float reprs so load_csv restores bit-equal data."""
    write_numeric_table(path, series.names, series.values)
