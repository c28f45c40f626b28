"""Return panels: construction, CSV ingestion and date-bucket splitting.

A panel is an (m, n) float64 matrix of m observation rows (dates, strictly
increasing ``YYYY-MM-DD`` strings) by n named columns.  Panels are immutable
after construction; every transformation returns a new panel.
"""

from __future__ import annotations

import bisect
import csv
import datetime
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DroppedDataWarning

__all__ = [
    "SamplePanel",
    "BucketSplit",
    "ingest_csv",
    "read_wide_csv",
    "write_wide_csv",
    "split_buckets",
    "center",
]


def _check_date(text: str, context: str) -> str:
    """Return ``text`` if it is a calendar date written as ``YYYY-MM-DD``.

    Rows are ordered by comparing these strings, which matches date order
    only for this one spelling; ``fromisoformat`` alone also accepts
    ``20200101`` and ``2020-W01-1`` on newer Pythons.
    """
    if len(text) == 10 and text[4] == text[7] == "-":
        try:
            datetime.date.fromisoformat(text)
            return text
        except ValueError:
            pass
    raise DataError(f"{context}: invalid ISO date {text!r}")


class _RowIndex(tuple):
    """Row dates already checked: canonical dates, strictly increasing.

    Only this module makes one, from dates it has validated or from a
    contiguous slice of another.  Any other tuple, including a slice of
    this one (slicing returns a plain tuple), is validated again.
    """

    __slots__ = ()


# days in each month of a leap year, after a 0 for month 0
_MONTH_DAYS = np.array([0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int16)


def _check_rows(rows: tuple) -> _RowIndex:
    """``rows`` as a ``_RowIndex`` if all are dates, in increasing order.

    Checks the same dates as ``_check_date``, in one pass over their bytes,
    and order on the integer ``yyyymmdd``.  ``_check_date`` raises on the
    first invalid date, which wins over an earlier order break.
    """
    m = len(rows)
    wrong = np.flatnonzero(np.fromiter(map(len, rows), dtype=np.intp, count=m) != 10)
    n = int(wrong[0]) if wrong.size else m  # rows before n are 10 characters
    text = np.frombuffer("".join(rows).encode("ascii", "replace"), np.uint8, 10 * n)
    digits = text.reshape(n, 10).T.copy()  # a row per character position
    del text
    ok = (digits[4] == ord("-")) & (digits[7] == ord("-"))
    digits -= ord("0")  # a digit becomes its value, any other byte wraps above 9
    fields = []  # int16, built in place; only rows with a non-digit can wrap
    for a, b in ((0, 4), (5, 7), (8, 10)):
        value = np.zeros(n, dtype=np.int16)
        for j in range(a, b):
            ok &= digits[j] <= 9
            value *= 10
            value += digits[j]
        fields.append(value)
    year, month, day = fields
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= day <= np.take(_MONTH_DAYS, month, mode="clip")
    feb29 = np.flatnonzero((month == 2) & (day == 29))
    leap = year[feb29]
    ok[feb29] &= (leap % 4 == 0) & ((leap % 100 != 0) | (leap % 400 == 0))
    bad = np.flatnonzero(~ok)
    if bad.size or n < m:
        _check_date(rows[int(bad[0]) if bad.size else n], "row id")
    key = year.astype(np.int32)
    for field in (month, day):
        key *= 100
        key += field
    breaks = np.flatnonzero(key[1:] <= key[:-1])
    if breaks.size:
        raise DataError(f"row dates not strictly increasing at {rows[int(breaks[0]) + 1]!r}")
    return _RowIndex(rows)


@dataclass(frozen=True)
class SamplePanel:
    """Immutable (m, n) observation matrix with dated rows and named columns.

    ``row_ids`` must be ``YYYY-MM-DD`` dates in strictly increasing order.
    The dates are checked once: panels derived from this one (``with_data``,
    ``split_buckets``, whitening and unmixing) reuse the validated index,
    while their data, shape and columns are checked like any other panel's.
    Any other row index is checked in one array pass, not date by date.
    """

    data: np.ndarray
    column_ids: tuple
    row_ids: tuple

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64, order="C")
        if data.ndim != 2:
            raise DataError(f"panel data must be 2-d, got shape {data.shape}")
        m, n = data.shape
        if m < 2:
            raise DataError(f"panel needs at least 2 rows, got {m}")
        if n < 1:
            raise DataError("panel needs at least 1 column")
        if not np.all(np.isfinite(data)):
            raise DataError("panel data contains non-finite entries")
        columns = tuple(str(c) for c in self.column_ids)
        rows = self.row_ids
        trusted = isinstance(rows, _RowIndex)
        if not trusted:
            rows = tuple(map(str, rows))
        if len(columns) != n:
            raise DataError(f"{len(columns)} column ids for {n} columns")
        if len(rows) != m:
            raise DataError(f"{len(rows)} row ids for {m} rows")
        if len(set(columns)) != n:
            raise DataError("duplicate column ids")
        if not trusted:
            rows = _check_rows(rows)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "column_ids", columns)
        object.__setattr__(self, "row_ids", rows)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def with_data(self, data) -> "SamplePanel":
        """New panel with the same columns and dates and replaced values."""
        return SamplePanel(data, self.column_ids, self.row_ids)


@dataclass(frozen=True)
class BucketSplit:
    """A panel split into disjoint in-sample and out-of-sample date ranges."""

    in_sample: SamplePanel
    out_sample: SamplePanel

    def __post_init__(self):
        if self.in_sample.column_ids != self.out_sample.column_ids:
            raise DataError("bucket columns differ")
        if self.in_sample.row_ids[-1] >= self.out_sample.row_ids[0]:
            raise DataError("bucket date ranges overlap")


def split_buckets(panel: SamplePanel, boundary_date: str) -> BucketSplit:
    """Split rows at a boundary date: strictly before it vs. on or after.

    The boundary must fall inside the panel's date range so that neither
    bucket is empty.
    """
    boundary = _check_date(str(boundary_date), "boundary")
    rows = panel.row_ids
    n_in = bisect.bisect_left(rows, boundary)
    if n_in == 0 or n_in == panel.m:
        raise DataError(
            f"boundary {boundary} leaves an empty bucket "
            f"(panel covers {rows[0]} to {rows[-1]})"
        )
    return BucketSplit(
        in_sample=SamplePanel(panel.data[:n_in], panel.column_ids, _RowIndex(rows[:n_in])),
        out_sample=SamplePanel(panel.data[n_in:], panel.column_ids, _RowIndex(rows[n_in:])),
    )


def center(panel: SamplePanel) -> SamplePanel:
    """Subtract each column's mean."""
    return panel.with_data(panel.data - panel.data.mean(axis=0))


def _open_text(path_or_file, mode="r"):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode, newline=""), True


def _intern(codes: dict, names: list, raw: str) -> int:
    """Code of ``raw.strip()``; a name not seen before gets the next code.

    ``codes`` maps both the raw field and its stripped name to the code, so
    a field spelled the same way again costs one dict lookup.
    """
    name = raw.strip()
    code = codes.get(name)
    if code is None:
        code = codes[name] = len(names)
        names.append(name)
    codes[raw] = code
    return code


def _sorted_ranks(names: list):
    """``names`` sorted, and the position in that order of each code."""
    order = sorted(range(len(names)), key=names.__getitem__)
    ranks = np.empty(len(names), dtype=np.intp)
    ranks[order] = np.arange(len(names))
    return [names[i] for i in order], ranks


def _duplicate_error(date_codes, symbol_codes, lines, dates, symbols):
    """Error for the first row, in file order, repeating an earlier (date, symbol)."""
    d = np.frombuffer(date_codes, dtype=np.int64)
    s = np.frombuffer(symbol_codes, dtype=np.int64)
    keys = d * len(symbols) + s
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if not repeats.size:
        return None
    i = int(repeats.min())
    return DataError(f"line {lines[i]}: duplicate row for {symbols[s[i]]} on {dates[d[i]]}")


def ingest_csv(path_or_file, fill_missing: bool = True) -> SamplePanel:
    """Build a panel from long-format CSV rows ``date,symbol,return``.

    Dates must be ``YYYY-MM-DD``; dates and symbols are stripped of
    surrounding whitespace.  The cross product of observed dates and
    symbols is assembled with dates sorted ascending and symbols sorted
    alphabetically.  Pairs not present in the file are filled with 0.0
    when ``fill_missing`` is true; otherwise symbols with any missing date
    are dropped (with a warning).  Duplicate (date, symbol) pairs and
    unparseable rows are errors; the first bad line in file order is
    reported.  Each distinct date is validated once, and memory beyond the
    panel itself is a few dozen bytes per row.
    """
    date_codes: dict = {}
    symbol_codes: dict = {}
    dates: list = []  # code -> date
    symbols: list = []  # code -> symbol
    row_dates = array("q")
    row_symbols = array("q")
    values = array("d")
    lines = array("q")  # read only to report duplicates
    handle, owned = _open_text(path_or_file)
    try:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty input file") from None
        if [h.strip().lower() for h in header] != ["date", "symbol", "return"]:
            raise DataError(f"expected header date,symbol,return, got {header!r}")
        try:
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 3:
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    raise DataError(f"line {lineno}: expected 3 fields, got {len(row)}")
                raw_date, raw_symbol, raw_value = row
                d = date_codes.get(raw_date)
                if d is None:
                    _check_date(raw_date.strip(), f"line {lineno}")
                    d = _intern(date_codes, dates, raw_date)
                s = symbol_codes.get(raw_symbol)
                if s is None:
                    if not raw_symbol.strip():
                        raise DataError(f"line {lineno}: empty symbol")
                    s = _intern(symbol_codes, symbols, raw_symbol)
                try:
                    value = float(raw_value)
                except ValueError:
                    raise DataError(f"line {lineno}: bad return {raw_value!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"line {lineno}: non-finite return {raw_value!r}")
                row_dates.append(d)
                row_symbols.append(s)
                values.append(value)
                lines.append(lineno)
        except DataError:
            # a duplicate on an earlier line is the first bad line
            error = _duplicate_error(row_dates, row_symbols, lines, dates, symbols)
            if error is None:
                raise
            raise error from None
    finally:
        if owned:
            handle.close()
    if not values:
        raise DataError("no data rows in input")
    error = _duplicate_error(row_dates, row_symbols, lines, dates, symbols)
    if error is not None:
        raise error
    date_list, date_ranks = _sorted_ranks(dates)
    symbol_list, symbol_ranks = _sorted_ranks(symbols)
    i = date_ranks[np.frombuffer(row_dates, dtype=np.int64)]
    j = symbol_ranks[np.frombuffer(row_symbols, dtype=np.int64)]
    data = np.zeros((len(date_list), len(symbol_list)))
    data[i, j] = np.frombuffer(values, dtype=np.float64)
    if not fill_missing:
        present = np.zeros(data.shape, dtype=bool)
        present[i, j] = True
        complete = present.all(axis=0)
        dropped = [sym for sym, ok in zip(symbol_list, complete) if not ok]
        if dropped:
            warnings.warn(
                f"dropped {len(dropped)} symbols with missing dates: "
                + ", ".join(dropped[:10])
                + ("..." if len(dropped) > 10 else ""),
                DroppedDataWarning,
                stacklevel=2,
            )
        symbol_list = [sym for sym, ok in zip(symbol_list, complete) if ok]
        if not symbol_list:
            raise DataError("every symbol has missing dates; nothing to ingest")
        data = data[:, complete]
    # distinct checked dates, sorted: a valid row index as they stand
    return SamplePanel(data, tuple(symbol_list), _RowIndex(date_list))


def read_wide_csv(path_or_file) -> SamplePanel:
    """Read a wide-format panel: header ``date,<sym1>,<sym2>,...``, one row per date."""
    handle, owned = _open_text(path_or_file)
    try:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty input file") from None
        if len(header) < 2 or header[0].strip().lower() != "date":
            raise DataError("wide CSV must start with a 'date' column")
        columns = tuple(h.strip() for h in header[1:])
        rows = []
        dates = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataError(
                    f"line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            date = _check_date(row[0].strip(), f"line {lineno}")
            if dates and date <= dates[-1]:
                raise DataError(f"line {lineno}: row dates not strictly increasing at {date!r}")
            dates.append(date)
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise DataError(f"line {lineno}: bad numeric field") from None
    finally:
        if owned:
            handle.close()
    if not rows:
        raise DataError("no data rows in input")
    return SamplePanel(np.array(rows), columns, _RowIndex(dates))


def write_wide_csv(panel: SamplePanel, path_or_file) -> None:
    """Write a panel in wide format; floats use repr for exact round-trip.

    Only the header goes through ``csv.writer``, since column ids may need
    quoting.  Data rows are joined directly: dates are canonical
    ``YYYY-MM-DD`` and values are finite floats, so no field needs quoting.
    """
    handle, owned = _open_text(path_or_file, "w")
    try:
        csv.writer(handle, lineterminator="\n").writerow(("date",) + panel.column_ids)
        for date, row in zip(panel.row_ids, panel.data):
            handle.write(date + "," + ",".join(map(repr, row.tolist())) + "\n")
    finally:
        if owned:
            handle.close()
