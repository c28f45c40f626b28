"""Return panels: construction, CSV ingestion and date-bucket splitting.

A panel is an (m, n) float64 matrix of m observation rows (dates, strictly
increasing ``YYYY-MM-DD`` strings) by n named columns.  Panels are immutable
after construction; every transformation returns a new panel.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import datetime
import io
import itertools
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DroppedDataWarning
from .moments import _scaled_powers

__all__ = [
    "SamplePanel",
    "BucketSplit",
    "ingest_csv",
    "write_wide_csv",
    "split_buckets",
    "center",
]

_BLOCK_ROWS = 1 << 13  # rows per cache-sized block of a row-wise pass over a tall panel


def _check_date(text: str, context: str) -> str:
    """Return ``text`` if it is a calendar date written as ``YYYY-MM-DD``.

    Rows are ordered by comparing these strings, which matches date order
    only for this one spelling; ``fromisoformat`` alone also accepts
    ``20200101`` and ``2020-W01-1`` on newer Pythons.
    """
    if not _is_date(text):
        raise DataError(f"{context}: invalid ISO date {text!r}")
    return text


def _is_date(text: str) -> bool:
    try:
        datetime.date.fromisoformat(text)
    except ValueError:
        return False
    return len(text) == 10 and text[4] == text[7] == "-"


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
    text = ("\n".join(rows) + "\n").encode("ascii", "replace")  # a byte per character
    raw = np.frombuffer(text, np.uint8)
    if not (raw.size == 11 * m and np.all(raw[10::11] == ord("\n"))):
        for row in rows:  # a row is not 10 characters or holds a newline: one raises
            _check_date(row, "row id")
    digits = raw.reshape(m, 11)[:, :10].T.copy()  # a row per character position
    del text, raw
    ok = (digits[4] == ord("-")) & (digits[7] == ord("-"))
    digits -= ord("0")  # a digit becomes its value, any other byte wraps above 9
    fields = []  # int16, built in place; only rows with a non-digit can wrap
    for a, b in ((0, 4), (5, 7), (8, 10)):
        value = np.zeros(m, dtype=np.int16)
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
    if not ok.all():  # the first bad row raises, also one whose newline shifts the records
        for row in rows:
            _check_date(row, "row id")
    key = year.astype(np.int32)
    for field in (month, day):
        key *= 100
        key += field
    breaks = np.flatnonzero(key[1:] <= key[:-1])
    if breaks.size:
        raise DataError(f"row dates not strictly increasing at {rows[int(breaks[0]) + 1]!r}")
    return _RowIndex(rows)


def _frozen(data) -> np.ndarray:
    """``data`` as a read-only float64 C-ordered ndarray that nothing can write.

    Kept as it is if it is one already and its ``.base`` chain holds no
    writeable array and ends in an ndarray, not a foreign buffer; anything
    else is copied, so a writeable array, or a read-only view of one, is
    never aliased and a caller's array is never made read-only.
    """
    if type(data) is np.ndarray and data.dtype == np.float64 and data.flags.c_contiguous:
        base = data
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None:
            return data
    data = np.array(data, dtype=np.float64, order="C")
    data.flags.writeable = False
    return data


@dataclass(frozen=True)
class SamplePanel:
    """Immutable (m, n) observation matrix with dated rows and named columns.

    ``row_ids`` must be ``YYYY-MM-DD`` dates in strictly increasing order.
    The dates are checked once: panels derived from this one (``with_data``,
    ``split_buckets``, whitening and unmixing) reuse the validated index,
    while their data, shape and columns are checked like any other panel's.
    Any other row index is checked in one array pass, not date by date: rows
    joined by newlines (through ``str`` unless all are plain ``str``) are read
    as one 10-character date per line when every 11th byte is a newline.
    Column ids may not hold a carriage return or a line feed, which no CSV
    file the package writes can carry.

    ``data`` is kept as it is if it is a read-only float64 C-ordered ndarray
    whose ``.base`` chain holds no writeable array and ends in an ndarray,
    not a foreign buffer; anything else is copied, so a writeable array, or
    a read-only view of one, is never aliased.  A ``split_buckets`` bucket
    is a view that keeps its parent's whole buffer alive.
    """

    data: np.ndarray
    column_ids: tuple
    row_ids: tuple

    def __post_init__(self):
        data = _frozen(self.data)
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
            rows = tuple(rows)
            if set(map(type, rows)) != {str}:
                rows = tuple(map(str, rows))
        if len(columns) != n:
            raise DataError(f"{len(columns)} column ids for {n} columns")
        if len(rows) != m:
            raise DataError(f"{len(rows)} row ids for {m} rows")
        if len(set(columns)) != n:
            raise DataError("duplicate column ids")
        if any("\r" in c or "\n" in c for c in columns):
            raise DataError("a column id holds a line break")
        if not trusted:
            rows = _check_rows(rows)
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
    """Subtract each column's mean, the one centring rule: ``col.mean()`` of the
    column rescaled by an exact power of two (``_scaled_powers`` at p = 1), so no
    sum overflows.  ``fit_whitening`` keeps its ``x.mean(axis=0)``, whose bits
    every saved whitening and fit carry."""
    scaled, exp2 = _scaled_powers(panel.data, 1)
    data = panel.data - np.ldexp(scaled.mean(axis=0), exp2)
    data.flags.writeable = False
    return panel.with_data(data)


@contextlib.contextmanager
def _open_text(path_or_file, mode="r"):
    """A file object as given, or a path opened as UTF-8 and closed on exit;
    read text may start with a byte-order mark, and text that does not
    decode is a ``DataError``."""
    owned = not (hasattr(path_or_file, "read") or hasattr(path_or_file, "write"))
    encoding = "utf-8-sig" if mode == "r" else "utf-8"
    handle = open(path_or_file, mode, newline="", encoding=encoding) if owned else path_or_file
    try:
        yield handle
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode input: {exc}") from None
    finally:
        if owned:
            handle.close()


def _csv_text(rows) -> str:
    """Rows as CSV lines, a field quoted only where csv must quote it; a
    float is written as its repr."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _sorted_ranks(names: list):
    """``names`` sorted, and the position in that order of each code."""
    order = sorted(range(len(names)), key=names.__getitem__)
    ranks = np.empty(len(names), dtype=np.intp)
    ranks[order] = np.arange(len(names))
    return [names[i] for i in order], ranks


_CHUNK = 1 << 16  # characters per read of a long CSV, then to the end of that line
_BATCH = 1 << 11  # records per batch when csv.reader parses a long CSV


def _read_header(handle) -> list:
    """A CSV's first record, as ``csv.reader`` splits it, after any byte-order mark."""
    first = handle.readline().removeprefix("\ufeff")
    if not first:
        raise DataError("empty input file")
    try:
        return next(csv.reader(itertools.chain([first], handle)))
    except csv.Error as exc:
        raise DataError(f"line 1: {exc}") from None


def _read_records(text: str, magic: str, what: str) -> list:
    """``text``'s csv records after any byte-order mark, blank ones skipped; the first starts ``magic``."""
    try:
        records = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
        records = [r for r in records if len(r) > 1 or r and r[0].strip()]
    except csv.Error as exc:
        raise DataError(f"bad {what} file: {exc}") from None
    if not records or records[0][0].strip() != magic:
        raise DataError(f"not a {magic} file")
    return records


def _floats(fields: list, names, where: str) -> list:
    """``fields`` as floats, one per name; an error starts ``where`` and names
    a wrong field count before any parse, else the column ``float`` refuses."""
    if len(fields) != len(names):
        raise DataError(f"{where}: expected {len(names)} numeric fields, got {len(fields)}")
    values = []
    try:
        values.extend(map(float, fields))
    except ValueError:  # extend keeps the values before the one float rejects
        j = len(values)
        raise DataError(f"{where}: bad numeric field {fields[j]!r} in column {names[j]!r}") from None
    return values


class _LongRows:
    """A long CSV's data rows as columns: date and symbol codes, and values.

    ``codes`` maps each raw spelling, and its stripped name, to the code of
    the name in ``names``.  ``gaps`` counts the rows before each blank
    record, which gives a row's line when an error needs it.
    """

    def __init__(self):
        self.codes, self.names = ({}, {}), ([], [])
        self.row_codes, self.values, self.gaps = (array("i"), array("i")), array("d"), array("q")

    def add(self, dates, symbols, values) -> None:
        """Append rows given as columns of raw fields, checking only spellings
        not seen before.  At the first bad row, add the codes of the rows
        before it, for ``fail`` to check them for repeats, and raise."""
        start, bad, unparsed = len(self.values), len(dates), None
        columns = (dates, symbols)
        for column, codes, names, valid in zip(columns, self.codes, self.names, (_is_date, bool)):
            for raw in sorted(set(column).difference(codes)):
                name = raw.strip()
                if not valid(name):
                    bad = min(bad, column.index(raw))
                    continue
                code = codes[raw] = codes.setdefault(name, len(names))
                if code == len(names):
                    names.append(name)
        try:
            self.values.extend(map(float, values[:bad]))
        except ValueError:  # extend keeps the values before the one float rejects
            bad = unparsed = len(self.values) - start
        finite = np.isfinite(np.frombuffer(self.values, dtype=np.float64)[start:])
        if not finite.all():
            bad = int(finite.argmin())
        for column, codes, row_codes in zip(columns, self.codes, self.row_codes):
            row_codes.extend(map(codes.get, column[:bad]))
        if bad < len(dates):  # each fail raises
            if dates[bad] not in self.codes[0]:
                self.fail(f"invalid ISO date {dates[bad].strip()!r}")
            if symbols[bad] not in self.codes[1]:
                self.fail("empty symbol")
            self.fail(f"{'bad' if bad == unparsed else 'non-finite'} return {values[bad]!r}")

    def add_lines(self, text: str) -> bool:
        """Add whole lines that hold no quote, CR or NUL, or return False, adding
        nothing, if csv.reader must read one: a line of other than three fields,
        blank ones included, or one as long as csv's field limit."""
        text += "" if text.endswith("\n") else "\n"
        raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        starts = np.r_[0, np.flatnonzero(raw[:-1] == ord("\n")) + 1]
        commas = np.add.reduceat(raw == ord(","), starts, dtype=np.intp)
        # a line's bytes with its newline, so one as long as the limit is refused
        if np.any(commas != 2) or np.diff(starts, append=raw.size).max() > csv.field_size_limit():
            return False
        parts = text.replace("\n", ",").split(",")
        del parts[-1]  # after the last newline
        self.add(parts[0::3], parts[1::3], parts[2::3])
        return True

    def add_records(self, lines) -> None:
        """Add the records csv.reader parses from ``lines``.

        Fields go straight into columns: records held as lists until a batch
        is full would keep the cyclic garbage collector busy.
        """
        dates, symbols, values, error = [], [], [], None
        try:
            for row in csv.reader(lines):
                if len(row) == 3:
                    date, symbol, value = row
                    dates.append(date)
                    symbols.append(symbol)
                    values.append(value)
                    if len(values) == _BATCH:
                        self.add(dates, symbols, values)
                        dates, symbols, values = [], [], []
                elif row and (len(row) > 1 or row[0].strip()):
                    error = f"expected 3 fields, got {len(row)}"
                    break
                else:
                    self.gaps.append(len(self.values) + len(values))
        except csv.Error as exc:
            error = str(exc)
        self.add(dates, symbols, values)
        if error:
            self.fail(error)

    def fail(self, message=None) -> None:
        """Raise for the first bad line: a row that repeats an earlier (date,
        symbol), else ``message`` at the line after the last row."""
        d, s = (np.frombuffer(codes, dtype=np.intc) for codes in self.row_codes)
        repeats = np.ones(d.size, dtype=bool)
        repeats[np.unique(d * np.int64(len(self.names[1])) + s, return_index=True)[1]] = False
        row = int(repeats.argmax()) if repeats.any() else d.size
        line = row + 2 + bisect.bisect_right(self.gaps, row)
        if row < d.size:
            symbol, date = self.names[1][s[row]], self.names[0][d[row]]
            raise DataError(f"line {line}: duplicate row for {symbol} on {date}")
        if message:
            raise DataError(f"line {line}: {message}")


def ingest_csv(path_or_file, fill_missing: bool = True) -> SamplePanel:
    """Build a panel from a CSV whose header gives its layout.

    A header ``date,symbol,return`` (each field stripped, in any case) is
    the long layout, one observation per row; any other header is read as
    the wide layout ``date,<sym1>,<sym2>,...``, one row per date, and
    ``fill_missing`` is unused.  A leading byte-order mark is dropped, from
    a path or a text handle.

    Long dates must be ``YYYY-MM-DD``; dates and symbols are stripped of
    surrounding whitespace.  The cross product of observed dates and
    symbols is assembled with dates sorted ascending and symbols sorted
    alphabetically.  Pairs not present in the file are filled with 0.0
    when ``fill_missing`` is true; otherwise symbols with any missing date
    are dropped (with a warning).  Duplicate (date, symbol) pairs and
    unparseable rows are errors; the first bad line in file order is
    reported, counting csv records as lines.

    The file is read in chunks of whole lines, split at commas and checked
    a column at a time, each distinct spelling once.  From the first chunk
    with a double quote, a carriage return, a NUL, a blank or whitespace-only
    line, a line of other than three fields or one as long as csv's field
    limit, to the end of the file, ``csv.reader`` parses the records (where
    a lone carriage return ends a line, as with ``newline=""``).  Memory
    beyond one chunk is 16 bytes a row, two int32 codes and the value, and
    8 more while the cells are placed: each row's int32 flat cell index and
    one temporary (int64 past 2**31 - 1 cells).  The panel is allocated
    after the codes are freed.  Traced peak: 26 bytes a row on a
    500,000-row file of 100 symbols.
    """
    with _open_text(path_or_file) as handle:
        header = _read_header(handle)
        if [cell.strip().lower() for cell in header] != ["date", "symbol", "return"]:
            return _read_wide_rows(handle, header)
        rows = _LongRows()
        while text := handle.read(_CHUNK):
            text += handle.readline()
            # csv.reader reads quotes and CRs its own way, and NULs before Python 3.11
            if '"' in text or "\r" in text or "\0" in text or not rows.add_lines(text):
                rows.add_records(itertools.chain(io.StringIO(text, newline=""), handle))
                break
    if not rows.values:
        raise DataError("no data rows in input")
    date_list, date_ranks = _sorted_ranks(rows.names[0])
    symbol_list, symbol_ranks = _sorted_ranks(rows.names[1])
    cell = np.intc if len(date_list) * len(symbol_list) <= np.iinfo(np.intc).max else np.intp
    cells = date_ranks.astype(cell)[np.frombuffer(rows.row_codes[0], dtype=np.intc)]
    cells *= len(symbol_list)
    cells += symbol_ranks.astype(cell)[np.frombuffer(rows.row_codes[1], dtype=np.intc)]
    present = np.zeros((len(date_list), len(symbol_list)), dtype=bool)
    present.reshape(-1)[cells] = True
    if np.count_nonzero(present) < cells.size:
        rows.fail()  # a (date, symbol) repeats
    values = rows.values
    del rows  # the codes
    data = np.zeros(present.shape)
    data.reshape(-1)[cells] = np.frombuffer(values, dtype=np.float64)
    del cells, values
    if not fill_missing:
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
        data = data.compress(complete, axis=1)  # C-ordered, unlike data[:, complete]
    data.flags.writeable = False
    # distinct checked dates, sorted: a valid row index as they stand
    return SamplePanel(data, tuple(symbol_list), _RowIndex(date_list))


def _read_wide_rows(handle, header: list) -> SamplePanel:
    """The wide panel of ``header`` and the records after it in ``handle``."""
    if len(header) < 2 or header[0].strip().lower() != "date":
        raise DataError("wide CSV must start with a 'date' column")
    columns = tuple(h.strip() for h in header[1:])
    rows, dates = [], []
    lineno = 1  # records read
    try:
        for row in csv.reader(handle):
            lineno += 1
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            date = _check_date(row[0].strip(), f"line {lineno}")
            if dates and date <= dates[-1]:
                raise DataError(f"line {lineno}: row dates not strictly increasing at {date!r}")
            dates.append(date)
            rows.append(_floats(row[1:], columns, f"line {lineno}"))
    except csv.Error as exc:
        raise DataError(f"line {lineno + 1}: {exc}") from None
    if not rows:
        raise DataError("no data rows in input")
    data = np.array(rows)
    data.flags.writeable = False
    return SamplePanel(data, columns, _RowIndex(dates))


def write_wide_csv(panel: SamplePanel, path_or_file) -> None:
    """Write a panel in wide format; floats use repr for exact round-trip.

    Only the header goes through ``csv.writer``, since column ids may need
    quoting.  Data rows are joined directly: dates are canonical
    ``YYYY-MM-DD`` and values are finite floats, so no field needs quoting.
    """
    with _open_text(path_or_file, "w") as handle:
        handle.write(_csv_text([("date",) + panel.column_ids]))
        for date, row in zip(panel.row_ids, panel.data):
            handle.write(date + "," + ",".join(map(repr, row.tolist())) + "\n")
