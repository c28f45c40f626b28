"""Tests for panel construction, CSV ingestion and bucket splitting."""

import collections
import csv
import datetime
import io
import warnings

import numpy as np
import pytest

import tailica.panel as panel_module
from tailica.errors import DataError, DroppedDataWarning
from tailica.ica import UnmixingMatrix, transform
from tailica.panel import (
    BucketSplit,
    SamplePanel,
    center,
    ingest_csv,
    read_wide_csv,
    split_buckets,
    write_wide_csv,
)
from tailica.whiten import apply_whitening, fit_whitening

DATES4 = ("2020-01-01", "2020-01-02", "2020-01-03", "2020-01-06")


def make_panel(data=None, columns=("AAA", "BBB"), dates=DATES4):
    if data is None:
        data = np.arange(len(dates) * len(columns), dtype=float).reshape(
            len(dates), len(columns)
        )
    return SamplePanel(data, columns, dates)


def test_panel_basic_properties():
    p = make_panel()
    assert (p.m, p.n) == (4, 2)
    assert p.column_ids == ("AAA", "BBB")
    assert p.row_ids == DATES4
    assert p.data.dtype == np.float64


def test_panel_data_is_immutable():
    p = make_panel()
    with pytest.raises(ValueError):
        p.data[0, 0] = 99.0


def test_panel_copies_input_array():
    src = np.ones((3, 2))
    p = SamplePanel(src, ("a", "b"), ("2020-01-01", "2020-01-02", "2020-01-03"))
    src[0, 0] = 42.0
    assert p.data[0, 0] == 1.0


def test_panel_with_data_keeps_dates():
    p = make_panel()
    q = SamplePanel(p.data * 2.0, ("x", "y"), p.row_ids)
    assert q.row_ids == p.row_ids
    assert q.column_ids == ("x", "y")
    np.testing.assert_array_equal(q.data, p.data * 2.0)


def test_panel_rejects_too_few_rows():
    with pytest.raises(DataError):
        SamplePanel(np.ones((1, 2)), ("a", "b"), ("2020-01-01",))


def test_panel_rejects_zero_columns():
    with pytest.raises(DataError):
        SamplePanel(np.ones((3, 0)), (), ("2020-01-01", "2020-01-02", "2020-01-03"))


def test_panel_rejects_non_finite():
    data = np.ones((2, 2))
    data[1, 1] = np.nan
    with pytest.raises(DataError):
        SamplePanel(data, ("a", "b"), ("2020-01-01", "2020-01-02"))


def test_panel_rejects_duplicate_columns():
    with pytest.raises(DataError):
        SamplePanel(np.ones((2, 2)), ("a", "a"), ("2020-01-01", "2020-01-02"))


def test_panel_rejects_bad_dates():
    with pytest.raises(DataError):
        SamplePanel(np.ones((2, 1)), ("a",), ("2020-01-01", "not-a-date"))
    # equal dates are as bad as decreasing ones
    with pytest.raises(DataError):
        SamplePanel(np.ones((2, 1)), ("a",), ("2020-01-02", "2020-01-02"))
    with pytest.raises(DataError):
        SamplePanel(np.ones((2, 1)), ("a",), ("2020-01-03", "2020-01-02"))


def test_panel_rejects_mismatched_id_counts():
    with pytest.raises(DataError):
        SamplePanel(np.ones((2, 2)), ("a",), ("2020-01-01", "2020-01-02"))
    with pytest.raises(DataError):
        SamplePanel(np.ones((2, 2)), ("a", "b"), ("2020-01-01",))


def test_split_buckets_boundary_goes_out_of_sample():
    p = make_panel()
    split = split_buckets(p, "2020-01-03")
    assert split.in_sample.row_ids == DATES4[:2]
    assert split.out_sample.row_ids == DATES4[2:]
    np.testing.assert_array_equal(split.in_sample.data, p.data[:2])
    np.testing.assert_array_equal(split.out_sample.data, p.data[2:])


def test_split_buckets_between_dates():
    dates = DATES4 + ("2020-01-07",)
    p = make_panel(np.ones((5, 2)) * np.arange(5)[:, None], dates=dates)
    split = split_buckets(p, "2020-01-04")
    assert split.in_sample.m == 3
    assert split.out_sample.row_ids == ("2020-01-06", "2020-01-07")


def test_split_buckets_single_row_bucket_is_error():
    # buckets are panels, so each side needs at least two rows
    p = make_panel()
    with pytest.raises(DataError):
        split_buckets(p, "2020-01-02")


def test_split_buckets_empty_bucket_is_error():
    p = make_panel()
    with pytest.raises(DataError):
        split_buckets(p, "2020-01-01")  # everything lands out-of-sample
    with pytest.raises(DataError):
        split_buckets(p, "2021-01-01")  # everything lands in-sample
    with pytest.raises(DataError):
        split_buckets(p, "nope")


def test_bucket_split_validates_columns_and_order():
    p = make_panel()
    a = SamplePanel(p.data[:2], ("AAA", "BBB"), DATES4[:2])
    b = SamplePanel(p.data[2:], ("AAA", "CCC"), DATES4[2:])
    with pytest.raises(DataError):
        BucketSplit(a, b)
    with pytest.raises(DataError):
        BucketSplit(
            SamplePanel(p.data[2:], p.column_ids, DATES4[2:]),
            SamplePanel(p.data[:2], p.column_ids, DATES4[:2]),
        )


def test_center_removes_column_means():
    p = make_panel(np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0], [7.0, 40.0]]))
    c = center(p)
    np.testing.assert_allclose(c.data.mean(axis=0), 0.0, atol=1e-15)
    np.testing.assert_array_equal(c.data[:, 0], [-3.0, -1.0, 1.0, 3.0])
    assert c.row_ids == p.row_ids


# accepted by date.fromisoformat on newer Pythons, but they sort out of date order
NON_CANONICAL = ["20200101", "2020-W01-1"]


@pytest.mark.parametrize("bad", NON_CANONICAL)
def test_non_canonical_dates_are_rejected(bad):
    with pytest.raises(DataError, match="invalid ISO date"):
        SamplePanel(np.ones((2, 1)), ("a",), ("2019-12-31", bad))
    with pytest.raises(DataError, match="invalid ISO date"):
        split_buckets(make_panel(), bad)
    text = f"date,symbol,return\n2020-01-02,A,1.0\n{bad},A,2.0\n2020-01-03,A,3.0\n"
    with pytest.raises(DataError, match="line 3"):
        ingest_csv(io.StringIO(text))
    with pytest.raises(DataError, match="line 3"):
        read_wide_csv(io.StringIO(f"date,A\n2019-12-30,1.0\n{bad},2.0\n"))


def test_derived_panels_keep_the_row_index():
    rng = np.random.default_rng(7)
    dates = tuple(
        (datetime.date(2020, 1, 1) + datetime.timedelta(days=i)).isoformat() for i in range(40)
    )
    p = make_panel(rng.standard_normal((40, 3)), columns=("a", "b", "c"), dates=dates)
    derived = [center(p), p.with_data(p.data * 2.0)]
    white = fit_whitening(center(p), 3)
    z = apply_whitening(white, center(p))
    derived += [z, transform(UnmixingMatrix(np.eye(3), k=1, seed=0, iterations=0, converged=True), z)]
    for q in derived:
        assert q.row_ids == p.row_ids
        assert q.row_ids is p.row_ids
    split = split_buckets(p, dates[25])
    assert split.in_sample.row_ids == dates[:25]
    assert split.out_sample.row_ids == dates[25:]
    # a split of a split is still split correctly
    inner = split_buckets(split.out_sample, dates[30])
    assert inner.in_sample.row_ids == dates[25:30]
    assert inner.out_sample.row_ids == dates[30:]


def test_derived_panels_still_check_data_and_shape():
    p = make_panel()
    with pytest.raises(DataError):
        p.with_data(np.full_like(p.data, np.nan))
    with pytest.raises(DataError):
        p.with_data(p.data[:3])
    with pytest.raises(DataError):
        SamplePanel(p.data, ("x", "x"), p.row_ids)
    # slices of the row index are plain tuples, so order is checked again
    with pytest.raises(DataError, match="strictly increasing"):
        SamplePanel(p.data, p.column_ids, p.row_ids[::-1])


def _reference_row_index(rows):
    """The row-index checks written out as one loop per row."""
    rows = tuple(str(r) for r in rows)
    for r in rows:
        panel_module._check_date(r, "row id")
    for a, b in zip(rows, rows[1:]):
        if a >= b:
            raise DataError(f"row dates not strictly increasing at {b!r}")
    return rows


ROW_ID_CASES = [
    "1800-02-29", "1900-02-29", "2000-02-29", "2004-02-29", "2100-02-29", "2020-02-30",
    "2020-00-10", "2020-13-01", "2020-01-00", "2020-01-32", "2020-04-31", "2020-12-31",
    "0000-01-01", "0001-01-01", "9999-12-31", "2020-0\u0663-01", "2020-01-1", "2020-01-011",
    "+020-01-01", "2020 01-01", "2020-01T01", "20200101", "2020-W01-1", "", "2020/01/01",
]  # fmt: skip


def _random_row_ids(rng):
    """A short tuple of row ids: mostly increasing dates, some broken."""
    m = int(rng.integers(2, 7))
    days = np.sort(rng.choice(3_652_059, size=m, replace=False))
    dates = [datetime.date.fromordinal(int(o) + 1).isoformat() for o in days]
    rows = list(dates)
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(m))
        kind = int(rng.integers(5))
        if kind == 0:
            rows[i] = ROW_ID_CASES[int(rng.integers(len(ROW_ID_CASES)))]
        elif kind == 1:  # one character replaced
            j = int(rng.integers(10))
            c = "0123456789-+ T/\u0663"[int(rng.integers(16))]
            rows[i] = rows[i][:j] + c + rows[i][j + 1 :]
        elif kind == 2:  # one character dropped or added
            rows[i] = rows[i][:-1] if rng.random() < 0.5 else rows[i] + "1"
        elif kind == 3:  # a repeat
            rows[i] = rows[int(rng.integers(m))]
        else:  # a descending pair
            j = int(rng.integers(m))
            rows[i], rows[j] = rows[j], rows[i]
    i = int(rng.integers(m))
    if rng.random() < 0.1 and rows[i] in dates:
        rows[i] = datetime.date.fromisoformat(rows[i])  # not a string
    return tuple(rows)


def _outcome(build, rows):
    try:
        return "ok", build(rows)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_row_index_check_matches_a_loop_reference():
    rng = np.random.default_rng(20)
    cases = [("2019-12-31", c) for c in ROW_ID_CASES] + [(c, "9999-12-31") for c in ROW_ID_CASES]
    cases += [_random_row_ids(rng) for _ in range(6000)]
    kinds = collections.Counter()
    for rows in cases:
        expected = _outcome(_reference_row_index, rows)
        got = _outcome(lambda r: SamplePanel(np.zeros((len(r), 1)), ("a",), r).row_ids, rows)
        assert got == expected, rows
        kinds["ok" if got[0] == "ok" else "order" if "increasing" in got[1] else "date"] += 1
    assert kinds.keys() == {"ok", "date", "order"} and min(kinds.values()) > 1000


def test_split_buckets_matches_a_linear_scan_at_every_boundary():
    dates = ("2020-01-01", "2020-01-02", "2020-01-05", "2020-01-06", "2020-01-09", "2020-01-12")
    p = make_panel(np.arange(12.0).reshape(6, 2), dates=dates)
    first = datetime.date(2019, 12, 31)
    for offset in range(14):
        boundary = (first + datetime.timedelta(days=offset)).isoformat()
        n_in = sum(1 for r in dates if r < boundary)
        if n_in < 2 or p.m - n_in < 2:  # an empty or one-row bucket
            with pytest.raises(DataError):
                split_buckets(p, boundary)
            continue
        split = split_buckets(p, boundary)
        assert split.in_sample.row_ids == dates[:n_in]
        assert split.out_sample.row_ids == dates[n_in:]
        np.testing.assert_array_equal(split.in_sample.data, p.data[:n_in])
        np.testing.assert_array_equal(split.out_sample.data, p.data[n_in:])


LONG_CSV = """date,symbol,return
2020-01-02,BBB,0.5
2020-01-01,AAA,0.125
2020-01-01,BBB,-0.25
2020-01-02,AAA,1.5
"""


def test_ingest_csv_sorts_dates_and_symbols():
    p = ingest_csv(io.StringIO(LONG_CSV))
    assert p.column_ids == ("AAA", "BBB")
    assert p.row_ids == ("2020-01-01", "2020-01-02")
    np.testing.assert_array_equal(p.data, [[0.125, -0.25], [1.5, 0.5]])


def test_ingest_csv_fills_missing_with_zero():
    text = "date,symbol,return\n2020-01-01,AAA,1.0\n2020-01-02,BBB,2.0\n"
    p = ingest_csv(io.StringIO(text), fill_missing=True)
    np.testing.assert_array_equal(p.data, [[1.0, 0.0], [0.0, 2.0]])


def test_ingest_csv_drops_incomplete_symbols():
    text = (
        "date,symbol,return\n"
        "2020-01-01,AAA,1.0\n2020-01-02,AAA,2.0\n"
        "2020-01-01,BBB,3.0\n"
    )
    with pytest.warns(DroppedDataWarning):
        p = ingest_csv(io.StringIO(text), fill_missing=False)
    assert p.column_ids == ("AAA",)


def test_ingest_csv_all_symbols_incomplete():
    text = "date,symbol,return\n2020-01-01,AAA,1.0\n2020-01-02,BBB,2.0\n"
    with pytest.raises(DataError), warnings.catch_warnings():
        warnings.simplefilter("ignore", DroppedDataWarning)
        ingest_csv(io.StringIO(text), fill_missing=False)


def test_ingest_csv_error_messages_carry_line_numbers():
    bad_date = "date,symbol,return\n2020-01-01,AAA,1.0\n01/02/2020,AAA,2.0\n"
    with pytest.raises(DataError, match="line 3"):
        ingest_csv(io.StringIO(bad_date))
    bad_value = "date,symbol,return\n2020-01-01,AAA,xyz\n"
    with pytest.raises(DataError, match="line 2"):
        ingest_csv(io.StringIO(bad_value))
    non_finite = "date,symbol,return\n2020-01-01,AAA,inf\n"
    with pytest.raises(DataError, match="line 2"):
        ingest_csv(io.StringIO(non_finite))
    empty_symbol = "date,symbol,return\n2020-01-01,,1.0\n"
    with pytest.raises(DataError, match="line 2"):
        ingest_csv(io.StringIO(empty_symbol))
    short_row = "date,symbol,return\n2020-01-01,AAA\n"
    with pytest.raises(DataError, match="line 2"):
        ingest_csv(io.StringIO(short_row))


def test_ingest_csv_duplicate_pair_is_error():
    text = (
        "date,symbol,return\n"
        "2020-01-01,AAA,1.0\n2020-01-01,AAA,2.0\n2020-01-02,AAA,1.0\n"
    )
    with pytest.raises(DataError, match="duplicate"):
        ingest_csv(io.StringIO(text))


def test_ingest_csv_rejects_wrong_header_and_empty_input():
    with pytest.raises(DataError):
        ingest_csv(io.StringIO("time,symbol,return\n"))
    with pytest.raises(DataError):
        ingest_csv(io.StringIO(""))
    with pytest.raises(DataError):
        ingest_csv(io.StringIO("date,symbol,return\n"))


def test_ingest_csv_skips_blank_lines():
    text = "date,symbol,return\n\n2020-01-01,AAA,1.0\n\n2020-01-02,AAA,2.0\n"
    p = ingest_csv(io.StringIO(text))
    assert p.m == 2


def test_ingest_csv_reports_the_first_bad_line():
    dup_first = (
        "date,symbol,return\n2020-01-01,AAA,1.0\n2020-01-01,AAA,2.0\n"
        "2020-01-02,AAA,1.0\n2020-01-02,BBB,xyz\n"
    )
    with pytest.raises(DataError, match="line 3: duplicate row for AAA on 2020-01-01"):
        ingest_csv(io.StringIO(dup_first))
    bad_first = (
        "date,symbol,return\n2020-01-01,AAA,1.0\n2020-01-02,AAA,xyz\n"
        "2020-01-02,BBB,1.0\n2020-01-01,AAA,2.0\n"
    )
    with pytest.raises(DataError, match="line 3: bad return"):
        ingest_csv(io.StringIO(bad_first))


def test_ingest_csv_strips_quoted_and_padded_fields():
    text = (
        'date,symbol,return\n2020-01-01," AAA",1.0\n"2020-01-01",BBB,2.0\n'
        ' 2020-01-02 ,"AAA",3.0\n2020-01-02,BBB ,4.0\n'
    )
    p = ingest_csv(io.StringIO(text))
    assert p.column_ids == ("AAA", "BBB")
    assert p.row_ids == ("2020-01-01", "2020-01-02")
    np.testing.assert_array_equal(p.data, [[1.0, 2.0], [3.0, 4.0]])
    padded_duplicate = "date,symbol,return\n2020-01-01,AAA,1.0\n 2020-01-01 , AAA,2.0\n"
    with pytest.raises(DataError, match="line 3: duplicate row for AAA on 2020-01-01"):
        ingest_csv(io.StringIO(padded_duplicate))


def test_ingest_csv_warning_truncates_long_symbol_lists():
    lines = ["date,symbol,return", "2020-01-01,KEEP,1.0", "2020-01-02,KEEP,1.0"]
    lines += [f"2020-01-01,S{j:02d},1.0" for j in range(12)]
    with pytest.warns(DroppedDataWarning) as caught:
        p = ingest_csv(io.StringIO("\n".join(lines) + "\n"), fill_missing=False)
    assert p.column_ids == ("KEEP",)
    message = str(caught[0].message)
    assert message.startswith("dropped 12 symbols with missing dates: S00, S01,")
    assert message.endswith("S09...")


def reference_panel(rows, fill_missing):
    """The long-to-wide assembly written out with plain loops."""
    values = {(d, s): v for d, s, v in rows}
    dates = sorted({d for d, _, _ in rows})
    symbols = sorted({s for _, s, _ in rows})
    if not fill_missing:
        symbols = [s for s in symbols if all((d, s) in values for d in dates)]
    data = np.zeros((len(dates), len(symbols)))
    for i, d in enumerate(dates):
        for j, s in enumerate(symbols):
            data[i, j] = values.get((d, s), 0.0)
    return data, tuple(symbols), tuple(dates)


@pytest.mark.parametrize("fill_missing", [True, False])
def test_ingest_csv_matches_a_loop_reference(fill_missing):
    rng = np.random.default_rng(11)
    start = datetime.date(2015, 3, 2)
    dates = [(start + datetime.timedelta(days=i)).isoformat() for i in range(300)]
    symbols = [f"S{j:02d}" for j in range(20)]
    values = rng.standard_t(4, size=(300, 20))
    values[rng.random((300, 20)) < 0.01] = 0.0
    values[0, 0] = -0.0
    # remove about 5% of the cells, from the first half of the symbols only
    keep = ~((rng.random((300, 20)) < 0.1) & (np.arange(20) < 10))
    cells = values.tolist()
    rows = [
        (dates[i], symbols[j], cells[i][j]) for i in range(300) for j in range(20) if keep[i, j]
    ]
    rows = [rows[t] for t in rng.permutation(len(rows))]
    text = "date,symbol,return\n" + "".join(f"{d},{s},{v!r}\n" for d, s, v in rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DroppedDataWarning)
        p = ingest_csv(io.StringIO(text), fill_missing=fill_missing)
    data, columns, row_ids = reference_panel(rows, fill_missing)
    assert p.column_ids == columns
    assert p.row_ids == row_ids
    assert p.data.shape == data.shape
    assert p.data.tobytes() == data.tobytes()


def test_wide_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(31)
    p = make_panel(rng.standard_t(df=3, size=(4, 2)) * 1e-7)
    path = tmp_path / "panel.csv"
    write_wide_csv(p, path)
    q = read_wide_csv(path)
    assert q.column_ids == p.column_ids
    assert q.row_ids == p.row_ids
    assert np.array_equal(q.data, p.data)  # repr round-trip, bit for bit


def test_wide_csv_works_with_file_objects():
    p = make_panel()
    buf = io.StringIO()
    write_wide_csv(p, buf)
    q = read_wide_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(q.data, p.data)


def test_wide_csv_matches_a_csv_writer_reference():
    rng = np.random.default_rng(7)
    data = rng.standard_t(df=3, size=(4, 4)) * 10.0 ** rng.integers(-300, 300, size=(4, 4))
    data[0, 0], data[1, 1], data[2, 2] = -0.0, 5e-324, -1.0
    columns = ("a,b", 'say "hi"', " lead", "plain")
    p = make_panel(data, columns=columns)
    buf = io.StringIO()
    write_wide_csv(p, buf)
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(("date",) + columns)
    for date, row in zip(DATES4, data):
        writer.writerow([date] + [repr(v) for v in row.tolist()])
    assert buf.getvalue() == ref.getvalue()
    assert read_wide_csv(io.StringIO(buf.getvalue())).column_ids == ("a,b", 'say "hi"', "lead", "plain")


def test_read_wide_csv_errors():
    with pytest.raises(DataError):
        read_wide_csv(io.StringIO(""))
    with pytest.raises(DataError):
        read_wide_csv(io.StringIO("symbol,AAA\n"))
    with pytest.raises(DataError, match="line 3"):
        read_wide_csv(
            io.StringIO("date,AAA\n2020-01-01,1.0\n2020-01-02,1.0,9.9\n")
        )
    with pytest.raises(DataError, match="line 2"):
        read_wide_csv(io.StringIO("date,AAA\n2020-01-01,abc\n"))
    # out of order: reported on its line, ahead of a later bad field
    with pytest.raises(DataError, match="line 3: row dates not strictly increasing"):
        read_wide_csv(io.StringIO("date,AAA\n2020-01-02,1.0\n2020-01-01,2.0\n2020-01-03,x\n"))
    with pytest.raises(DataError, match="line 3: row dates not strictly increasing"):
        read_wide_csv(io.StringIO("date,AAA\n2020-01-02,1.0\n2020-01-02,2.0\n"))


def test_read_wide_csv_checks_each_date_once(monkeypatch):
    start = datetime.date(2020, 1, 1)
    dates = tuple((start + datetime.timedelta(days=i)).isoformat() for i in range(200))
    p = make_panel(np.zeros((200, 2)), dates=dates)
    buf = io.StringIO()
    write_wide_csv(p, buf)
    calls = []
    check = panel_module._check_date

    def counting_check(text, context):
        calls.append(text)
        return check(text, context)

    monkeypatch.setattr(panel_module, "_check_date", counting_check)
    q = read_wide_csv(io.StringIO(buf.getvalue()))
    assert q.row_ids == p.row_ids
    assert len(calls) == 200
