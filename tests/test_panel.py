"""Tests for panel construction, CSV ingestion and bucket splitting."""

import collections
import csv
import datetime
import io
import math
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest

import tailica.panel as panel_module
from tailica.errors import DataError, DroppedDataWarning
from tailica.evaluate import SyntheticMarketSpec, generate_market
from tailica.ica import ContrastSpec, UnmixingMatrix, fit_ica, transform
from tailica.panel import (
    BucketSplit,
    SamplePanel,
    center,
    ingest_csv,
    split_buckets,
    write_wide_csv,
)
from tailica.tailcov import TailCovarianceMatrix
from tailica.whiten import WhiteningTransform, apply_whitening, fit_whitening

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


def test_panel_never_aliases_a_callers_writeable_array():
    src = np.arange(8.0).reshape(4, 2)
    view = src[:]
    view.flags.writeable = False
    foreign = np.frombuffer(src.tobytes()).reshape(4, 2)  # read-only, over a bytes object
    frozen = src.copy()
    frozen.flags.writeable = False
    reshaped = np.arange(8.0).reshape(4, 2)  # a view of the writeable arange
    reshaped.flags.writeable = False
    for data in (src, view, reshaped, foreign, frozen.astype(np.float32), np.asfortranarray(frozen)):
        p = make_panel(data)
        assert not np.shares_memory(p.data, data)
        np.testing.assert_array_equal(p.data, src)
        assert p.data.flags.c_contiguous and not p.data.flags.writeable
    # a read-only array that no writeable array reaches is handed over as it is
    assert make_panel(frozen).data is frozen


def test_buckets_are_views_of_the_parent():
    p = make_panel()
    split = split_buckets(p, DATES4[2])
    for bucket in (split.in_sample, split.out_sample):
        assert np.shares_memory(bucket.data, p.data)
    np.testing.assert_array_equal(np.vstack([split.in_sample.data, split.out_sample.data]), p.data)


def _produced_panels():
    """(name, make) for each function that makes a panel of its own data."""
    market = generate_market(SyntheticMarketSpec(n_assets=3, m_samples=60))
    white = fit_whitening(market, 3)
    identity = UnmixingMatrix(np.eye(3), k=1, seed=0, iterations=0, converged=True)
    text = io.StringIO()
    write_wide_csv(market, text)
    long_csv = "date,symbol,return\n2020-01-01,A,1\n2020-01-01,B,2\n2020-01-02,A,3\n2020-01-03,A,4\n"
    return [
        ("generate_market", lambda: generate_market(SyntheticMarketSpec(n_assets=3, m_samples=60))),
        ("split_buckets", lambda: split_buckets(market, market.row_ids[30]).out_sample),
        ("center", lambda: center(market)),
        ("apply_whitening", lambda: apply_whitening(white, market)),
        ("transform", lambda: transform(identity, market)),
        ("ingest_csv", lambda: ingest_csv(io.StringIO(long_csv))),
        ("ingest_csv fill_missing=False", lambda: ingest_csv(io.StringIO(long_csv), fill_missing=False)),
        ("ingest_csv wide", lambda: ingest_csv(io.StringIO(text.getvalue()))),
    ]


def test_produced_panels_keep_the_array_they_are_given(monkeypatch):
    given = []
    post_init = SamplePanel.__post_init__

    def spy(self):
        given.append(self.data)
        post_init(self)

    cases = _produced_panels()
    monkeypatch.setattr(SamplePanel, "__post_init__", spy)
    for name, make in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DroppedDataWarning)
            panel = make()
        assert panel.data is given[-1], name
        assert not panel.data.flags.writeable, name
        with pytest.raises(ValueError):
            panel.data[0, 0] = 1.0


def test_pipeline_peak_memory_holds_no_second_copy():
    # split -> whiten -> unmix on a tall panel.  Held at the end: both
    # whitened buckets and the components, 1.75x the input; the fit adds
    # its projections, and whitening its centered temporary.  Measured at
    # 2.11x, against 3.85x when every panel copied its data on
    # construction (the buckets, both whitened panels and the components
    # each a second time).
    rng = np.random.default_rng(5)
    m = 150_000
    dates = tuple(
        (datetime.date(1900, 1, 1) + datetime.timedelta(days=i)).isoformat() for i in range(m)
    )
    p = SamplePanel(rng.laplace(size=(m, 4)), ("a", "b", "c", "d"), dates)
    tracemalloc.start()
    try:
        split = split_buckets(p, dates[m * 3 // 4])
        white = fit_whitening(split.in_sample, 4)
        z_in = apply_whitening(white, split.in_sample)
        z_out = apply_whitening(white, split.out_sample)
        components = transform(fit_ica(z_in, ContrastSpec(2), seed=0), z_in)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (z_out.m, components.m) == (m // 4, m * 3 // 4)
    assert peak < 2.5 * p.data.nbytes, peak / p.data.nbytes


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
    with pytest.raises(DataError, match="must be 2-d"):
        SamplePanel(np.ones(3), ("a",), ("2020-01-01", "2020-01-02", "2020-01-03"))


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


def test_center_subtracts_each_columns_own_mean():
    market = generate_market(SyntheticMarketSpec(n_assets=6, m_samples=700, seed=2))
    c = center(market)
    for j in range(market.n):
        col = market.data[:, j]
        assert np.array_equal(c.data[:, j], col - col.mean())


def test_center_keeps_a_column_near_the_float64_limit_finite():
    # b's unscaled sum overflows float64
    z = np.random.default_rng(76).standard_t(5, (500, 2)) * [1.0, 1e307]
    dates = tuple(str(np.datetime64("2000-01-01") + i) for i in range(500))
    c = center(SamplePanel(z, ("a", "b"), dates))
    assert np.all(np.isfinite(c.data))
    col = z[:, 1]
    np.testing.assert_array_equal(c.data[:, 1], col - (col * 2.0**-1020).mean() * 2.0**1020)
    np.testing.assert_array_equal(c.data[:, 0], z[:, 0] - z[:, 0].mean())


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
        ingest_csv(io.StringIO(f"date,A\n2019-12-30,1.0\n{bad},2.0\n"))


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
    "2020-01\n01", "2020-01-01\n", "\n2020-01-0",
]  # fmt: skip


class _DateText(str):
    """A row id that is a string without being a plain ``str``."""


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
    cases += [
        ("2020-01-0", "12020-01-02"),  # joined, two increasing dates
        ("2020-01-01\n2020-01-0", ""),  # a newline at every 11th character
        np.array(["2020-01-01", "2020-01-02"]),
        (_DateText("2020-01-01"), _DateText("2020-01-02")),
    ]
    cases += [_random_row_ids(rng) for _ in range(6000)]
    kinds = collections.Counter()
    for rows in cases:
        expected = _outcome(_reference_row_index, rows)
        got = _outcome(lambda r: SamplePanel(np.zeros((len(r), 1)), ("a",), r).row_ids, rows)
        assert got == expected, rows
        assert got[0] != "ok" or all(type(r) is str for r in got[1]), rows
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


def test_ingest_csv_peak_memory_per_row(tmp_path):
    # Two int32 codes and the value a row, then each row's int32 cell index
    # and one temporary: measured at 28 bytes a row on this file (26 on
    # 500,000 rows), against 36 with int64 cell indices.
    n_sym, n_days = 50, 2000
    rng = np.random.default_rng(21)
    values = rng.standard_t(5, (n_days, n_sym)).tolist()
    start = datetime.date(2010, 1, 4)
    path = tmp_path / "long.csv"
    with open(path, "w") as handle:
        handle.write("date,symbol,return\n")
        for i, row in enumerate(values):
            date = (start + datetime.timedelta(days=i)).isoformat()
            handle.write("".join(f"{date},S{j:02d},{v!r}\n" for j, v in enumerate(row)))
    tracemalloc.start()
    try:
        p = ingest_csv(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.data.tolist() == values
    assert peak <= 32 * n_sym * n_days, peak / (n_sym * n_days)


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


def _reference_open_text(path_or_file, mode="r"):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode, newline=""), True


def _reference_intern(codes: dict, names: list, raw: str) -> int:
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


def _reference_duplicate_error(date_codes, symbol_codes, lines, dates, symbols):
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


def _reference_ingest(path_or_file, fill_missing: bool = True) -> SamplePanel:
    """``ingest_csv`` as one loop over csv records, kept as its reference."""
    date_codes: dict = {}
    symbol_codes: dict = {}
    dates: list = []  # code -> date
    symbols: list = []  # code -> symbol
    row_dates = array("q")
    row_symbols = array("q")
    values = array("d")
    lines = array("q")  # read only to report duplicates
    handle, owned = _reference_open_text(path_or_file)
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
                    panel_module._check_date(raw_date.strip(), f"line {lineno}")
                    d = _reference_intern(date_codes, dates, raw_date)
                s = symbol_codes.get(raw_symbol)
                if s is None:
                    if not raw_symbol.strip():
                        raise DataError(f"line {lineno}: empty symbol")
                    s = _reference_intern(symbol_codes, symbols, raw_symbol)
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
            error = _reference_duplicate_error(row_dates, row_symbols, lines, dates, symbols)
            if error is None:
                raise
            raise error from None
    finally:
        if owned:
            handle.close()
    if not values:
        raise DataError("no data rows in input")
    error = _reference_duplicate_error(row_dates, row_symbols, lines, dates, symbols)
    if error is not None:
        raise error
    date_list, date_ranks = panel_module._sorted_ranks(dates)
    symbol_list, symbol_ranks = panel_module._sorted_ranks(symbols)
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
    return SamplePanel(data, tuple(symbol_list), panel_module._RowIndex(date_list))



def _ingest_outcome(read, source, fill_missing):
    """A reader's panel and warnings, or its ``DataError``, in comparable form."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            p = read(source, fill_missing)
        except DataError as exc:
            return DataError, str(exc)
    return p.data.tobytes(), p.data.shape, p.row_ids, p.column_ids, [str(w.message) for w in caught]


def _expected(text, fill_missing):
    """What ``ingest_csv`` must give: the loop's outcome, except that csv's own
    error (which the loop let escape) is a ``DataError`` at its record, unless
    an earlier record repeats a (date, symbol)."""
    try:
        return _ingest_outcome(_reference_ingest, io.StringIO(text), fill_missing)
    except csv.Error as exc:
        lines = io.StringIO(text).readlines()
        reader = csv.reader(lines)
        line, consumed = 1, 0
        try:
            for _ in reader:
                line, consumed = line + 1, reader.line_num
        except csv.Error:
            pass
        before = _ingest_outcome(_reference_ingest, io.StringIO("".join(lines[:consumed])), fill_missing)
        if before[0] is DataError and "duplicate" in before[1]:
            return before
        return DataError, f"line {line}: {exc}"


FUZZ_DATES = ["2020-01-01", "2020-01-02", "2020-01-06", "2020-01-03"]
FUZZ_SYMBOLS = ["AAA", "BBB", "H", "D,E", "F\nG", 'say "hi"']  # the last three need quotes
FUZZ_VALUES = ["1.5", "-0.25", " 2.0 ", "0", "-0.0", "1e-300", "1_0", "1E5"]
FUZZ_BAD_FIELDS = [
    (0, "2020-02-30"), (0, "20200107"), (0, ""), (0, ' "2020-01-01"'), (1, ""), (1, "  "),
    (1, "X" * 80), (2, "inf"), (2, "nan"), (2, "-inf"), (2, "xyz"), (2, ""), (2, "1.0 2"),
]  # fmt: skip
FUZZ_ODD_LINES = [
    "", "   ", "\t", "2020-01-07", "2020-01-07,AAA", "2020-01-07,AAA,1.0,2.0", ",",
    "2020-01-07,N\0UL,1.0",
]  # fmt: skip


def _fuzz_spelling(rng, field, quoted):
    if quoted and (rng.random() < 0.3 or any(c in field for c in ',"\n')):
        return '"' + field.replace('"', '""') + '"'
    return str(rng.choice([field, f" {field}", f"{field}  "]))


def _fuzz_case(rng):
    """A long CSV: rows of distinct (date, symbol), then a few mutations.

    Most cases quote no field, so they are read without csv.reader.
    """
    quoted = rng.random() < 0.3
    pairs = [(d, s) for d in FUZZ_DATES for s in FUZZ_SYMBOLS[: 3 + 3 * quoted]]
    rows = [
        [_fuzz_spelling(rng, field, quoted) for field in (*pairs[t], rng.choice(FUZZ_VALUES))]
        for t in rng.permutation(len(pairs))[: rng.integers(1, 14)]
    ]
    lines = [",".join(row) for row in rows]
    for _ in range(rng.choice(4, p=[0.4, 0.3, 0.2, 0.1])):
        at = int(rng.integers(0, len(lines) + 1))
        kind = rng.integers(3)
        if kind == 0:  # a bad field
            column, field = FUZZ_BAD_FIELDS[rng.integers(len(FUZZ_BAD_FIELDS))]
            row = list(rows[rng.integers(len(rows))])
            row[column] = field
            lines.insert(at, ",".join(row))
        elif kind == 1:  # a blank or odd line
            lines.insert(at, FUZZ_ODD_LINES[rng.integers(len(FUZZ_ODD_LINES))])
        else:  # a repeat of a row
            lines.insert(at, ",".join(rows[rng.integers(len(rows))]))
    header = rng.choice(["date,symbol,return", '"date","symbol","return"', "Date, Symbol ,RETURN"])
    newline = "\r\n" if rng.random() < 0.2 else "\n"
    text = newline.join([header, *lines]) + newline
    return text[: -len(newline)] if rng.random() < 0.2 else text


def test_ingest_csv_matches_the_loop_reference(monkeypatch, tmp_path):
    rng = np.random.default_rng(12)
    shipped = (panel_module._CHUNK, panel_module._BATCH)
    limit = csv.field_size_limit(64)  # FUZZ_BAD_FIELDS has a longer symbol
    try:
        for case in range(400):
            text = _fuzz_case(rng)
            fill_missing = bool(rng.random() < 0.7)
            expected = _expected(text, fill_missing)
            for chunk, batch in ((1, 1), (7, 2), (40, 3), shipped):
                monkeypatch.setattr(panel_module, "_CHUNK", chunk)
                monkeypatch.setattr(panel_module, "_BATCH", batch)
                got = _ingest_outcome(ingest_csv, io.StringIO(text), fill_missing)
                assert got == expected, (case, chunk, text)
            path = tmp_path / f"case{case % 4}.csv"
            path.write_bytes(text.encode())
            assert _ingest_outcome(ingest_csv, path, fill_missing) == expected, (case, text)
    finally:
        csv.field_size_limit(limit)


CLASSIFIER_CHARACTERS = ["A", "\u00e9", "\u20ac", "\U0001d11e"]  # 1 to 4 bytes in UTF-8


def _classifier_line(rng, limit):
    """A row, within a byte of ``limit`` on half the draws, or a line of
    other than three fields: blank, whitespace, 258 commas (2 in a uint8)."""
    if rng.random() < 0.3:
        odd = ["", " ", " \t ", ",".join(["2020-01-01", "A", *["1.0"] * 257]), "2020-01-01,A", "a,b,c,d"]
        return odd[rng.integers(len(odd))]
    symbol = "".join(rng.choice(CLASSIFIER_CHARACTERS, rng.integers(1, 6)))
    date, value = f"2020-01-{rng.integers(1, 29):02d}", str(rng.choice(["1.5", "-2e-3"]))
    pad = limit + int(rng.integers(-1, 2)) - len(f"{date},{symbol},{value}\n".encode())
    if limit < 100 and rng.random() < 0.5:
        symbol = "A" * pad + symbol
    return f"{date},{symbol},{value}"


def test_add_lines_takes_exactly_the_chunks_of_three_field_lines_within_the_limit():
    rng = np.random.default_rng(26)
    shipped = csv.field_size_limit()
    accepted = 0
    try:
        for case in range(600):
            limit = int(rng.choice([40, shipped]))
            csv.field_size_limit(limit)
            text = "\n".join(_classifier_line(rng, limit) for _ in range(rng.integers(1, 8)))
            text += "\n" if rng.random() < 0.8 else ""
            lines = (text if text.endswith("\n") else text + "\n")[:-1].split("\n")
            plain = all(line.count(",") == 2 and len(line.encode()) < limit for line in lines)
            rows = panel_module._LongRows()
            assert rows.add_lines(text) == plain, (case, limit, text)
            assert len(rows.values) == (len(lines) if plain else 0) and not rows.gaps, (case, text)
            if plain:
                assert set(rows.names[1]) == {line.split(",")[1] for line in lines}
            accepted += plain
    finally:
        csv.field_size_limit(shipped)
    assert 50 < accepted < 550


@pytest.mark.parametrize("blank", ["", " \t"])
@pytest.mark.parametrize("where", [0.0, 0.5, 1.0])  # the first, a middle and the last chunk
def test_a_blank_line_in_any_chunk_reads_like_the_loop_reference(monkeypatch, blank, where):
    monkeypatch.setattr(panel_module, "_CHUNK", 64)  # about three rows
    values = np.random.default_rng(27).standard_normal(60).tolist()
    lines = [f"2020-01-{1 + i // 3:02d},{'ABC'[i % 3]},{v!r}" for i, v in enumerate(values)]
    lines.insert(1 + int(where * (len(lines) - 2)), blank)
    for tail in ("", "2020-01-01,A,2.0\n", "2020-02-01,A,x\n"):  # clean, a repeat, a bad value
        text = "\n".join(["date,symbol,return", *lines, ""]) + tail
        assert _ingest_outcome(ingest_csv, io.StringIO(text), True) == _expected(text, True), (where, tail)


def test_oversized_field_is_a_data_error_on_both_paths():
    big = "S" * 200_000
    plain = f"date,symbol,return\n2020-01-01,AAA,1.0\n2020-01-02,{big},1.0\n"
    # the long line sends the plain file to csv.reader after one numpy pass, the quote at once
    for text in (plain, plain.replace("AAA", '"AAA"')):
        with pytest.raises(DataError, match="^line 3: field larger than field limit"):
            ingest_csv(io.StringIO(text))
    repeat_first = plain.replace("2020-01-02,", "2020-01-01,AAA,2.0\n2020-01-02,")
    with pytest.raises(DataError, match="^line 3: duplicate row for AAA on 2020-01-01"):
        ingest_csv(io.StringIO(repeat_first))
    with pytest.raises(DataError, match="^line 1: field larger than field limit"):
        ingest_csv(io.StringIO(f"date,symbol,{big}\n"))
    with pytest.raises(DataError, match="^line 3: field larger than field limit"):
        ingest_csv(io.StringIO(f"date,A\n2020-01-01,1.0\n2020-01-02,{big}\n"))
    with pytest.raises(DataError, match="^line 1: field larger than field limit"):
        ingest_csv(io.StringIO(f"date,{big}\n2020-01-01,1.0\n"))


def test_undecodable_input_is_a_data_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"date,symbol,return\n2020-01-01,\xff,1.0\n")
    with pytest.raises(DataError, match="^cannot decode input: .* byte 0xff"):
        ingest_csv(path)
    path.write_bytes(b"date,\xff\n2020-01-01,1.0\n")
    with pytest.raises(DataError, match="^cannot decode input: .* byte 0xff"):
        ingest_csv(path)


def test_wide_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(31)
    p = make_panel(rng.standard_t(df=3, size=(4, 2)) * 1e-7)
    path = tmp_path / "panel.csv"
    write_wide_csv(p, path)
    q = ingest_csv(path)
    assert q.column_ids == p.column_ids
    assert q.row_ids == p.row_ids
    assert np.array_equal(q.data, p.data)  # repr round-trip, bit for bit


def test_wide_csv_works_with_file_objects():
    p = make_panel()
    buf = io.StringIO()
    write_wide_csv(p, buf)
    q = ingest_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(q.data, p.data)
    blank = ingest_csv(io.StringIO(buf.getvalue().replace("\n", "\n\n  \n", 2)))
    assert np.array_equal(blank.data, p.data) and blank.row_ids == p.row_ids


def test_ingest_csv_reads_any_other_header_as_wide():
    # the header decides the layout: only date,symbol,return is long
    rng = np.random.default_rng(5)
    written = make_panel(rng.standard_normal((4, 4)), columns=("symbol", "return", "a,b", " D"))
    buf = io.StringIO()
    write_wide_csv(written, buf)
    cases = [
        (buf.getvalue(), written.data, ("symbol", "return", "a,b", "D"), DATES4),
        (" Date ,AAA\n\n2020-01-01,0.5\n 2020-01-02 ,1.5\n", [[0.5], [1.5]], ("AAA",), DATES4[:2]),
        ("date,symbol\n2020-01-01,1\n2020-01-02,2\n", [[1.0], [2.0]], ("symbol",), DATES4[:2]),
    ]
    for text, data, columns, dates in cases:
        got = ingest_csv(io.StringIO(text))
        assert got.data.tobytes() == np.array(data).tobytes() and got.data.shape == np.shape(data)
        assert (got.column_ids, got.row_ids) == (columns, dates)
    # a misspelled long header reads as wide: the error names the field and its column
    with pytest.raises(DataError, match="^line 2: bad numeric field 'AAA' in column 'symbol'$"):
        ingest_csv(io.StringIO("date,symbol,returns\n2020-01-01,AAA,0.5\n"))
    with pytest.raises(DataError, match="^line 3: bad numeric field 'x' in column 'C'$"):
        ingest_csv(io.StringIO("date,A,B,C\n2020-01-01,1,2,3\n2020-01-02,4,5,x\n"))
    with pytest.raises(DataError, match="^line 2: expected 2 numeric fields, got 3$"):
        ingest_csv(io.StringIO("date,A,B\n2020-01-01,1,2,3\n"))
    with pytest.raises(DataError, match="^wide CSV must start with a 'date' column$"):
        ingest_csv(io.StringIO("time,symbol,return\n2020-01-01,A,1.0\n"))


def test_a_byte_order_mark_is_dropped_from_a_text_handle():
    long_text = "date,symbol,return\n2020-01-01,AAA,0.5\n2020-01-02,AAA,1.5\n"
    wide_text = "date,AAA\n2020-01-01,0.5\n2020-01-02,1.5\n"
    for text in (long_text, '"date","symbol","return"' + long_text[18:], wide_text):
        plain, marked = ingest_csv(io.StringIO(text)), ingest_csv(io.StringIO("\ufeff" + text))
        assert marked.data.tobytes() == plain.data.tobytes()
        assert (marked.column_ids, marked.row_ids) == (plain.column_ids, plain.row_ids) == (("AAA",), DATES4[:2])
    with pytest.raises(DataError, match="^empty input file$"):
        ingest_csv(io.StringIO("\ufeff"))


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
    assert ingest_csv(io.StringIO(buf.getvalue())).column_ids == ("a,b", 'say "hi"', "lead", "plain")


def test_wide_csv_errors():
    with pytest.raises(DataError):
        ingest_csv(io.StringIO(""))
    with pytest.raises(DataError):
        ingest_csv(io.StringIO("symbol,AAA\n"))
    with pytest.raises(DataError, match="line 3"):
        ingest_csv(
            io.StringIO("date,AAA\n2020-01-01,1.0\n2020-01-02,1.0,9.9\n")
        )
    with pytest.raises(DataError, match="line 2"):
        ingest_csv(io.StringIO("date,AAA\n2020-01-01,abc\n"))
    # out of order: reported on its line, ahead of a later bad field
    with pytest.raises(DataError, match="line 3: row dates not strictly increasing"):
        ingest_csv(io.StringIO("date,AAA\n2020-01-02,1.0\n2020-01-01,2.0\n2020-01-03,x\n"))
    with pytest.raises(DataError, match="line 3: row dates not strictly increasing"):
        ingest_csv(io.StringIO("date,AAA\n2020-01-02,1.0\n2020-01-02,2.0\n"))
    with pytest.raises(DataError, match="^no data rows in input"):
        ingest_csv(io.StringIO("date,AAA\n"))


def test_wide_csv_checks_each_date_once(monkeypatch):
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
    q = ingest_csv(io.StringIO(buf.getvalue()))
    assert q.row_ids == p.row_ids
    assert len(calls) == 200


@pytest.mark.parametrize("ids", [("a\rb", "c"), ("a", "b\n"), ("\r\n", "c")])
def test_panel_rejects_line_breaks_in_column_ids(ids):
    with pytest.raises(DataError, match="line break"):
        SamplePanel(np.ones((3, 2)), ids, ("2020-01-01", "2020-01-02", "2020-01-03"))


def test_wide_csv_round_trip_keeps_quoted_column_ids(tmp_path):
    ids = ("A,1", 'B"2', '"C"', "D")
    p = make_panel(np.arange(16.0).reshape(4, 4), columns=ids)
    path = tmp_path / "panel.csv"
    write_wide_csv(p, path)
    q = ingest_csv(path)
    assert q.column_ids == ids
    assert np.array_equal(q.data, p.data)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda a: SamplePanel(a, ("a", "b"), ("2020-01-01", "2020-01-02")), "data"),
        (lambda a: WhiteningTransform(np.zeros(2), a, np.array([2.0, 1.0]), ("a", "b")), "projection"),
        (lambda a: UnmixingMatrix(a, k=2, seed=0, iterations=0, converged=True), "w"),
        (lambda a: TailCovarianceMatrix(2, a, ("a", "b")), "values"),
    ],
)
def test_one_ownership_rule_for_every_array_holder(build, field):
    writeable = np.eye(2)
    held = getattr(build(writeable), field)
    assert held is not writeable and writeable.flags.writeable and not held.flags.writeable
    frozen = np.eye(2)
    frozen.flags.writeable = False
    assert getattr(build(frozen), field) is frozen
