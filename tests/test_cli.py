"""End-to-end tests of the command-line surface and its exit codes."""

import csv
import datetime
import io
import json
import warnings

import numpy as np
import pytest

import tailica.cli as cli
from tailica.cli import main
from tailica.errors import DroppedDataWarning, NumericalError, ReductionWarning, TieWarning
from tailica.evaluate import SyntheticMarketSpec, generate_market
from tailica.ica import unmixing_from_csv
from tailica.panel import SamplePanel, center, ingest_csv, write_wide_csv
from tailica.tailcov import tail_covariance, tail_covariance_to_csv
from tailica.whiten import fit_whitening, whitening_from_csv, whitening_to_csv

SYNTH_SMALL = ["--assets", "8", "--samples", "400", "--seed", "1"]


@pytest.fixture()
def market_csv(tmp_path):
    path = tmp_path / "market.csv"
    rc = main(["synth", *SYNTH_SMALL, "--out", str(path)])
    assert rc == 0
    return path


def test_synth_writes_panel_and_manifest(market_csv):
    panel = ingest_csv(market_csv)
    assert (panel.m, panel.n) == (400, 8)
    manifest = json.loads((market_csv.parent / "market.csv.manifest.json").read_text())
    assert manifest["command"] == "synth"
    params = manifest["parameters"]
    assert params["seed"] == 1
    assert "out" not in params
    # defaults are captured too, not just explicit flags
    assert params["nu_min"] == 3.0
    assert params["crash_start"] == 0.5


def test_synth_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["synth", *SYNTH_SMALL, "--out", str(a)]) == 0
    assert main(["synth", *SYNTH_SMALL, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ingest_long_to_wide(tmp_path):
    src = tmp_path / "long.csv"
    src.write_text(
        "date,symbol,return\n"
        "2020-01-02,BBB,0.5\n2020-01-01,AAA,0.25\n"
        "2020-01-01,BBB,-0.5\n2020-01-02,AAA,1.0\n"
    )
    out = tmp_path / "wide.csv"
    assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
    panel = ingest_csv(out)
    assert panel.column_ids == ("AAA", "BBB")
    np.testing.assert_array_equal(panel.data, [[0.25, -0.5], [1.0, 0.5]])


def test_oversized_field_is_a_data_error(tmp_path, capsys):
    src = tmp_path / "big.csv"
    src.write_text("date,symbol,return\n2020-01-01,AAA,1.0\n2020-01-02," + "S" * 200_000 + ",1.0\n")
    out = tmp_path / "o.csv"
    assert main(["ingest", "--input", str(src), "--out", str(out)]) == 2
    assert "tailica: data error: line 3: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


def test_undecodable_input_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "o.csv"
    for name, text in [
        ("row.csv", b"date,symbol,return\n2020-01-01,A\xff,1.0\n"),
        ("header.csv", b"date,symbol,return\xff\n2020-01-01,A,1.0\n"),
    ]:
        (tmp_path / name).write_bytes(text)
        assert main(["ingest", "--input", str(tmp_path / name), "--out", str(out)]) == 2
        assert "tailica: data error: cannot decode input" in capsys.readouterr().err
        assert not out.exists()


def test_auto_detect_reads_a_quoted_long_header(tmp_path):
    rows = "2020-01-01,AAA,0.5\n2020-01-02,AAA,1.5\n"
    for name, header in [("qh", '"date","symbol","return"'), ("plain", "date,symbol,return")]:
        src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}_out.csv"
        src.write_text(f"{header}\n{rows}")
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
    assert (tmp_path / "qh_out.csv").read_bytes() == (tmp_path / "plain_out.csv").read_bytes()


def test_inputs_may_start_with_a_byte_order_mark(tmp_path):
    long_text = "date,symbol,return\n2020-01-02,BBB,0.5\n2020-01-01,AAA,0.25\n2020-01-01,BBB,-0.5\n"
    wide_text = "date,AAA,BBB\n2020-01-01,0.25,-0.5\n2020-01-02,1.0,0.5\n"
    for name, text in [("long", long_text), ("wide", wide_text)]:
        plain, marked = tmp_path / f"{name}.csv", tmp_path / f"{name}_bom.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        outs = [tmp_path / f"{name}_{i}.csv" for i in range(2)]
        for src, out in zip((plain, marked), outs):
            assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
    config = tmp_path / "run.conf"
    config.write_bytes(b"\xef\xbb\xbffill-missing=false\n")
    out = tmp_path / "config.csv"
    argv = ["ingest", "--config", str(config), "--input", str(tmp_path / "wide_bom.csv"), "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "config.csv.manifest.json").read_text())
    assert manifest["parameters"]["fill_missing"] is False
    assert out.read_bytes() == (tmp_path / "wide_0.csv").read_bytes()


def test_fit_writes_all_artifacts(tmp_path, market_csv):
    out = tmp_path / "run"
    rc = main(
        [
            "fit",
            "--input", str(market_csv),
            "--boundary", "2014-07-20",
            "--d", "4",
            "--k", "2,3",
            "--max-iter", "150",
            "--out", str(out),
        ]
    )
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    expected = {
        "manifest.json",
        "whitening.csv",
        "diagnostics.json",
        "scatter_in.csv",
        "scatter_out.csv",
    }
    for k in (2, 3):
        expected.add(f"W_k{k}.csv")
        for bucket in ("in", "out"):
            expected.add(f"report_k{k}_{bucket}.json")
            expected.add(f"hist_k{k}_{bucket}.csv")
            expected.add(f"hist_portfolio_k{k}_{bucket}.csv")
    assert names == expected
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag) == {"2", "3"}
    assert "kkt_off_diagonal_max" in diag["2"]
    report = json.loads((out / "report_k2_out.json").read_text())
    assert report["bucket"] == "out"
    assert report["d"] == 4


def test_transform_matches_library(tmp_path, market_csv):
    out = tmp_path / "run"
    assert (
        main(
            [
                "fit",
                "--input", str(market_csv),
                "--boundary", "2014-07-20",
                "--d", "4",
                "--k", "2",
                "--max-iter", "150",
                "--out", str(out),
            ]
        )
        == 0
    )
    trans = tmp_path / "components.csv"
    rc = main(
        [
            "transform",
            "--input", str(market_csv),
            "--whitening", str(out / "whitening.csv"),
            "--unmixing", str(out / "W_k2.csv"),
            "--out", str(trans),
        ]
    )
    assert rc == 0
    got = ingest_csv(trans)
    assert got.column_ids == tuple(f"ic_{i + 1:04d}" for i in range(4))
    # reproduce through the library
    from tailica.ica import transform as lib_transform
    from tailica.whiten import apply_whitening

    panel = ingest_csv(market_csv)
    w = whitening_from_csv((out / "whitening.csv").read_text())
    u = unmixing_from_csv((out / "W_k2.csv").read_text())
    want = lib_transform(u, apply_whitening(w, panel))
    assert np.array_equal(got.data, want.data)


def test_transform_whitening_only(tmp_path, market_csv):
    out = tmp_path / "run"
    assert (
        main(
            [
                "fit",
                "--input", str(market_csv),
                "--boundary", "2014-07-20",
                "--d", "3",
                "--k", "2",
                "--max-iter", "100",
                "--out", str(out),
            ]
        )
        == 0
    )
    trans = tmp_path / "whitened.csv"
    rc = main(
        [
            "transform",
            "--input", str(market_csv),
            "--whitening", str(out / "whitening.csv"),
            "--out", str(trans),
        ]
    )
    assert rc == 0
    assert ingest_csv(trans).column_ids == ("pc_0001", "pc_0002", "pc_0003")


def test_transform_reads_a_long_input_as_ingest_does(tmp_path, market_csv):
    panel = ingest_csv(market_csv)
    long_csv = tmp_path / "long.csv"
    cells = zip(panel.row_ids, panel.data.tolist())
    rows = [f"{date},{symbol},{value!r}" for date, row in cells for symbol, value in zip(panel.column_ids, row)]
    long_csv.write_text("date,symbol,return\n" + "\n".join(rows[::-1]) + "\n")
    wide_csv = tmp_path / "wide.csv"
    assert main(["ingest", "--input", str(long_csv), "--out", str(wide_csv)]) == 0
    whitening = tmp_path / "whitening.csv"
    whitening.write_text(whitening_to_csv(fit_whitening(panel, 3)))
    outs = [tmp_path / "from_long.csv", tmp_path / "from_wide.csv"]
    for src, out in zip((long_csv, wide_csv), outs):
        assert main(["transform", "--input", str(src), "--whitening", str(whitening), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert ingest_csv(outs[0]).row_ids == panel.row_ids


def test_undecodable_transform_matrix_is_a_data_error(tmp_path, market_csv, capsys):
    whitening = tmp_path / "whitening.csv"
    whitening.write_text(whitening_to_csv(fit_whitening(ingest_csv(market_csv), 3)))
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"tailica-W v1, k=2\xff\n")
    out = tmp_path / "o.csv"
    argv = ["transform", "--input", str(market_csv), "--out", str(out)]
    for matrices in (["--whitening", bad], ["--whitening", whitening, "--unmixing", bad]):
        assert main(argv + [str(path) for path in matrices]) == 2
        assert "tailica: data error: cannot decode input" in capsys.readouterr().err
        assert not out.exists()


def test_malformed_whitening_header_is_a_data_error(tmp_path, market_csv, capsys):
    text = whitening_to_csv(fit_whitening(ingest_csv(market_csv), 3))
    whitening = tmp_path / "whitening.csv"
    whitening.write_text(text.replace("projection,3,8", "projection,three,8"))
    out = tmp_path / "o.csv"
    argv = ["transform", "--input", str(market_csv), "--whitening", str(whitening), "--out", str(out)]
    assert main(argv) == 2
    assert "tailica: data error: malformed projection header" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "part, message",
    [
        ("projection", "whitening projection row 2: expected 2 numeric fields, got 3"),
        ("mean", "whitening mean: bad numeric field 'x' in column 'S0001'"),
        ("unmixing", "unmixing row 2: expected 2 numeric fields, got 3"),
    ],
)
def test_transform_names_the_row_and_column_of_a_bad_matrix_field(tmp_path, market_csv, capsys, part, message):
    text = whitening_to_csv(fit_whitening(ingest_csv(market_csv), 2))
    if part == "projection":
        text = text[: text.index("projection,")] + "projection,2,2\n1,0\n0,1,5\n"
    elif part == "mean":  # the first mean field
        lines = text.split("\n")
        lines[2] = "mean,x," + lines[2].split(",", 2)[2]
        text = "\n".join(lines)
    whitening, unmixing, out = tmp_path / "whitening.csv", tmp_path / "W_k2.csv", tmp_path / "o.csv"
    whitening.write_text(text)
    unmixing.write_text("tailica-W v1, k=2, seed=0, converged=true, iterations=1\n1,0\n0,1,2\n")
    argv = ["transform", "--input", str(market_csv), "--whitening", str(whitening), "--unmixing", str(unmixing)]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"tailica: data error: {message}\n"
    assert not out.exists()


def test_undecodable_config_file_is_a_usage_error_that_names_it(tmp_path, market_csv, capsys):
    config = tmp_path / "run.conf"
    config.write_bytes(b"d=4\xff\n")
    argv = ["fit", "--config", str(config), "--input", str(market_csv), "--out", str(tmp_path)]
    assert main(argv) == 1
    assert f"cannot read config file {config}" in capsys.readouterr().err
    config.write_text("d=4\nwhatnot\n")  # a line without '='
    assert main(argv) == 1
    assert f"{config}:2: expected key=value, got 'whatnot'" in capsys.readouterr().err


def test_entropy_stdout_and_file(tmp_path, market_csv, capsys):
    rc = main(["entropy", "--input", str(market_csv), "--method", "vasicek"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "symbol,entropy,method,window_n,m"
    assert len(lines) == 9
    assert lines[1].startswith("S0001,")
    out = tmp_path / "entropy.csv"
    rc = main(["entropy", "--input", str(market_csv), "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("symbol,entropy,method,")


def test_entropy_names_the_column_it_cannot_estimate(tmp_path, capsys):
    data = np.random.default_rng(3).standard_t(4, (400, 3))
    data[:100, 1] = 0.0  # 100 zeros fill whole windows of 2 * 20 + 1 values
    start = datetime.date(2020, 1, 1)
    dates = tuple((start + datetime.timedelta(days=i)).isoformat() for i in range(400))
    path = tmp_path / "wide.csv"
    write_wide_csv(SamplePanel(data, ("AAA", "BBB", "CCC"), dates), path)
    assert main(["entropy", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "column 'BBB': one value fills a spacing window; sample too degenerate" in err


def test_tailcov_matches_library(tmp_path, market_csv, capsys):
    rc = main(["tailcov", "--input", str(market_csv), "--k", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    panel = center(ingest_csv(market_csv))
    want = tail_covariance(panel, 2)
    first_row = text.strip().split("\n")[1].split(",")
    assert first_row[0] == "S0001"
    assert float(first_row[1]) == want.values[0, 0]


def test_tailcov_takes_its_own_centering(tmp_path, capsys):
    # centering A's 1e10 offset leaves a mean that the library's check rejects
    rng = np.random.default_rng(0)
    data = np.column_stack([1e10 + rng.standard_normal(2000), rng.standard_normal(2000)])
    dates = tuple((datetime.date(2000, 1, 1) + datetime.timedelta(days=i)).isoformat() for i in range(2000))
    path = tmp_path / "offset.csv"
    write_wide_csv(SamplePanel(data, ("A", "B"), dates), path)
    assert main(["tailcov", "--input", str(path), "--k", "2"]) == 0
    want = tail_covariance(center(ingest_csv(path)), 2)
    assert capsys.readouterr().out == tail_covariance_to_csv(want)


def test_scatter_and_tailcov_centre_a_column_near_the_float64_limit(tmp_path, capsys):
    z = np.random.default_rng(76).standard_t(5, (500, 2)) * [1.0, 1e307]
    dates = tuple((datetime.date(2000, 1, 1) + datetime.timedelta(days=i)).isoformat() for i in range(500))
    path = tmp_path / "huge.csv"
    write_wide_csv(SamplePanel(z, ("a", "b"), dates), path)
    out = tmp_path / "scatter.csv"
    assert main(["scatter", "--input", str(path), "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["symbol", "a", "b"]
    # centred, b's variance (about 1e614) still lies past the float64 range
    assert main(["tailcov", "--input", str(path), "--k", "1"]) == 3
    assert "tail covariance of order k=1 exceeds the float64 range" in capsys.readouterr().err


@pytest.mark.parametrize("e, message", [(700, "exceeds the float64 range"), (-700, "underflows float64")])
def test_fit_reports_a_covariance_beyond_float64_as_numerical(tmp_path, capsys, e, message):
    p = generate_market(SyntheticMarketSpec(n_assets=6, m_samples=400))
    path = tmp_path / "scaled.csv"
    write_wide_csv(p.with_data(np.ldexp(p.data, e)), path)
    argv = ["fit", "--input", str(path), "--d", "4", "--k", "2", "--boundary", p.row_ids[200]]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 3
    assert f"tailica: numerical error: covariance {message}" in capsys.readouterr().err


def test_fit_reads_constancy_from_the_data(tmp_path, capsys):
    # 400 copies of 0.1 do not sum to 40.0, so a constant column's
    # covariance is rounding noise; the fit reads constancy from the entries
    dates = tuple((datetime.date(2020, 1, 1) + datetime.timedelta(days=i)).isoformat() for i in range(400))
    constant, one = tmp_path / "constant.csv", tmp_path / "one.csv"
    write_wide_csv(SamplePanel(np.full((400, 3), 0.1) * [1.0, 3.0, 1.0], ("A", "B", "C"), dates), constant)
    normal = np.random.default_rng(0).standard_normal((400, 2))
    write_wide_csv(SamplePanel(np.insert(normal, 0, 0.1, axis=1), ("A", "B", "C"), dates), one)
    argv = ["fit", "--d", "3", "--k", "2", "--boundary", "2020-08-01", "--out", str(tmp_path / "run")]
    assert main([*argv, "--input", str(constant)]) == 2
    assert "tailica: data error: every column is constant (all-constant panel)" in capsys.readouterr().err
    assert main([*argv, "--input", str(one), "--standardize"]) == 2
    assert "tailica: data error: column 'A' is constant; cannot standardize" in capsys.readouterr().err
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--input", str(one)]) == 0
    reduced = [str(w.message) for w in caught if w.category is ReductionWarning]
    assert len(reduced) == 1 and reduced[0].endswith("reducing to d=2")
    assert whitening_from_csv((tmp_path / "run" / "whitening.csv").read_text()).d == 2


def test_the_whitening_floor_is_not_an_option(tmp_path, market_csv, capsys):
    argv = ["fit", "--input", str(market_csv), "--boundary", "2014-07-20", "--d", "4", "--out", str(tmp_path / "r")]
    assert main([*argv, "--eig-floor", "1e-6"]) == 1
    config = tmp_path / "run.conf"
    config.write_text("eig_floor=1e-6\n")
    assert main([*argv, "--config", str(config)]) == 1
    assert "unknown config keys: eig_floor" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_fit_centres_a_large_constant_column_at_its_value(tmp_path):
    # 400 copies of 1e10 + 0.1 average about 6e-5 off the value, a variance
    # above the rank floor; centred at its value the column drops out
    dates = tuple((datetime.date(2020, 1, 1) + datetime.timedelta(days=i)).isoformat() for i in range(400))
    src = tmp_path / "large.csv"
    normal = np.random.default_rng(0).standard_normal((400, 2))
    write_wide_csv(SamplePanel(np.insert(normal, 2, 1e10 + 0.1, axis=1), ("A", "B", "C"), dates), src)
    argv = ["fit", "--input", str(src), "--d", "3", "--k", "2", "--boundary", "2020-08-01"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(tmp_path / "run")]) == 0
    reduced = [str(w.message) for w in caught if w.category is ReductionWarning]
    assert len(reduced) == 1 and reduced[0].endswith("reducing to d=2")
    whitening = whitening_from_csv((tmp_path / "run" / "whitening.csv").read_text())
    assert whitening.d == 2 and whitening.mean[2] == 1e10 + 0.1


def test_the_input_layout_is_not_an_option(tmp_path, market_csv, capsys):
    # the input's header decides its layout
    for command in ("ingest", "fit", "entropy", "tailcov", "scatter"):
        out = tmp_path / command
        assert main([command, "--input", str(market_csv), "--format", "wide", "--out", str(out)]) == 1
        assert "unrecognized arguments: --format wide" in capsys.readouterr().err
        assert not out.exists()
    config = tmp_path / "run.conf"
    config.write_text("format=wide\n")
    out = tmp_path / "config.csv"
    assert main(["ingest", "--config", str(config), "--input", str(market_csv), "--out", str(out)]) == 1
    assert "unknown config keys: format" in capsys.readouterr().err
    assert not out.exists()


def test_transform_refuses_an_unmixing_with_bad_counts(tmp_path, market_csv, capsys):
    whitening = tmp_path / "whitening.csv"
    whitening.write_text(whitening_to_csv(fit_whitening(ingest_csv(market_csv), 2)))
    bad = tmp_path / "W_k0.csv"
    bad.write_text("tailica-W v1, k=0, seed=0, converged=true, iterations=-4\n1.0,0.0\n0.0,1.0\n")
    out = tmp_path / "o.csv"
    argv = ["transform", "--input", str(market_csv), "--whitening", str(whitening), "--unmixing", str(bad)]
    assert main(argv + ["--out", str(out)]) == 2
    assert "tailica: data error: k must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_scatter_writes_records(tmp_path, market_csv):
    out = tmp_path / "scatter.csv"
    rc = main(
        ["scatter", "--input", str(market_csv), "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "symbol,root_moment_10,entropy"
    assert len(lines) == 9


QUOTED_IDS = ("A,1", 'B"2', "C", "D")  # ids csv must quote, and plain ones


@pytest.fixture()
def quoted_csv(tmp_path):
    rng = np.random.default_rng(3)
    dates = [str(np.datetime64("2020-01-01") + i) for i in range(300)]
    path = tmp_path / "quoted.csv"
    write_wide_csv(SamplePanel(rng.laplace(size=(300, 4)), QUOTED_IDS, dates), path)
    return path


def test_quoted_column_ids_survive_fit_and_transform(tmp_path, quoted_csv):
    out = tmp_path / "run"
    argv = ["fit", "--input", str(quoted_csv), "--boundary", "2020-08-01", "--d", "4", "--k", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    assert whitening_from_csv((out / "whitening.csv").read_text()).column_ids == QUOTED_IDS
    trans = tmp_path / "components.csv"
    argv = ["transform", "--input", str(quoted_csv), "--whitening", str(out / "whitening.csv")]
    assert main(argv + ["--unmixing", str(out / "W_k2.csv"), "--out", str(trans)]) == 0
    assert ingest_csv(trans).m == 300
    for name in ("scatter_in.csv", "scatter_out.csv"):
        rows = list(csv.reader(io.StringIO((out / name).read_text())))
        assert [row[0] for row in rows[1:]] == list(QUOTED_IDS)
        assert {len(row) for row in rows} == {3}


@pytest.mark.parametrize("command", ["scatter", "tailcov", "entropy"])
def test_quoted_column_ids_keep_their_fields(tmp_path, quoted_csv, command):
    out = tmp_path / "out.csv"
    assert main([command, "--input", str(quoted_csv), "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert [row[0] for row in rows[1:]] == list(QUOTED_IDS)
    assert {len(row) for row in rows} == {len(rows[0])}
    if command == "tailcov":
        assert tuple(rows[0][1:]) == QUOTED_IDS


def test_eval_smoke(tmp_path):
    out = tmp_path / "evalrun"
    rc = main(
        [
            "eval",
            "--assets", "10",
            "--samples", "400",
            "--market-seed", "2",
            "--d", "5",
            "--k", "2",
            "--max-iter", "100",
            "--out", str(out),
        ]
    )
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert "market.csv" in names
    assert "manifest.json" in names
    manifest = json.loads((out / "manifest.json").read_text())
    # the effective boundary (sample midpoint) is recorded for reruns
    assert manifest["parameters"]["boundary"] is not None


def test_synth_with_the_eval_manifest_rebuilds_market_csv(tmp_path):
    out = tmp_path / "run"
    argv = ["eval", "--assets", "6", "--samples", "300", "--crash-prob", "0.1"]
    argv += ["--market-seed", "7", "--d", "4", "--k", "2", "--max-iter", "50", "--out", str(out)]
    assert main(argv) == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    synth = ["synth", "--seed", str(params["market_seed"]), "--out", str(tmp_path / "m.csv")]
    for opt in cli._MARKET_OPTS:
        synth += [opt.flag, str(params[opt.dest])]
    assert main(synth) == 0
    assert (tmp_path / "m.csv").read_bytes() == (out / "market.csv").read_bytes()


def test_fit_drops_a_late_listed_symbol_from_the_scatter(tmp_path, capsys):
    # A00 starts 150 days late; ingest fills those days with 0.0, and the
    # tied zeros leave its in-sample entropy undefined.
    rng = np.random.default_rng(0)
    x = rng.standard_t(5, (2000, 20)).tolist()
    start = datetime.date(2010, 1, 4)
    path = tmp_path / "late.csv"
    with open(path, "w") as handle:
        handle.write("date,symbol,return\n")
        for i, row in enumerate(x):
            date = (start + datetime.timedelta(days=i)).isoformat()
            for j, v in enumerate(row):
                if j or i >= 150:
                    handle.write(f"{date},A{j:02d},{v!r}\n")
    out = tmp_path / "fit"
    argv = ["fit", "--input", str(path), "--boundary", "2012-09-30", "--d", "10", "--k", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*argv, "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    scatter_in = list(csv.reader(io.StringIO((out / "scatter_in.csv").read_text())))
    assert [row[0] for row in scatter_in[1:]] == [f"A{j:02d}" for j in range(1, 20)]
    dropped = [str(w.message) for w in caught if w.category is DroppedDataWarning]
    assert len(dropped) == 1 and dropped[0].endswith("sample too degenerate): A00")
    assert not any(w.category is TieWarning for w in caught)  # A00 is refused before its ties


def test_config_file_supplies_defaults(tmp_path, market_csv):
    config = tmp_path / "run.conf"
    config.write_text("d=4\nk=2\nmax-iter=120\nboundary=2014-07-20\n# comment\n")
    out = tmp_path / "run"
    rc = main(
        [
            "fit",
            "--config", str(config),
            "--input", str(market_csv),
            "--out", str(out),
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["d"] == 4
    assert manifest["parameters"]["max_iter"] == 120
    config.write_text("d=4\nk=2\nboundary=2014-07-20\nstandardize=false\n")
    assert main(["fit", "--config", str(config), "--input", str(market_csv), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["parameters"]["standardize"] is False


def test_a_config_value_may_hold_a_hash(tmp_path, market_csv):
    # only a line whose first non-blank character is '#' is a comment
    data = tmp_path / "runs#3" / "m.csv"
    data.parent.mkdir()
    data.write_bytes(market_csv.read_bytes())
    config = tmp_path / "run.conf"
    config.write_text(f"  # the input's folder name holds a '#'\ninput={data}\n")
    outs = [tmp_path / "config.csv", tmp_path / "flag.csv"]
    assert main(["ingest", "--config", str(config), "--out", str(outs[0])]) == 0
    assert main(["ingest", "--input", str(data), "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cli_overrides_config(tmp_path, market_csv):
    config = tmp_path / "run.conf"
    config.write_text("d=4\nk=2\nboundary=2014-07-20\nmax-iter=120\n")
    out = tmp_path / "run"
    rc = main(
        [
            "fit",
            "--config", str(config),
            "--input", str(market_csv),
            "--d", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["d"] == 3


def test_unknown_config_key_is_usage_error(tmp_path, market_csv):
    config = tmp_path / "run.conf"
    config.write_text("d=4\nwhatnot=7\n")
    rc = main(
        [
            "fit",
            "--config", str(config),
            "--input", str(market_csv),
            "--boundary", "2014-07-20",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 1


def test_usage_error_exit_codes(tmp_path, market_csv, capsys):
    # missing required flag
    assert main(["synth", "--assets", "5"]) == 1
    # unparseable option value
    assert main(["synth", *SYNTH_SMALL[:-2], "--seed", "abc", "--out", "x.csv"]) == 1
    # unknown flag
    assert main(["synth", "--frobnicate", "1"]) == 1
    # invalid contrast order is rejected before any work happens
    rc = main(
        [
            "fit",
            "--input", str(market_csv),
            "--boundary", "2014-07-20",
            "--d", "4",
            "--k", "0",
            "--out", str(tmp_path / "r"),
        ]
    )
    assert rc == 1
    assert not (tmp_path / "r").exists()
    # no subcommand prints help and fails
    assert main([]) == 1
    capsys.readouterr()


def test_data_error_exit_codes(tmp_path, capsys):
    # nonexistent input file
    rc = main(["entropy", "--input", str(tmp_path / "missing.csv")])
    assert rc == 2
    # malformed input data
    bad = tmp_path / "bad.csv"
    bad.write_text("date,AAA\n2020-01-01,not-a-number\n")
    rc = main(["entropy", "--input", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err
    # a synthetic market whose last day would fall past 9999-12-31
    out = tmp_path / "late.csv"
    argv = ["synth", "--assets", "2", "--samples", "5", "--start-date", "9999-12-29", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "tailica: data error: 5 daily rows from 9999-12-29 run past 9999-12-31" in err
    assert not out.exists()


def test_out_of_range_parameters_exit_with_their_names(tmp_path, capsys):
    # tol >= 1 would stop every fit after one step, and nan would run it to the cap.
    small = ["--assets", "8", "--samples", "400", "--d", "4", "--k", "2"]
    for tol in ("nan", "inf", "1"):
        out = tmp_path / f"tol_{tol}"
        assert main(["eval", *small, "--tol", tol, "--out", str(out)]) == 1
        assert "tailica: usage error: tol must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()
    for flag, field in [("--vol-max", "vol_range"), ("--crash-scale", "crash_scale"), ("--tremor-scale", "tremor_scale")]:
        out = tmp_path / "m.csv"
        for bad in ("inf", "nan"):
            assert main(["synth", *SYNTH_SMALL, flag, bad, "--out", str(out)]) == 2
            assert f"tailica: data error: {field} must be " in capsys.readouterr().err
            assert not out.exists()


def test_numerical_error_exit_code(monkeypatch, tmp_path, market_csv, capsys):
    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "run_experiment_artifacts", boom)
    rc = main(
        [
            "fit",
            "--input", str(market_csv),
            "--boundary", "2014-07-20",
            "--d", "4",
            "--k", "2",
            "--out", str(tmp_path / "r"),
        ]
    )
    assert rc == 3
    assert not (tmp_path / "r").exists()
    assert "numerical error" in capsys.readouterr().err


def test_non_converging_svd_exits_as_a_numerical_error(monkeypatch, tmp_path, market_csv, capsys):
    # numpy's LinAlgError is a ValueError, which main reports as a usage error
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    argv = ["fit", "--input", str(market_csv), "--boundary", "2014-07-20", "--d", "4", "--k", "2"]
    argv += ["--out", str(tmp_path / "r")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "tailica: numerical error: SVD for contrast order k=2 did not converge at iteration 1" in err


def test_overflowing_fit_is_a_numerical_error(tmp_path, capsys):
    # The order-300 gradient of the default market exceeds float64.
    rc = main(["eval", "--k", "150", "--max-iter", "5", "--out", str(tmp_path / "r")])
    assert rc == 3
    assert not (tmp_path / "r").exists()
    assert "numerical error" in capsys.readouterr().err


def test_overflowing_tail_covariance_is_a_numerical_error(tmp_path, capsys):
    # The k=117 fit returns; its order-234 tail covariance exceeds float64.
    rc = main(["eval", "--k", "2,117", "--out", str(tmp_path / "r")])
    assert rc == 3
    assert not (tmp_path / "r").exists()
    assert "numerical error" in capsys.readouterr().err


def test_version_and_help(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tailica ")
    assert main(["fit", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "--boundary" in help_text
    assert "--entropy-method" in help_text


def test_fit_rerun_is_byte_identical(tmp_path, market_csv):
    args = [
        "fit",
        "--input", str(market_csv),
        "--boundary", "2014-07-20",
        "--d", "4",
        "--k", "2",
        "--max-iter", "150",
    ]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


@pytest.mark.parametrize(
    "config_text, flag",
    [
        ("d=abc\n", "--d"),
        ("d=4\nstandardize=maybe\n", "--standardize"),
        ("d=4\nk=2,x\n", "--k"),
        ("d=4 # a '#' after the value is part of it\n", "--d"),
    ],
)
def test_bad_config_value_names_its_flag(tmp_path, market_csv, capsys, config_text, flag):
    config = tmp_path / "run.conf"
    config.write_text(config_text)
    rc = main(
        [
            "fit",
            "--config", str(config),
            "--input", str(market_csv),
            "--boundary", "2014-07-20",
            "--out", str(tmp_path / "r"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert flag in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "window_text, window", [("auto", None), ("AUTO", None), ("7", 7)]
)
def test_config_converts_bool_and_window_values(tmp_path, market_csv, window_text, window):
    config = tmp_path / "run.conf"
    config.write_text(
        f"d=3\nk=2\nmax-iter=100\nboundary=2014-07-20\n"
        f"standardize=yes\nentropy-window={window_text}\n"
    )
    out = tmp_path / "run"
    rc = main(["fit", "--config", str(config), "--input", str(market_csv), "--out", str(out)])
    assert rc == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert params["standardize"] is True
    assert params["entropy_window"] == window
    assert params["k"] == [2]
    # an explicit flag still wins over the config's boolean
    out2 = tmp_path / "run2"
    rc = main(
        [
            "fit",
            "--config", str(config),
            "--input", str(market_csv),
            "--no-standardize",
            "--out", str(out2),
        ]
    )
    assert rc == 0
    params = json.loads((out2 / "manifest.json").read_text())["parameters"]
    assert params["standardize"] is False


def test_flag_auto_window_overrides_config(tmp_path, market_csv):
    # 'auto' converts to None, which must still count as a given flag
    config = tmp_path / "run.conf"
    config.write_text("d=3\nk=2\nmax-iter=100\nboundary=2014-07-20\nentropy-window=7\n")
    out = tmp_path / "run"
    argv = ["fit", "--config", str(config), "--input", str(market_csv), "--out", str(out)]
    assert main([*argv, "--entropy-window", "auto"]) == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert params["entropy_window"] is None


def test_bad_flag_value_names_its_flag(capsys):
    assert main(["synth", "--seed", "abc", "--out", "x.csv"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert main(["entropy", "--input", "x.csv", "--window", "wide"]) == 1
    assert "--window" in capsys.readouterr().err


def test_repeated_k_flags_flatten(tmp_path, market_csv):
    out = tmp_path / "run"
    rc = main(
        [
            "fit",
            "--input", str(market_csv),
            "--boundary", "2014-07-20",
            "--d", "3",
            "--k", "2",
            "--k", "3,4",
            "--max-iter", "100",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["parameters"]["k"] == [2, 3, 4]


@pytest.mark.parametrize(
    "command",
    ["ingest", "synth", "fit", "transform", "entropy", "tailcov", "scatter", "eval"],
)
def test_help_lists_every_flag_and_default(command, capsys):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    opts = cli._COMMANDS[command].opts
    assert opts, command
    for opt in opts:
        assert f"{opt.flag} " in text or f"{opt.flag}," in text
        if opt.default is None:
            continue
        shown = ",".join(map(str, opt.default)) if isinstance(opt.default, list) else opt.default
        assert f"{opt.help} (default: {shown})" in text


def test_help_pins_fit_and_eval_defaults(capsys):
    assert main(["eval", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--d D number of whitened dimensions to keep (default: 30)" in text
    assert "--k K contrast order(s); repeatable or comma-separated (default: 2,10)" in text
    assert "--tol TOL solver convergence tolerance (default: 1e-08)" in text
    assert "--standardize, --no-standardize scale columns to unit variance" in text
    assert main(["fit", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default: 2)" in text
    assert "--d D number of whitened dimensions to keep --k K" in text
