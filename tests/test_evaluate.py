"""Tests for the synthetic market, tail reports and the experiment driver."""

import dataclasses
import functools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from tailica.entropy import EntropyEstimatorConfig, correa_entropy
from tailica.errors import DataError, DroppedDataWarning
from tailica.evaluate import (
    QUANTILE_LEVELS,
    ExperimentArtifacts,
    ScatterRecord,
    SyntheticMarketSpec,
    TailReport,
    build_tail_report,
    equal_weight_portfolio,
    generate_market,
    histogram_to_csv,
    report_to_dict,
    run_experiment_artifacts,
    scatter_moment_entropy,
    scatter_to_csv,
    tail_histogram,
)
import tailica.evaluate as evaluate_module
from tailica.ica import ContrastSpec, UnmixingMatrix, fit_ica, kkt_residual, transform
from tailica.moments import moment, root_moment
from tailica.panel import split_buckets
from tailica.whiten import apply_whitening, fit_whitening

from dated import dated_panel

# asymptotic offset between Gaussian entropy and the order-10 log root
# moment: ln sqrt(2 pi e) - ln(945)/10, with 945 = E[Z^10]
GAUSS_OFFSET = 0.7338200404552985


def small_t_market(seed=0, n=12, m=600):
    return generate_market(
        SyntheticMarketSpec(n_assets=n, m_samples=m, seed=seed)
    )


panel_from = functools.partial(dated_panel, start="2000-01-01")


def test_market_is_deterministic():
    a = generate_market(SyntheticMarketSpec(n_assets=10, m_samples=300, seed=4))
    b = generate_market(SyntheticMarketSpec(n_assets=10, m_samples=300, seed=4))
    assert np.array_equal(a.data, b.data)
    c = generate_market(SyntheticMarketSpec(n_assets=10, m_samples=300, seed=5))
    assert not np.array_equal(a.data, c.data)


def test_market_shape_ids_and_dates():
    p = generate_market(
        SyntheticMarketSpec(n_assets=7, m_samples=50, start_date="2021-03-01", seed=1)
    )
    assert (p.m, p.n) == (50, 7)
    assert p.column_ids[0] == "S0001"
    assert p.column_ids[-1] == "S0007"
    assert p.row_ids[0] == "2021-03-01"
    assert p.row_ids[1] == "2021-03-02"


def test_market_zero_loading_gives_fat_independent_columns():
    p = generate_market(
        SyntheticMarketSpec(
            n_assets=8,
            m_samples=6000,
            loading_range=(0.0, 0.0),
            tremor_prob=0.0,
            crash_prob=0.0,
            seed=2,
        )
    )
    x = p.data
    corr = np.corrcoef(x, rowvar=False)
    assert np.abs(corr - np.eye(8)).max() < 0.08
    m2 = (x**2).mean(axis=0)
    m4 = (x**4).mean(axis=0)
    assert np.all(m4 / m2**2 - 3.0 > 0.2)  # Student-t excess kurtosis


def test_market_full_loading_gives_one_factor():
    p = generate_market(
        SyntheticMarketSpec(n_assets=6, m_samples=3000, loading_range=(1.0, 1.0), seed=3)
    )
    corr = np.corrcoef(p.data, rowvar=False)
    assert corr.min() > 0.9


def test_market_gaussian_mode_kills_excess_kurtosis():
    p = generate_market(
        SyntheticMarketSpec(
            n_assets=8,
            m_samples=8000,
            nu_range=(math.inf, math.inf),
            nu_factor=math.inf,
            loading_range=(0.0, 0.0),
            tremor_prob=0.0,
            crash_prob=0.0,
            seed=4,
        )
    )
    x = p.data
    m2 = (x**2).mean(axis=0)
    m4 = (x**4).mean(axis=0)
    assert np.abs(m4 / m2**2 - 3.0).max() < 0.3


def test_market_crash_regime_is_confined_to_late_rows():
    spec = SyntheticMarketSpec(
        n_assets=10,
        m_samples=4000,
        tremor_prob=0.0,
        crash_prob=0.08,
        crash_scale=12.0,
        crash_start=0.5,
        seed=5,
    )
    p = generate_market(spec)
    half = p.m // 2
    early = np.abs(p.data[:half]).max()
    late = np.abs(p.data[half:]).max()
    assert late > 2.0 * early


def _reference_market(spec):
    """The generator as one expression on fresh temporaries, the form it had
    before it built the panel in place; the draws come in the same order."""
    n, m = int(spec.n_assets), int(spec.m_samples)
    rng = np.random.default_rng(spec.seed)

    def standardized_t(df, size):
        df = np.asarray(df, dtype=np.float64)
        if np.all(np.isinf(df)):
            return rng.standard_normal(size)
        return rng.standard_t(df, size) / np.sqrt(df / (df - 2.0))

    lo, hi = spec.nu_range
    nus = np.full(n, np.inf) if math.isinf(lo) else rng.uniform(lo, hi, n)
    betas = rng.uniform(spec.loading_range[0], spec.loading_range[1], n)
    vols = rng.uniform(spec.vol_range[0], spec.vol_range[1], n)
    factor = standardized_t(spec.nu_factor, m)
    idio = standardized_t(nus[np.newaxis, :], (m, n))
    tremor_u = rng.random(m)
    tremor_sign = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    crash_u = rng.random(m)
    tremor_days = tremor_u < spec.tremor_prob
    factor = np.where(tremor_days, spec.tremor_scale * tremor_sign, factor)
    crash_days = (crash_u < spec.crash_prob) & (np.arange(m) >= spec.crash_start * m)
    factor = np.where(crash_days, factor * spec.crash_scale, factor)
    return vols * (betas * factor[:, np.newaxis] + np.sqrt(1.0 - betas**2) * idio)


@pytest.mark.parametrize(
    "spec",
    [
        SyntheticMarketSpec(),
        SyntheticMarketSpec(nu_range=(math.inf, math.inf), nu_factor=math.inf, seed=1),
        SyntheticMarketSpec(n_assets=9, m_samples=2100, loading_range=(0.0, 0.0), seed=2),
        SyntheticMarketSpec(n_assets=9, m_samples=2100, loading_range=(1.0, 1.0), seed=3),
        SyntheticMarketSpec(n_assets=1, m_samples=2500, seed=4),
        SyntheticMarketSpec(n_assets=7, m_samples=3001, seed=5),  # not a whole number of blocks
    ],
    ids=["default", "gaussian", "zero-loading", "full-loading", "one-asset", "m3001"],
)
def test_market_built_in_place_matches_the_one_expression_bitwise(spec):
    got = generate_market(spec).data
    want = _reference_market(spec)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_market_generation_holds_little_more_than_the_panel():
    # The draws become the panel in place; the factor term is made a row
    # block at a time.  Measured at 1.25x the panel's bytes, against 3.05x
    # for the one expression.
    spec = SyntheticMarketSpec(n_assets=100, m_samples=20_000, seed=1)
    tracemalloc.start()
    try:
        panel = generate_market(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * panel.data.nbytes, peak / panel.data.nbytes


def test_market_spec_validation():
    with pytest.raises(DataError):
        SyntheticMarketSpec(n_assets=0)
    with pytest.raises(DataError):
        SyntheticMarketSpec(nu_range=(2.0, 5.0))
    with pytest.raises(DataError):
        SyntheticMarketSpec(nu_range=(3.0, math.inf))
    with pytest.raises(DataError):
        SyntheticMarketSpec(loading_range=(-0.1, 0.5))
    with pytest.raises(DataError):
        SyntheticMarketSpec(loading_range=(0.5, 1.1))
    with pytest.raises(DataError):
        SyntheticMarketSpec(vol_range=(0.0, 1.0))
    with pytest.raises(DataError):
        SyntheticMarketSpec(crash_prob=1.5)
    with pytest.raises(DataError, match="m_samples must be >= 2"):
        SyntheticMarketSpec(m_samples=1)
    with pytest.raises(DataError, match="must be non-negative"):
        SyntheticMarketSpec(tremor_scale=-1.0)
    # 2014-W01-1 would silently start the market on 2013-12-30
    for bad in ("01/01/2020", "20140101", "2014-W01-1"):
        with pytest.raises(DataError):
            SyntheticMarketSpec(start_date=bad)
    with pytest.raises(DataError):
        SyntheticMarketSpec(nu_factor=2.0)
    last = SyntheticMarketSpec(n_assets=1, m_samples=3, start_date="9999-12-29")
    assert generate_market(last).row_ids[-1] == "9999-12-31"
    with pytest.raises(DataError, match="4 daily rows from 9999-12-29 run past 9999-12-31"):
        SyntheticMarketSpec(m_samples=4, start_date="9999-12-29")


def test_market_spec_names_a_non_finite_scale():
    # rng.uniform overflows on an infinite vol bound; a nan scale passed every check
    for name, bad in [
        ("vol_range", (0.7, math.inf)),
        ("vol_range", (math.nan, 1.4)),
        ("tremor_scale", math.inf),
        ("crash_scale", math.nan),
    ]:
        with pytest.raises(DataError, match=f"^{name} must be (positive|non-negative) and finite"):
            SyntheticMarketSpec(**{name: bad})
    gaussian = SyntheticMarketSpec(n_assets=2, m_samples=5, nu_range=(math.inf, math.inf), nu_factor=math.inf)
    assert np.all(np.isfinite(generate_market(gaussian).data))


def test_equal_weight_portfolio_is_row_mean():
    p = panel_from([[1.0, 3.0], [2.0, -2.0], [0.0, 5.0]])
    np.testing.assert_array_equal(equal_weight_portfolio(p), [2.0, 0.0, 2.5])


def test_tail_histogram_conserves_counts():
    rng = np.random.default_rng(71)
    v = rng.standard_t(df=3, size=5000)
    v[0] = 1e6  # a far outlier must still land in a bin
    edges, counts = tail_histogram(v)
    assert counts.sum() == v.size
    assert len(edges) == 102  # 41 core + 2 x 30 tail bins
    assert len(counts) == 101
    # the tail grids mirror exactly; the linear core only to roundoff
    np.testing.assert_allclose(edges, -edges[::-1], rtol=1e-15, atol=1e-15)
    assert np.all(np.diff(edges) > 0.0)


def test_tail_histogram_small_samples_use_default_span():
    edges, counts = tail_histogram([0.1, -0.2, 0.3])
    assert counts.sum() == 3
    assert edges[-1] == pytest.approx(2.5)  # 1.25 x core half-width


def test_tail_histogram_errors():
    with pytest.raises(DataError):
        tail_histogram([])
    with pytest.raises(DataError):
        tail_histogram([1.0, np.inf])


def test_build_tail_report_cross_checks():
    rng = np.random.default_rng(72)
    p = panel_from(rng.standard_t(df=4, size=(800, 5)))
    rep = build_tail_report(p, 2, "in")
    pooled = np.abs(p.data.ravel())
    assert rep.pooled_abs_q999 == np.quantile(pooled, 0.999)
    assert rep.central_mass == np.mean(pooled < 1.0)
    assert rep.counts.sum() == 800 * 5
    assert rep.portfolio_counts.sum() == 800
    assert rep.quantiles.shape == (len(QUANTILE_LEVELS), 5)
    # per-component quantiles bracket zero for centered-ish data
    assert np.all(rep.quantiles[0] < 0.0)
    assert np.all(rep.quantiles[-1] > 0.0)
    assert rep.root_moments.shape == (5,)
    assert np.all(rep.root_moments > 0.0)
    assert (rep.k, rep.bucket, rep.m) == (2, "in", 800)


def test_build_tail_report_degenerate_columns():
    # an all-zero column has no second moment to normalize by
    data = np.zeros((100, 2))
    data[:, 0] = np.linspace(-1, 1, 100)
    with pytest.raises(DataError):
        build_tail_report(panel_from(data), 2, "in")
    # a constant nonzero column is defined under raw moments: m4/m2^2 = 1
    data = np.ones((100, 2)) * 7.0
    data[:, 0] = np.linspace(-1, 1, 100)
    rep = build_tail_report(panel_from(data), 2, "in")
    assert rep.excess_kurtosis[1] == -2.0


@pytest.mark.parametrize("k", [2.5, 0])
def test_build_tail_report_refuses_a_bad_order(k):
    # a fractional order used to be truncated to 2, and 0 divided by zero
    p = generate_market(SyntheticMarketSpec(n_assets=3, m_samples=300, seed=0))
    with pytest.raises(ValueError, match="order k"):
        build_tail_report(p, k, "in")


def test_tail_report_validation():
    rng = np.random.default_rng(73)
    p = panel_from(rng.standard_normal((200, 3)))
    rep = build_tail_report(p, 2, "in")
    broken = dict(
        k=rep.k,
        bucket=rep.bucket,
        component_ids=rep.component_ids,
        m=rep.m,
        quantiles=rep.quantiles,
        root_moments=rep.root_moments,
        excess_kurtosis=rep.excess_kurtosis,
        bin_edges=rep.bin_edges,
        counts=rep.counts,
        portfolio_bin_edges=rep.portfolio_bin_edges,
        portfolio_counts=rep.portfolio_counts,
        pooled_abs_q999=rep.pooled_abs_q999,
        central_mass=rep.central_mass,
    )
    with pytest.raises(DataError):
        TailReport(**{**broken, "counts": rep.counts[:-1]})
    with pytest.raises(DataError):
        TailReport(**{**broken, "portfolio_counts": rep.portfolio_counts * 2})
    with pytest.raises(DataError):
        TailReport(**{**broken, "quantiles": rep.quantiles[::-1]})


def test_scatter_skips_constant_columns():
    rng = np.random.default_rng(74)
    data = rng.standard_normal((400, 3))
    data[:, 1] = 7.0
    p = panel_from(data, ("a", "const", "b"))
    with pytest.warns(DroppedDataWarning, match="const"):
        records = scatter_moment_entropy(p, "in")
    assert [r.column_id for r in records] == ["a", "b"]
    assert all(r.bucket == "in" for r in records)


def test_scatter_skips_columns_with_no_entropy_estimate():
    # 150 leading zeros fill whole spacing windows, and the estimator
    # rejects the sample; the column is dropped with the reason named, as
    # a constant column is.
    rng = np.random.default_rng(75)
    data = rng.standard_t(5, (1000, 3))
    data[:150, 1] = 0.0
    data[:, 2] = 3.0
    p = panel_from(data, ("a", "late", "const"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = scatter_moment_entropy(p, "in")
    assert [r.column_id for r in records] == ["a"]
    (message,) = [str(w.message) for w in caught if w.category is DroppedDataWarning]
    assert "skipped 1 columns (constant sample: differential entropy undefined): const" in message
    assert "sample too degenerate): late" in message


def test_scatter_records_or_skips_columns_at_the_edge_of_float64():
    # a column at 1e154 made correa's windowed squares overflow, and the
    # scatter aborted on a NaN record; it now has its scaled entropy, and a
    # non-finite estimate (ebrahimi at 1e306) drops its column with the reason
    z = np.random.default_rng(76).standard_t(5, (500, 2))
    records = scatter_moment_entropy(panel_from(z * [1.0, 1e154], ("a", "b")), "in")
    assert [r.column_id for r in records] == ["a", "b"]
    expected = correa_entropy(z[:, 1]).value + math.log(1e154)
    assert records[1].entropy == pytest.approx(expected, rel=1e-12)
    config = EntropyEstimatorConfig("ebrahimi")
    huge = panel_from(z * [1.0, 1e306], ("a", "b"))
    with np.errstate(over="ignore"), pytest.warns(DroppedDataWarning, match=r"\(ebrahimi entropy is inf: .*\): b$"):
        records = scatter_moment_entropy(huge, "in", config)
    assert [r.column_id for r in records] == ["a"]


def test_scatter_centres_a_column_near_the_float64_limit():
    # b's unscaled sum overflows float64, and a NaN root would abort the scatter
    z = np.random.default_rng(76).standard_t(5, (500, 2)) * [1.0, 1e307]
    records = scatter_moment_entropy(panel_from(z, ("a", "b")), "in")
    assert [r.column_id for r in records] == ["a", "b"]
    col = z[:, 1]
    mean = (col * 2.0**-1020).mean() * 2.0**1020  # an exact shift, so the sum stays in range
    assert records[1].root_moment_10 == root_moment(col - mean, 10)


def test_market_spec_refuses_fractional_counts():
    # truncated, these would build a 100 x 5 market
    with pytest.raises(DataError, match="n_assets must be an integer, got 5.7"):
        SyntheticMarketSpec(n_assets=5.7)
    with pytest.raises(DataError, match="m_samples must be an integer, got 100.9"):
        SyntheticMarketSpec(m_samples=100.9)
    spec = SyntheticMarketSpec(n_assets=5.0, m_samples=100.0)
    assert (spec.n_assets, spec.m_samples) == (5, 100) and type(spec.m_samples) is int


def test_scatter_gaussian_offset():
    # For Gaussian columns the entropy exceeds the log root moment by
    # ln sqrt(2 pi e) - ln(945)/10 ~ 0.734 regardless of column scale.
    p = generate_market(
        SyntheticMarketSpec(
            n_assets=40,
            m_samples=4000,
            nu_range=(math.inf, math.inf),
            nu_factor=math.inf,
            tremor_prob=0.0,
            crash_prob=0.0,
            seed=11,
        )
    )
    records = scatter_moment_entropy(p, "in")
    offsets = [r.entropy - math.log(r.root_moment_10) for r in records]
    assert np.mean(offsets) == pytest.approx(GAUSS_OFFSET, abs=0.05)


def test_scatter_association_positive_across_scales():
    # columns with spread-out scales: both summaries absorb ln(scale), so
    # the association is strongly positive (light version of the full
    # 200-column check in the acceptance suite)
    rng = np.random.default_rng(75)
    m = 1500
    cols = []
    for _ in range(60):
        nu = rng.uniform(3.0, 8.0)
        vol = math.exp(rng.uniform(math.log(0.5), math.log(5.0)))
        cols.append(vol * rng.standard_t(nu, m) / math.sqrt(nu / (nu - 2.0)))
    p = panel_from(np.column_stack(cols))
    records = scatter_moment_entropy(p, "in")
    lr = np.array([math.log(r.root_moment_10) for r in records])
    h = np.array([r.entropy for r in records])
    assert np.corrcoef(lr, h)[0, 1] > 0.7


def test_scatter_record_rejects_non_finite():
    with pytest.raises(DataError):
        ScatterRecord("x", math.inf, 1.0, "in")


def test_run_experiment_report_cardinality_and_order():
    panel = small_t_market(seed=6)
    boundary = panel.row_ids[panel.m // 2]
    reports = run_experiment_artifacts(
        panel, boundary, d=6, k_list=[2, 3], max_iter=150
    ).reports
    assert [(r.k, r.bucket) for r in reports] == [
        (2, "in"),
        (2, "out"),
        (3, "in"),
        (3, "out"),
    ]
    assert all(len(r.component_ids) == 6 for r in reports)


def test_run_experiment_is_deterministic_across_scheduling():
    # the pooled run must equal, bit for bit, the same public calls made
    # one contrast order at a time on this thread
    panel = small_t_market(seed=7)
    boundary = panel.row_ids[panel.m // 2]
    k_list = [2, 3, 4]
    art = run_experiment_artifacts(panel, boundary, d=5, k_list=k_list, seed=1, max_iter=150)

    split = split_buckets(panel, boundary)
    white = fit_whitening(split.in_sample, 5)
    z_in = apply_whitening(white, split.in_sample)
    z_out = apply_whitening(white, split.out_sample)
    identity = UnmixingMatrix(np.eye(5), k=1, seed=1, iterations=0, converged=True)
    reports = []
    for k in k_list:
        w = fit_ica(z_in, ContrastSpec(k), seed=1, max_iter=150)
        got = art.unmixings[k]
        assert np.array_equal(got.w, w.w)
        assert (got.iterations, got.converged) == (w.iterations, w.converged)
        reports += [
            build_tail_report(transform(w, z_in), k, "in"),
            build_tail_report(transform(w, z_out), k, "out"),
        ]
        assert art.kkt[k] == kkt_residual(z_in, w, k)
        assert art.identity_kkt[k] == kkt_residual(z_in, identity, k)
    assert len(art.reports) == len(reports)
    for got, want in zip(art.reports, reports):
        for field in dataclasses.fields(TailReport):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
    assert art.scatter_in == scatter_moment_entropy(split.in_sample, "in")
    assert art.scatter_out == scatter_moment_entropy(split.out_sample, "out")


def test_run_experiment_artifacts_structure():
    panel = small_t_market(seed=8)
    boundary = panel.row_ids[panel.m // 2]
    art = run_experiment_artifacts(
        panel, boundary, d=4, k_list=[2], max_iter=100
    )
    assert isinstance(art, ExperimentArtifacts)
    assert set(art.unmixings) == {2}
    assert set(art.kkt) == {2}
    assert set(art.identity_kkt) == {2}
    assert art.whitening.d == 4
    assert art.split.in_sample.m + art.split.out_sample.m == panel.m
    assert len(art.scatter_in) == panel.n
    assert len(art.scatter_out) == panel.n
    # the identity residual exists even when it was never fitted
    assert art.identity_kkt[2].orthonormality_max == 0.0


def test_gaussian_market_central_mass_stable_across_orders():
    # With no tail structure, the choice of contrast order cannot change
    # the distribution bulk: central mass moves by well under 5%.
    spec = SyntheticMarketSpec(
        n_assets=20,
        m_samples=1600,
        nu_range=(math.inf, math.inf),
        nu_factor=math.inf,
        tremor_prob=0.0,
        crash_prob=0.0,
        seed=3,
    )
    panel = generate_market(spec)
    boundary = panel.row_ids[panel.m // 2]
    reports = run_experiment_artifacts(
        panel, boundary, d=10, k_list=[2, 10], max_iter=200
    ).reports
    cm = {(r.k, r.bucket): r.central_mass for r in reports}
    for bucket in ("in", "out"):
        rel = abs(cm[(2, bucket)] - cm[(10, bucket)]) / cm[(2, bucket)]
        assert rel < 0.05


def test_run_experiment_validates_k_list():
    panel = small_t_market(seed=9, n=6, m=200)
    boundary = panel.row_ids[panel.m // 2]
    with pytest.raises(ValueError):
        run_experiment_artifacts(panel, boundary, d=3, k_list=[]).reports
    with pytest.raises(ValueError):
        run_experiment_artifacts(panel, boundary, d=3, k_list=[2, 2]).reports


def test_bad_contrast_order_is_rejected_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("split_buckets ran before the contrast orders were checked")

    panel = small_t_market(seed=9, n=6, m=200)
    monkeypatch.setattr("tailica.evaluate.split_buckets", no_work)
    with pytest.raises(ValueError, match="contrast order"):
        run_experiment_artifacts(panel, panel.row_ids[100], d=3, k_list=[2, 0])


def test_report_to_dict_is_json_ready():
    import json

    rng = np.random.default_rng(76)
    p = panel_from(rng.standard_normal((300, 4)))
    rep = build_tail_report(p, 3, "out")
    d = report_to_dict(rep)
    text = json.dumps(d)
    back = json.loads(text)
    assert back["k"] == 3
    assert back["bucket"] == "out"
    assert back["d"] == 4
    assert back["quantile_levels"] == [0.001, 0.01, 0.99, 0.999]
    assert back["pooled_abs_q999"] == rep.pooled_abs_q999


def test_histogram_and_scatter_csv_formats():
    edges, counts = tail_histogram([0.5, -0.5, 1.5, 3.0])
    text = histogram_to_csv(edges, counts)
    lines = text.strip().split("\n")
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 1 + len(counts)
    assert sum(int(l.split(",")[2]) for l in lines[1:]) == 4

    records = [ScatterRecord("S0001", 1.5, 0.25, "in")]
    stext = scatter_to_csv(records)
    assert stext == "symbol,root_moment_10,entropy\nS0001,1.5,0.25\n"


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_tail_report_moments_match_the_one_column_functions(k):
    rng = np.random.default_rng(73)
    p = panel_from(rng.standard_t(df=3, size=(900, 4)))
    rep = build_tail_report(p, k, "in")
    cols = [p.data[:, j] for j in range(p.n)]
    assert rep.root_moments.tolist() == [root_moment(c, 2 * k) for c in cols]
    want = [moment(c, 4) / moment(c, 2) ** 2 - 3.0 for c in cols]
    assert rep.excess_kurtosis.tolist() == want


def test_scatter_root_moments_match_the_one_column_function():
    panel = small_t_market(seed=9)
    records = scatter_moment_entropy(panel, "in")
    for j, record in enumerate(records):
        col = panel.data[:, j]
        assert record.root_moment_10 == root_moment(col - col.mean(), 10)


def test_run_experiment_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("run_experiment_artifacts started a thread")

    counts = []

    def counted_fit(*args, **kwargs):
        counts.append(threading.active_count())
        return fit_ica(*args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(evaluate_module, "fit_ica", counted_fit)
    panel = small_t_market(seed=10)
    before = threading.active_count()
    art = run_experiment_artifacts(panel, panel.row_ids[300], d=4, k_list=[2, 3], max_iter=100)
    assert set(art.unmixings) == {2, 3}
    assert counts == [before, before]
    assert threading.active_count() == before
