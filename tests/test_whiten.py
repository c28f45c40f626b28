"""Tests for PCA whitening: fitting, application and serialization."""

import functools
import tracemalloc

import numpy as np
import pytest

from tailica.entropy import EntropyEstimatorConfig, mutual_information_proxy
from tailica.errors import DataError, NumericalError, ReductionWarning
from tailica.ica import ContrastSpec, fit_ica
from tailica.panel import SamplePanel
from tailica.whiten import (
    WhiteningTransform,
    _check_white,
    apply_whitening,
    fit_whitening,
    whitening_from_csv,
    whitening_to_csv,
)

from dated import dated_panel


panel_from = functools.partial(dated_panel, start="2019-01-01")


def correlated_panel(seed=61, m=400, n=6):
    rng = np.random.default_rng(seed)
    mixing = rng.standard_normal((n, n)) + np.eye(n) * 2.0
    return panel_from(rng.laplace(size=(m, n)) @ mixing.T + rng.uniform(-1, 1, n))


def test_training_panel_becomes_white():
    p = correlated_panel()
    t = fit_whitening(p, d=6)
    z = apply_whitening(t, p)
    assert np.abs(z.data.mean(axis=0)).max() < 1e-12
    cov = z.data.T @ z.data / z.m
    # the smallest eigenvalue is ~3e6 times below the largest here, so
    # whiteness holds to the conditioning limit rather than to roundoff
    assert np.abs(cov - np.eye(6)).max() < 1e-8


def test_eigenvalues_match_covariance_spectrum():
    p = correlated_panel(seed=62)
    t = fit_whitening(p, d=4)
    ref = np.linalg.eigvalsh(np.cov(p.data, rowvar=False, bias=True))[::-1]
    np.testing.assert_allclose(t.eigenvalues, ref[:4], rtol=1e-10)
    assert np.all(np.diff(t.eigenvalues) <= 0.0)


def test_projection_shape_and_ids():
    p = correlated_panel(seed=63)
    t = fit_whitening(p, d=3)
    assert (t.d, t.n) == (3, 6)
    z = apply_whitening(t, p)
    assert z.column_ids == ("pc_0001", "pc_0002", "pc_0003")
    assert z.row_ids == p.row_ids


@pytest.mark.parametrize("m, n, d", [(20_001, 6, 5), (16_385, 40, 40)])
def test_row_blocks_match_the_one_shot_product(m, n, d):
    # Evenly sized blocks: three of 6667 rows, and three of 5461-5462.
    # Blocks of 8192 rows would leave the second panel a 1-row block,
    # which BLAS rounds apart.
    rng = np.random.default_rng(m)
    p = panel_from(rng.standard_t(4, (m, n)) @ rng.standard_normal((n, n)) + 0.5)
    t = fit_whitening(p, d=d)
    z = apply_whitening(t, p)
    assert np.array_equal(z.data, (p.data - t.mean) @ t.projection.T)


def test_apply_holds_the_result_and_one_block():
    # A centered copy of the panel beside the result shows as 2x; one block
    # of centered rows and the panel's finiteness mask (an eighth) fit below.
    p = panel_from(np.random.default_rng(65).laplace(size=(150_000, 4)))
    t = fit_whitening(p, d=4)
    tracemalloc.start()
    try:
        z = apply_whitening(t, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * z.data.nbytes, peak / z.data.nbytes


def test_rank_deficiency_reduces_d_with_warning():
    rng = np.random.default_rng(64)
    base = rng.standard_normal((200, 2))
    # third column is an exact linear combination: covariance rank 2
    data = np.column_stack([base, base @ [0.5, -1.5]])
    p = panel_from(data)
    with pytest.warns(ReductionWarning):
        t = fit_whitening(p, d=3)
    assert t.d == 2
    z = apply_whitening(t, p)
    cov = z.data.T @ z.data / z.m
    assert np.abs(cov - np.eye(2)).max() < 1e-10


def test_reconstruction_at_full_rank():
    # With d = n the whitened panel retains all information: rebuilding
    # from the projection inverse reproduces the input to roundoff.
    p = correlated_panel(seed=65)
    t = fit_whitening(p, d=6)
    z = apply_whitening(t, p)
    back = z.data @ np.linalg.inv(t.projection.T) + t.mean
    scale = np.abs(p.data).max()
    assert np.abs(back - p.data).max() < 1e-9 * scale


def test_standardize_makes_fit_scale_invariant():
    p = correlated_panel(seed=66)
    scales = np.array([1.0, 100.0, 1e-4, 7.0, 0.02, 5e3])
    q = p.with_data(p.data * scales)
    a = apply_whitening(fit_whitening(p, d=6, standardize=True), p)
    b = apply_whitening(fit_whitening(q, d=6, standardize=True), q)
    assert np.abs(a.data - b.data).max() < 1e-8


def test_standardize_rejects_constant_column():
    data = np.ones((50, 2))
    data[:, 0] = np.linspace(-1, 1, 50)
    p = panel_from(data)
    with pytest.raises(DataError, match="constant"):
        fit_whitening(p, d=1, standardize=True)


@pytest.mark.parametrize("v", [0.1, 0.3, 7.7])
def test_a_constant_panel_is_read_from_the_data(v):
    # 400 copies of v do not sum to 400 v, so the covariance is rounding
    # noise (about 1e-30), not zero; constancy comes from the entries
    p = panel_from(np.full((400, 3), v) * [1.0, 3.0, 1.0])
    with pytest.raises(DataError, match="all-constant panel"):
        fit_whitening(p, d=3)
    with pytest.raises(DataError, match="column 'S0000' is constant; cannot standardize"):
        fit_whitening(p, d=3, standardize=True)


def test_one_constant_column_that_does_not_sum_exactly():
    p = panel_from(np.insert(np.random.default_rng(0).standard_normal((400, 2)), 1, 0.1, axis=1))
    with pytest.raises(DataError, match="column 'S0001' is constant; cannot standardize"):
        fit_whitening(p, d=3, standardize=True)
    with pytest.warns(ReductionWarning, match="reducing to d=2"):
        assert fit_whitening(p, d=3).d == 2


def test_a_large_constant_column_is_centred_at_its_value():
    # 400 copies of 1e10 + 0.1 average about 6e-5 off the value, which would
    # leave a variance of 4e-9 above the rank floor: a constant column is
    # centred at its value, so it drops out instead of whitening into a
    # constant component that the solver refuses as not white
    p = panel_from(np.insert(np.random.default_rng(0).standard_normal((400, 2)), 2, 1e10 + 0.1, axis=1))
    with pytest.warns(ReductionWarning, match="reducing to d=2"):
        white = fit_whitening(p, d=3)
    assert white.mean[2] == 1e10 + 0.1
    assert fit_ica(apply_whitening(white, p), ContrastSpec(2), seed=0).w.shape == (2, 2)


def test_the_whiteness_rule_refuses_an_overflow_without_a_warning():
    # the suite turns RuntimeWarning into an error, so a matmul overflow
    # warning ahead of the DataError would fail this test
    big = panel_from(np.random.default_rng(0).standard_normal((400, 2)) * 1e200)
    with pytest.raises(DataError, match=r"input is not white .*max \|cov - I\| = inf"):
        fit_ica(big, ContrastSpec(2), seed=0)
    with pytest.raises(DataError, match=r"input is not white .*max \|cov - I\| = inf"):
        mutual_information_proxy(big, EntropyEstimatorConfig())
    # means exactly zero, and products of +-2**1328 that BLAS may sum to
    # NaN off the diagonal (it does in this order with OpenBLAS): NaN is not white
    signs = np.repeat([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]], 100, axis=0)
    with pytest.raises(DataError, match="input is not white"):
        _check_white(panel_from(np.ldexp(np.random.default_rng(0).permutation(signs), 664)))


def test_fit_is_deterministic():
    p = correlated_panel(seed=67)
    a = fit_whitening(p, d=5)
    b = fit_whitening(p, d=5)
    assert np.array_equal(a.projection, b.projection)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.mean, b.mean)


def test_parameter_validation():
    p = correlated_panel(seed=68, m=20)
    with pytest.raises(ValueError):
        fit_whitening(p, d=0)
    with pytest.raises(ValueError):
        fit_whitening(p, d=7)
    with pytest.raises(DataError, match="all-constant panel"):
        fit_whitening(panel_from(np.ones((20, 3))), d=2)
    small = panel_from(np.random.default_rng(1).standard_normal((4, 6)))
    with pytest.raises(ValueError):
        fit_whitening(small, d=5)


def test_a_covariance_beyond_float64_is_a_numerical_error():
    # neither panel is constant; 2**700 used to fail in LAPACK as a usage
    # error and 2**-700 to read as an all-constant panel
    p = correlated_panel(seed=69)
    with pytest.raises(NumericalError, match="exceeds the float64 range"):
        fit_whitening(p.with_data(np.ldexp(p.data, 700)), d=4)
    with pytest.raises(NumericalError, match="underflows float64"):
        fit_whitening(p.with_data(np.ldexp(p.data, -700)), d=4)


@pytest.mark.parametrize("e", [700, -700])
def test_standardized_fit_whitens_at_any_scale(e):
    # the correlation matrix is in range whatever the panel's scale
    p = correlated_panel(seed=69)
    q = p.with_data(np.ldexp(p.data, e))
    want = apply_whitening(fit_whitening(p, d=4, standardize=True), p)
    got = apply_whitening(fit_whitening(q, d=4, standardize=True), q)
    assert np.array_equal(got.data, want.data)


def test_d_must_be_a_whole_number():
    # truncated, 2.5 would whiten to 2 columns
    p = correlated_panel(seed=68, m=200)
    with pytest.raises(ValueError, match="d must be an integer, got 2.5"):
        fit_whitening(p, 2.5)
    assert fit_whitening(p, 3.0).d == 3


def test_apply_rejects_mismatched_columns():
    p = correlated_panel(seed=69)
    t = fit_whitening(p, d=3)
    reordered = SamplePanel(p.data[:, ::-1], p.column_ids[::-1], p.row_ids)
    with pytest.raises(DataError, match="mismatch"):
        apply_whitening(t, reordered)
    narrower = panel_from(p.data[:, :4], p.column_ids[:4])
    with pytest.raises(DataError):
        apply_whitening(t, narrower)


def test_csv_round_trip_is_exact():
    p = correlated_panel(seed=70)
    t = fit_whitening(p, d=4)
    text = whitening_to_csv(t)
    assert text.startswith("tailica-whiten v1")
    back = whitening_from_csv(text)
    assert np.array_equal(back.projection, t.projection)
    assert np.array_equal(back.eigenvalues, t.eigenvalues)
    assert np.array_equal(back.mean, t.mean)
    assert back.column_ids == t.column_ids
    # same projection means bitwise identical whitened output
    a = apply_whitening(t, p)
    b = apply_whitening(back, p)
    assert np.array_equal(a.data, b.data)


def test_csv_rejects_tampered_input():
    p = correlated_panel(seed=71)
    t = fit_whitening(p, d=2)
    text = whitening_to_csv(t)
    with pytest.raises(DataError):
        whitening_from_csv("whiten v2\n" + text.split("\n", 1)[1])
    lines = text.strip().split("\n")
    missing = "\n".join(l for l in lines if not l.startswith("mean"))
    with pytest.raises(DataError):
        whitening_from_csv(missing)
    with pytest.raises(DataError, match="^bad whitening file: field larger than field limit"):
        whitening_from_csv(text.replace("columns,", "columns," + "x" * 200_000 + ",", 1))
    with pytest.raises(DataError, match="^unexpected block 'scale'"):
        whitening_from_csv(text.replace("mean,", "scale,1\nmean,", 1))
    with pytest.raises(DataError, match="^expected 2 projection rows, found 1"):
        whitening_from_csv("\n".join(lines[:-1]))
    with pytest.raises(DataError, match="^bad numeric field"):
        whitening_from_csv(text.replace("eigenvalues,", "eigenvalues,big,", 1))
    with pytest.raises(DataError, match="^projection rows have inconsistent width"):
        whitening_from_csv("\n".join(lines[:-2] + [row + ",0.5" for row in lines[-2:]]))


def test_csv_reader_takes_only_the_writers_layout():
    text = whitening_to_csv(fit_whitening(correlated_panel(seed=73), d=2))
    lines = text.strip().split("\n")
    with pytest.raises(DataError, match="^expected 2 projection rows, found 3$"):
        whitening_from_csv(text + lines[-1] + "\n")
    swapped = "\n".join([lines[0], lines[1], lines[3], lines[2], *lines[4:]])
    with pytest.raises(DataError, match="^unexpected block 'eigenvalues' in whitening file, expected 'mean'$"):
        whitening_from_csv(swapped)
    with pytest.raises(DataError, match="^whitening file ends before its 'projection' block$"):
        whitening_from_csv("\n".join(lines[:4]))
    with pytest.raises(DataError, match="^not a tailica-whiten v1 file$"):
        whitening_from_csv(text.replace("tailica-whiten v1", "tailica-whiten v1,extra", 1))
    back = whitening_from_csv("\ufeff" + text.replace("\n", "\n\n", 3))  # a mark and blank lines
    assert whitening_to_csv(back) == text


@pytest.mark.parametrize("header", ["projection,three,5", "projection,2", "projection,2,6,1"])
def test_malformed_projection_header_is_a_data_error(header):
    text = whitening_to_csv(fit_whitening(correlated_panel(seed=72), d=2))
    tampered = text.replace("projection,2,6", header)
    with pytest.raises(DataError, match=f"malformed projection header '{header}'"):
        whitening_from_csv(tampered)


def test_transform_validation():
    mean = np.zeros(3)
    proj = np.ones((2, 3))
    good_evals = np.array([2.0, 1.0])
    WhiteningTransform(mean, proj, good_evals, ("a", "b", "c"))
    with pytest.raises(DataError):
        WhiteningTransform(mean, proj, np.array([1.0, 2.0]), ("a", "b", "c"))
    with pytest.raises(DataError):
        WhiteningTransform(mean, proj, np.array([1.0, 0.0]), ("a", "b", "c"))
    with pytest.raises(DataError):
        WhiteningTransform(mean, proj, good_evals, ("a", "b"))
    with pytest.raises(DataError):
        WhiteningTransform(np.zeros(2), proj, good_evals, ("a", "b", "c"))
    with pytest.raises(DataError, match="projection must be 2-d"):
        WhiteningTransform(mean, np.ones(3), good_evals, ("a", "b", "c"))
    with pytest.raises(DataError, match="3 eigenvalues for 2 projection rows"):
        WhiteningTransform(mean, proj, np.array([3.0, 2.0, 1.0]), ("a", "b", "c"))
    with pytest.raises(DataError, match="non-finite"):
        WhiteningTransform(mean, np.full((2, 3), np.inf), good_evals, ("a", "b", "c"))


def test_transform_neither_freezes_nor_aliases_a_callers_arrays():
    p = np.eye(2)
    t = WhiteningTransform(np.zeros(2), p, np.array([2.0, 1.0]), ("a", "b"))
    assert p.flags.writeable
    assert not t.projection.flags.writeable
    base = np.eye(3)
    t = WhiteningTransform(np.zeros(3), base[:2], np.array([2.0, 1.0]), ("a", "b", "c"))
    base[0, 0] = 7.0
    assert t.projection[0, 0] == 1.0
    assert not any(a.flags.writeable for a in (t.mean, t.projection, t.eigenvalues))

