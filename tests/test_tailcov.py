"""Tests for tail covariance matrices and their max-overlap limit."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from tailica.errors import DataError, NumericalError
from tailica.panel import center
from tailica.tailcov import (
    TailCovarianceMatrix,
    tail_covariance,
    tail_covariance_to_csv,
)

from dated import dated_panel

DATES3 = ("2020-01-01", "2020-01-02", "2020-01-03")


panel_from = functools.partial(dated_panel, start="2020-01-01", names="c{}")


def test_tail_covariance_small_exact_case():
    # x = (1, 2, -3), y = (2, 1, 1), k = 2: entry (i, j) is the mean of
    # x_i * x_j^3, worked out by hand as [[98/3, 7/3], [-17/3, 6]].
    p = panel_from([[1.0, 2.0], [2.0, 1.0], [-3.0, 1.0]], ("x", "y"))
    tc = tail_covariance(p, 2, check_centered=False)
    assert tc.order_k == 2
    assert tc.component_ids == ("x", "y")
    assert tc.values[0, 0] == 98.0 / 3.0
    assert tc.values[0, 1] == 7.0 / 3.0
    assert tc.values[1, 0] == -17.0 / 3.0
    assert tc.values[1, 1] == 6.0


def test_order_one_is_plain_covariance():
    rng = np.random.default_rng(41)
    p = center(panel_from(rng.standard_t(df=4, size=(300, 5))))
    tc = tail_covariance(p, 1)
    ref = np.cov(p.data, rowvar=False, bias=True)
    scale = np.abs(ref).max()
    assert np.abs(tc.values - ref).max() < 1e-10 * scale
    # k=1 is the only symmetric order in general
    assert np.abs(tc.values - tc.values.T).max() < 1e-12 * scale


def test_matches_direct_mixed_moment_in_range():
    rng = np.random.default_rng(42)
    data = rng.standard_normal((50, 3))
    p = panel_from(data)
    for k in (1, 2, 3):
        tc = tail_covariance(p, k, check_centered=False)
        direct = data.T @ (data ** (2 * k - 1)) / data.shape[0]
        assert np.array_equal(tc.values, direct)


def test_power_of_two_scaling_is_exact():
    rng = np.random.default_rng(43)
    data = rng.standard_normal((40, 3))
    p = panel_from(data)
    q = panel_from(4.0 * data)
    k = 3
    a = tail_covariance(p, k, check_centered=False).values
    b = tail_covariance(q, k, check_centered=False).values
    assert np.array_equal(b, 4.0 ** (2 * k) * a)


def test_cross_scale_underflow_rescue_is_exact():
    # Column c1 lives near 2**-220, so its fifth powers underflow to zero
    # elementwise and direct evaluation loses the (c0, c1) mixed moment
    # entirely.  The true value 9374 * 2**-1041 is still representable
    # (subnormal) and the scaled path reproduces it bit for bit.
    big = np.array([math.ldexp(3, 60), -math.ldexp(1, 60)])
    tiny = np.array([math.ldexp(5, -220), math.ldexp(1, -220)])
    data = np.column_stack([big, tiny])
    with np.errstate(under="ignore"):
        direct = data.T @ data**5 / 2.0
    assert direct[0, 1] == 0.0
    tc = tail_covariance(panel_from(data, ("c0", "c1")), 3, check_centered=False)
    assert tc.values[0, 1] == math.ldexp(9374, -1041)


def test_intermediate_overflow_avoided():
    # 1.5**1751 overflows, so direct elementwise powers are infinite, but
    # the order-876 diagonal mean 1.5**1752 / 4 ~ 9.6e307 is in range.
    data = np.array(
        [[1.5, 1.25], [0.5, -0.75], [-0.5, 0.5], [0.25, 0.5]]
    )
    k = 876
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        direct = data ** (2 * k - 1)
    assert np.isinf(direct).any()
    tc = tail_covariance(panel_from(data), k, check_centered=False)
    assert np.all(np.isfinite(tc.values))
    want = float(Fraction(3**1752 * 2**1752 + 2**1753 + 1, 2**3506))
    assert tc.values[0, 0] == pytest.approx(want, rel=1e-12)


def test_high_order_limit_approaches_max_overlap():
    # Normalized tail covariance m * T_ij / x_inf(j)^(2k-2) converges to
    # the max-overlap matrix as k grows, provided each column's largest
    # absolute value strictly dominates its runner-up.
    rng = np.random.default_rng(44)
    data = rng.standard_normal((60, 4))
    # force strict dominance by a factor >= 1.3 in every column
    for j in range(4):
        i = np.argmax(np.abs(data[:, j]))
        data[i, j] *= 2.0
    p = panel_from(data)
    # entry (i, j): column i at column j's peak time, times that peak
    d = data.shape[1]
    t = np.abs(data).argmax(axis=0)
    ov = data[t, :].T * data[t, np.arange(d)]
    m = data.shape[0]
    col_inf = np.abs(data).max(axis=0)
    errs = []
    for k in (8, 16, 32):
        tc = tail_covariance(p, k, check_centered=False)
        approx = m * tc.values / col_inf[np.newaxis, :] ** (2 * k - 2)
        errs.append(np.abs(approx - ov).max())
    assert errs[2] < 1e-4
    assert errs[2] < errs[1] < errs[0]  # monotone in k


def test_centered_check_fires_and_clears():
    rng = np.random.default_rng(45)
    data = rng.standard_normal((100, 3)) + 0.5
    p = panel_from(data)
    with pytest.raises(DataError, match="center"):
        tail_covariance(p, 2)
    tc = tail_covariance(center(p), 2)
    assert np.all(np.isfinite(tc.values))


def test_order_must_be_positive():
    p = panel_from(np.ones((3, 2)) * [[1.0, -1.0], [0.0, 2.0], [-1.0, -1.0]])
    with pytest.raises(ValueError):
        tail_covariance(p, 0, check_centered=False)


def test_overflowing_tail_covariance_is_a_numerical_error():
    rng = np.random.default_rng(31)
    p = center(panel_from(rng.standard_normal((50, 3)) * 1e200))
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(NumericalError, match="k=2"):
            tail_covariance(p, 2, check_centered=False)


def test_centering_check_does_not_overflow():
    # Squaring data near 1e200 overflows; the check must still see the mean.
    rng = np.random.default_rng(31)
    p = panel_from((rng.standard_normal((50, 3)) + 1.0) * 1e200)
    with np.errstate(over="raise"):
        with pytest.raises(DataError, match="center"):
            tail_covariance(p, 2)
        with pytest.raises(NumericalError, match="k=2"):
            tail_covariance(center(p), 2)


def test_matrix_validation():
    with pytest.raises(DataError):
        TailCovarianceMatrix(2, np.ones((2, 3)), ("a", "b"))
    with pytest.raises(DataError):
        TailCovarianceMatrix(2, np.array([[np.inf]]), ("a",))
    tc = TailCovarianceMatrix(2, np.eye(2), ("a", "b"))
    with pytest.raises(ValueError):
        tc.values[0, 0] = 5.0
    assert tc.d == 2


def test_csv_serialization_round_trips_values():
    p = panel_from([[1.0, 2.0], [2.0, 1.0], [-3.0, 1.0]], ("x", "y"))
    tc = tail_covariance(p, 2, check_centered=False)
    text = tail_covariance_to_csv(tc)
    lines = text.strip().split("\n")
    assert lines[0] == "id,x,y"
    row_x = lines[1].split(",")
    assert row_x[0] == "x"
    assert float(row_x[1]) == tc.values[0, 0]  # repr-exact
    assert float(row_x[2]) == tc.values[0, 1]
