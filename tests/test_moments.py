"""Tests for high-order moment and signed-root summaries."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tailica.entropy import EntropyEstimatorConfig, entropy_moment_approximation, vasicek_entropy
from tailica.errors import DataError, TieWarning
from tailica.evaluate import run_experiment_artifacts
from tailica.ica import ContrastSpec
from tailica.moments import (
    _column_moments,
    _pow2_exponents,
    _scaled_powers,
    extremes,
    log_moment,
    moment,
    root_moment,
)
from tailica.panel import SamplePanel
from tailica.tailcov import tail_covariance


# Frozen reference values.  Each constant was computed through a route
# independent of the library: exact rational arithmetic where the inputs
# are small integers, and 60-digit arbitrary precision otherwise.
MOMENT_3_1_2_P3 = 11.333333333333334           # 34/3
ROOT_1_M2_HALF_P100 = 1.9781480083443415       # (sum/3)^(1/100)
ROOT_1_M2_HALF_P99 = -1.9779285035834093       # sign from the -2 extreme
ROOT_1E6_P128 = 994599.4234836332              # far outside naive float range
ROOT_1E300_P10 = 9.330329915368075e+299        # 1e3000 overflows long before this
ROOT_TIE_2_M2_1_P3 = 1.7828270804131212        # (17/3)^(1/3), tie resolved by magnitude
ROOT_M5_1_2_P3 = -3.381522214656514            # -(116/3)^(1/3)
LOG_MOMENT_3_1_K2 = 3.713572066704308          # ln(41)
LOG_MOMENT_HUGE_K5 = 6907.062131801677         # ln((1e3000 + 1e2990)/2)
LOG_MOMENT_MIX_K50 = 1379.9416178839933        # five-point panel, order 100


def test_moment_small_integer_case():
    assert moment([3.0, -1.0, 2.0], 3) == MOMENT_3_1_2_P3


def signed_magnitude_power(x, p):
    """``abs(x) ** p`` with the sign of ``x`` for odd ``p``: the direct form."""
    powers = np.abs(x) ** p
    return np.copysign(powers, x) if p % 2 == 1 else powers


def test_moment_matches_direct_mean_in_range():
    rng = np.random.default_rng(7)
    x = rng.standard_t(df=4, size=400)
    for p in (2, 3, 6, 11):
        assert moment(x, p) == np.mean(signed_magnitude_power(x, p))


def test_signed_and_magnitude_powers_differ_by_at_most_one_ulp():
    # x ** p and the direct form are the same real number, rounded apart in
    # a few percent of elements (16 of 400 at p = 3 in the test above)
    rng = np.random.default_rng(8)
    x = rng.standard_t(df=4, size=20_000)
    x = np.ldexp(x, -_pow2_exponents(x))  # ratios in (-1, 1), as the kernel powers
    for p in (*range(2, 40), 57, 116, 233, 2000, 2001):
        signed, direct = x**p, signed_magnitude_power(x, p)
        near = (signed == direct) | (np.nextafter(signed, np.inf) == direct)
        near |= np.nextafter(signed, -np.inf) == direct
        assert near.all(), p
        assert np.array_equal(np.signbit(signed), np.signbit(direct)), p


def test_moment_overflow_saturates_to_inf():
    # 1e300**10 is far beyond the float range and there is no cancellation
    # to rescue, so the mean itself is infinite.
    assert moment([1e300, 1.0], 10) == math.inf


def test_moment_extreme_order_unit_scale():
    assert moment([1.0, -1.0], 2000) == 1.0


def test_moment_underflow_rescued_by_scaling():
    # 0.5**2000 underflows to zero in direct arithmetic; the scaled path
    # must still report the exact mean of {1, 0.5**2000} ~ 0.5.
    assert moment([1.0, 0.5], 2000) == 0.5


def test_moment_all_zero_sample():
    assert moment([0.0, 0.0, 0.0], 5) == 0.0


def test_root_moment_even_order():
    assert root_moment([1.0, -2.0, 0.5], 100) == ROOT_1_M2_HALF_P100


def test_root_moment_odd_order_negative_extreme():
    assert root_moment([1.0, -2.0, 0.5], 99) == ROOT_1_M2_HALF_P99


def test_root_moment_large_scale():
    assert root_moment([1e6, 2.0], 128) == ROOT_1E6_P128


def test_root_moment_near_float_limit():
    assert root_moment([1e300, 1.0], 10) == ROOT_1E300_P10


def test_root_moment_odd_tie_warns_and_uses_magnitude():
    with pytest.warns(TieWarning):
        got = root_moment([2.0, -2.0, 1.0], 3)
    assert got == ROOT_TIE_2_M2_1_P3


def test_root_moment_odd_negative_dominant():
    assert root_moment([-5.0, 1.0, 2.0], 3) == pytest.approx(
        ROOT_M5_1_2_P3, rel=1e-15
    )


def test_root_moment_odd_exact_cancellation():
    # Equal-magnitude opposite extremes at odd order: the signed mean is
    # zero, the tie path takes over and returns the magnitude summary.
    with pytest.warns(TieWarning):
        got = root_moment([1.0, -1.0], 2001)
    assert got == 1.0


def test_root_moment_power_of_two_scale_equivariance():
    rng = np.random.default_rng(21)
    x = rng.laplace(size=300)
    base = root_moment(x, 12)
    # scaling by an exact power of two must commute bitwise
    assert root_moment(4.0 * x, 12) == 4.0 * base
    assert root_moment(x / 8.0, 12) == base / 8.0


def test_root_moment_general_scale_equivariance():
    rng = np.random.default_rng(22)
    x = rng.standard_t(df=3, size=500)
    base = root_moment(x, 8)
    got = root_moment(1.7 * x, 8)
    assert got == pytest.approx(1.7 * base, rel=1e-12)


def test_root_moment_bracketed_by_extreme():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(250)
    x_inf = np.max(np.abs(x))
    m = x.size
    for p in (10, 40, 200):
        r = abs(root_moment(x, p))
        assert x_inf * m ** (-1.0 / p) <= r <= x_inf * (1 + 1e-12)


def test_root_moment_monotone_in_even_order():
    rng = np.random.default_rng(24)
    x = rng.standard_t(df=4, size=600)
    values = [root_moment(x, p) for p in (2, 4, 8, 16, 64, 256)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo * (1 - 1e-12)


def test_root_moment_acts_as_tail_filter():
    # One injected outlier should control the order-64 summary almost
    # completely while leaving the order-2 summary near the bulk scale.
    rng = np.random.default_rng(25)
    x = rng.standard_normal(2000)
    x[100] = 50.0
    r2 = root_moment(x, 2)
    r64 = root_moment(x, 64)
    assert r2 < 2.0
    assert r64 > 0.8 * 50.0


def test_log_moment_small_case():
    assert log_moment([3.0, 1.0], 2) == LOG_MOMENT_3_1_K2


def test_log_moment_far_outside_float_range():
    assert log_moment([1e300, 1e299], 5) == pytest.approx(
        LOG_MOMENT_HUGE_K5, rel=1e-15
    )


def test_log_moment_mixed_magnitudes():
    x = [1e6, -3.25e5, 1024.5, -7.0, 0.125]
    assert log_moment(x, 50) == LOG_MOMENT_MIX_K50


def test_log_moment_consistent_with_moment():
    rng = np.random.default_rng(26)
    x = rng.standard_t(df=5, size=300)
    for k in (1, 2, 5):
        assert math.exp(log_moment(x, k)) == pytest.approx(
            moment(x, 2 * k), rel=1e-9
        )


def test_extremes_reports_signed_and_absolute():
    ext = extremes([1.0, -2.0, 0.5])
    assert (ext.x_max, ext.x_min, ext.x_inf) == (1.0, -2.0, 2.0)
    ext = extremes([-1.0, -3.0])
    assert (ext.x_max, ext.x_min, ext.x_inf) == (-1.0, -3.0, 3.0)
    ext = extremes([4.0])
    assert (ext.x_max, ext.x_min, ext.x_inf) == (4.0, 4.0, 4.0)


def test_moment_rejects_empty_sample():
    with pytest.raises(DataError):
        moment([], 2)


def test_moment_rejects_non_finite():
    with pytest.raises(DataError):
        moment([1.0, math.nan], 2)
    with pytest.raises(DataError):
        root_moment([1.0, math.inf], 4)


def test_moment_rejects_order_below_one():
    with pytest.raises(ValueError):
        moment([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        root_moment([1.0, 2.0], -3)


def test_every_order_entry_point_takes_integers_only():
    x = [1.0, -2.0, 0.5, 3.0, -1.5]
    panel = SamplePanel(np.array([[1.0, -1.0], [0.0, 2.0], [-1.0, -1.0]]), ("a", "b"),
                        ("2020-01-01", "2020-01-02", "2020-01-03"))  # fmt: skip
    orders = {
        "moment": lambda p: moment(x, p),
        "root_moment": lambda p: root_moment(x, p),
        "log_moment": lambda p: log_moment(x, p),
        "ContrastSpec": lambda p: ContrastSpec(p).k,
        "tail_covariance": lambda p: tail_covariance(panel, p, check_centered=False).values,
        "entropy_moment_approximation k": lambda p: entropy_moment_approximation(x, p, 1),
        "entropy_moment_approximation n": lambda p: entropy_moment_approximation(x, 2, p),
        "EntropyEstimatorConfig": lambda p: EntropyEstimatorConfig("vasicek", p).window_n,
        "vasicek_entropy": lambda p: vasicek_entropy(x, p).value,
    }
    for name, call in orders.items():
        with pytest.raises(ValueError, match="must be an integer, got 2.5$"):
            call(2.5)
        with pytest.raises(ValueError, match="must be >= 1, got 0$"):
            call(0)
        assert np.array_equal(call(2.0), call(2)), name
    with pytest.raises(ValueError, match="contrast order k must be an integer"):
        run_experiment_artifacts(panel, "2020-01-02", d=1, k_list=[2, 2.5])


def test_log_moment_rejects_all_zero():
    with pytest.raises(DataError):
        log_moment([0.0, 0.0], 3)


def test_warnings_do_not_fire_without_tie():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root_moment([1.0, -2.0, 0.5], 99)
        root_moment([3.0, 1.0], 7)


def test_pow2_scale_matches_the_abs_max_form():
    # max(x.max(0), -x.min(0)) is the max-abs value, so exponents and ratios
    # are the bits of the np.abs(x).max(axis=0) form.
    rng = np.random.default_rng(31)
    x = rng.uniform(-1.0, 1.0, size=(300, 4)) * np.array([1.0, 7.5, 3e-310, 1e200])
    x[:, 0] = -0.0  # a zero column, signed zeros included
    x[::2, 0] = 0.0
    x[:, 1] = -np.abs(x[:, 1])  # negative-dominated
    x[7, 1] = 0.5
    x[:5, 3] = [5e-324, -5e-324, 1e-310, -2.2e-308, 0.0]  # subnormal entries
    for sample in (x, x[:, 1], x[:, 2], np.asfortranarray(x)):
        col_inf = np.abs(sample).max(axis=0)
        _, want_exp2 = np.frexp(col_inf)
        want_exp2 = np.where(col_inf > 0.0, want_exp2, 0)
        want = np.ldexp(sample, -want_exp2)
        ratios, exp2 = _scaled_powers(sample, 1)
        assert np.array_equal(exp2, want_exp2)
        assert np.array_equal(ratios, want)
        assert np.array_equal(np.signbit(ratios), np.signbit(want))


def mixed_sign_panel(m=400):
    """Mixed-sign columns with signed zeros, subnormals and an all-negative column."""
    rng = np.random.default_rng(32)
    x = rng.standard_t(df=4, size=(m, 5)) * np.array([1.0, 1e-3, 3e-310, 1e200, 2.5])
    x[::3, 0] = 0.0
    x[1::3, 0] = -0.0
    x[:6, 1] = [5e-324, -5e-324, -1e-310, 2.2e-308, -0.0, 0.0]  # subnormal entries
    x[:, 4] = -np.abs(x[:, 4])  # all negative
    return x


@pytest.mark.parametrize("p", [1, 2, 3, 4, 19, 20, 116, 2001])
def test_scaled_powers_are_the_direct_form_of_the_ratios(p):
    x = mixed_sign_panel()
    for sample in (x, np.asfortranarray(x)):
        exp2 = _pow2_exponents(sample)
        ratios = np.ldexp(sample, -exp2)
        want = signed_magnitude_power(ratios, p)  # the ratios themselves at p = 1
        assert p > 1 or np.array_equal(want, ratios)
        powers, got_exp2 = _scaled_powers(sample, p)
        assert np.array_equal(got_exp2, exp2)
        assert np.array_equal(powers, want)
        assert np.array_equal(np.signbit(powers), np.signbit(want))
        if p % 2 == 1:  # a -0.0 stays -0.0
            assert np.array_equal(np.signbit(powers), np.signbit(sample))


def test_scaled_powers_allocate_only_their_result():
    x = np.random.default_rng(34).standard_t(df=4, size=(100_000, 30))
    for sample in (x, np.asfortranarray(x)):
        for p in (3, 4):
            tracemalloc.start()
            _scaled_powers(sample, p)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= 1.01 * sample.nbytes, (p, peak / sample.nbytes)


def kernel_columns(m=9000):
    """Columns for the column kernel: each exercises one branch of the 1-d path."""
    rng = np.random.default_rng(33)
    x = np.empty((m, 6))
    x[:, 0] = 0.0  # all zero
    x[:, 1] = rng.uniform(-0.5, 0.5, m)  # every ratio at most 1/2: high orders underflow
    x[0, 1] = 1.0
    x[:, 2] = rng.standard_t(df=3, size=m)  # max and min exact opposites
    x[5, 2], x[9, 2] = 40.0, -40.0
    x[:, 3] = 2.5  # constant, nonzero
    x[:, 4] = rng.choice([-1.5, 0.25, 0.25, 3.0], size=m)  # tied values
    x[:, 5] = rng.standard_t(df=4, size=m) * 1e-3
    return x


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 10, 20, 2000, 2001])
def test_column_kernel_matches_the_one_column_functions(p):
    x = kernel_columns()
    assert _scaled_powers(x[:, 1:2], 2000)[0].mean(axis=0)[0] == 0.0  # the rescue path is taken
    d = x.shape[1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        roots = _column_moments(x, p, root=True)
    assert any(w.category is TieWarning for w in caught) == (p % 2 == 1)
    moments = _column_moments(x, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TieWarning)
        want_roots = [root_moment(x[:, j], p) for j in range(d)]
    assert roots == want_roots
    assert moments == [moment(x[:, j], p) for j in range(d)]


@pytest.mark.parametrize("p", [1, 2, 4, 10, 57])
def test_power_means_sum_each_column_as_a_contiguous_sample(p):
    # an F-ordered reduction sums each column pairwise, as np.mean does a
    # 1-d array, across pairwise blocks (9000 rows) and on C-ordered input
    x = kernel_columns()
    powers, exp2 = _scaled_powers(x, p)
    means = powers.mean(axis=0)
    for j in range(x.shape[1]):
        e = _pow2_exponents(x[:, j])
        ratios = np.ldexp(x[:, j], -e)
        assert exp2[j] == e
        assert means[j] == np.mean(ratios**p)
    assert np.array_equal(_scaled_powers(np.asfortranarray(x), p)[0].mean(axis=0), means)
