"""Tests for the spacing-based differential entropy estimators."""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy.stats import differential_entropy

import tailica.entropy as entropy_module
from tailica.entropy import (
    EntropyEstimate,
    EntropyEstimatorConfig,
    correa_entropy,
    default_window,
    ebrahimi_entropy,
    entropy_moment_approximation,
    estimate_entropy,
    mutual_information_proxy,
    vasicek_entropy,
)
from tailica.errors import DataError, TieWarning

from dated import dated_panel

# Frozen references for the sample (1, 2, 4, 8, 16) with window 1.  The
# clamped spacings are (1, 3, 6, 12, 8); every value below was computed
# by hand from those integers and checked at 60-digit precision.
HAND_SAMPLE = [1.0, 2.0, 4.0, 8.0, 16.0]
HAND_VASICEK = 2.1579635654507583
HAND_EBRAHIMI = 2.6844935939709336
HAND_CORREA = 2.5441281372301927

GAUSS_ENTROPY = 1.4189385332046727   # ln sqrt(2 pi e)
LAPLACE_ENTROPY = 1.6931471805599454  # 1 + ln 2

# spike-dominated sample (-2, 2, 0.1, -0.1), k=20, window 1
MOMENT_LINK_VALUE = 1.626766591948099


def test_vasicek_hand_case():
    est = vasicek_entropy(HAND_SAMPLE, 1)
    assert est.value == pytest.approx(HAND_VASICEK, abs=1e-12)
    assert (est.method, est.window_n, est.m) == ("vasicek", 1, 5)


def test_ebrahimi_hand_case():
    est = ebrahimi_entropy(HAND_SAMPLE, 1)
    assert est.value == pytest.approx(HAND_EBRAHIMI, abs=1e-12)


def test_correa_hand_case():
    est = correa_entropy(HAND_SAMPLE, 1)
    assert est.value == pytest.approx(HAND_CORREA, abs=1e-12)


# float.hex of (vasicek, ebrahimi, correa) on 500 t(4) draws (seed 25), raw
# and rounded to 3 decimals (23 ties, none filling a window), per window.
# Recorded with numpy 2.4 on x86-64; the same with AVX-512 and AVX2 disabled.
PINNED_BITS = {
    ("raw", None): ("0x1.bbf798893be29p+0", "0x1.c39cfc7e951b8p+0", "0x1.c51c68de71d4cp+0"),
    ("raw", 2): ("0x1.965a6effb56c1p+0", "0x1.97a8a9f293c1ep+0", "0x1.b1aca2f08f4eep+0"),
    ("rounded", None): ("0x1.bbf69e5bbc9fdp+0", "0x1.c39c01d0fe8d5p+0", "0x1.c51e4d6c36083p+0"),
    ("rounded", 2): ("0x1.96492d8541362p+0", "0x1.97975fa25fd37p+0", "0x1.b1e5885ddc554p+0"),
}


def test_estimates_keep_their_bits():
    x = np.random.default_rng(25).standard_t(4.0, 500)
    samples = {"raw": x, "rounded": np.round(x, 3)}
    for (kind, n), bits in PINNED_BITS.items():
        got = tuple(fn(samples[kind], n).value.hex() for fn in (vasicek_entropy, ebrahimi_entropy, correa_entropy))
        assert got == bits, (kind, n)


def test_order_does_not_matter():
    shuffled = [8.0, 1.0, 16.0, 2.0, 4.0]
    assert vasicek_entropy(shuffled, 1).value == vasicek_entropy(HAND_SAMPLE, 1).value


def test_vasicek_relates_to_scipy():
    # scipy's vasicek divides by m and uses plain m/(2n) inside the log;
    # ours uses m+1 in both spots, so the two are linked by an exact
    # affine identity.
    rng = np.random.default_rng(51)
    x = rng.standard_normal(400)
    n = default_window(x.size)
    m = x.size
    ours = vasicek_entropy(x, n).value
    ref = differential_entropy(x, window_length=n, method="vasicek")
    bridged = (m / (m + 1)) * (ref + math.log((m + 1) / m))
    assert ours == pytest.approx(bridged, rel=1e-12)


@pytest.mark.parametrize("method", ["ebrahimi", "correa"])
def test_matches_scipy_exactly(method):
    rng = np.random.default_rng(52)
    x = rng.laplace(size=500)
    n = 11
    est = estimate_entropy(x, EntropyEstimatorConfig(method, n))
    ref = differential_entropy(x, window_length=n, method=method)
    assert est.value == pytest.approx(float(ref), rel=1e-10)


@pytest.mark.parametrize(
    "sampler,true_h",
    [
        (lambda rng, m: rng.standard_normal(m), GAUSS_ENTROPY),
        (lambda rng, m: rng.uniform(0.0, 1.0, m), 0.0),
        (lambda rng, m: rng.laplace(0.0, 1.0, m), LAPLACE_ENTROPY),
    ],
)
def test_estimators_are_consistent(sampler, true_h):
    rng = np.random.default_rng(53)
    x = sampler(rng, 4000)
    for method in ("vasicek", "ebrahimi", "correa"):
        est = estimate_entropy(x, EntropyEstimatorConfig(method))
        assert est.value == pytest.approx(true_h, abs=0.06)


def test_location_invariance():
    rng = np.random.default_rng(54)
    x = rng.standard_normal(300)
    a = correa_entropy(x, 9).value
    b = correa_entropy(x + 123.5, 9).value
    assert a == pytest.approx(b, abs=1e-9)


def test_scale_covariance():
    # Scaling the sample by c shifts every log spacing by ln c.  Ebrahimi
    # and correa average m such terms, giving exactly +ln c; vasicek
    # averages the m terms with weight 1/(m+1), giving +(m/(m+1)) ln c.
    rng = np.random.default_rng(55)
    x = rng.standard_normal(300)
    m = x.size
    c = 7.25
    assert vasicek_entropy(c * x, 9).value == pytest.approx(
        vasicek_entropy(x, 9).value + m / (m + 1) * math.log(c), abs=1e-12
    )
    for fn in (ebrahimi_entropy, correa_entropy):
        assert fn(c * x, 9).value == pytest.approx(
            fn(x, 9).value + math.log(c), abs=1e-9
        )


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e300])
def test_correa_is_scale_covariant_at_any_finite_scale(scale):
    # unscaled, the windowed squares overflowed from about 1e154 to a NaN
    z = np.random.default_rng(0).standard_normal(500)
    expected = correa_entropy(z).value + math.log(scale)
    assert correa_entropy(z * scale).value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(("fn", "scale"), [(ebrahimi_entropy, 1e306), (vasicek_entropy, 1e307)])
def test_a_non_finite_estimate_is_an_error(fn, scale):
    z = np.random.default_rng(0).standard_normal(500)
    with np.errstate(over="ignore"):
        with pytest.raises(DataError, match="is inf: its window spacings leave float64's range$"):
            fn(z * scale)
    with pytest.raises(DataError, match="^correa entropy is nan"):
        EntropyEstimate(math.nan, "correa", 1, 3)


def test_default_window_is_sqrt():
    assert default_window(100) == 10
    assert default_window(99) == 9
    assert default_window(3) == 1
    est = vasicek_entropy(list(range(150)), None)
    assert est.window_n == 12


def test_ties_that_fill_no_window_estimate_without_a_warning():
    x = [1.0, 2.0, 2.0, 3.0, 5.0, 8.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", TieWarning)
        est = vasicek_entropy(x, 1)
    assert math.isfinite(est.value)


def _reference_prepare(sample, n):
    """``entropy._prepare`` with the one-ulp tie rule it once applied, kept as
    its reference: each tied value moved one float step above the one before."""
    x = entropy_module._as_sample(sample)
    if x.size < 3:
        raise DataError(f"entropy estimation needs at least 3 observations, got {x.size}")
    m = x.size
    n = entropy_module._window(m, n)
    xs = np.sort(x)
    if xs[0] == xs[-1]:
        raise DataError("constant sample: differential entropy undefined")
    xp = np.concatenate([np.repeat(xs[:1], n), xs, np.repeat(xs[-1:], n)])
    if np.any(xp[2 * n :] - xp[:m] == 0.0):
        raise DataError("one value fills a spacing window; sample too degenerate")
    xs = xp[n : n + m]  # moved in place; the top padding then takes its last value
    for i in range(1, m):
        if xs[i] <= xs[i - 1]:
            xs[i] = np.nextafter(xs[i - 1], np.inf)
    xp[n + m :] = xs[-1]
    return xp, xp[2 * n :] - xp[:m], m, n


def _rounded_returns(rng):
    """A return-like sample with ties: t draws scaled 1e-3 to 10, offset 0 or
    1, rounded to 0-6 decimals, with up to 10% of its values +0.0 or -0.0."""
    m = int(rng.integers(20, 600))
    x = rng.standard_t(float(rng.uniform(2.5, 8.0)), m) * 10.0 ** rng.uniform(-3.0, 1.0)
    x = np.round(x + float(rng.integers(2)), int(rng.integers(7)))
    zeros = rng.random(m) < rng.uniform(0.0, 0.1)
    x[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return x


def _entropy_outcome(fn, x):
    try:
        return "ok", fn(x).value
    except DataError as exc:
        return "error", str(exc)


def test_ties_used_as_they_are_match_the_one_ulp_reference(monkeypatch):
    # The spacing-window check refuses every sample in which a tie could make
    # a spacing zero, so moving the remaining ties apart changed no outcome.
    # Correa's windowed prefix sums cancel: on a tight cluster beside an
    # atom of zeros its float64 value is up to 2e-8 from a long-double
    # evaluation, while the ulp moves shift the exact value by under 4e-12.
    rng = np.random.default_rng(21)
    rel = {vasicek_entropy: 1e-9, ebrahimi_entropy: 1e-9, correa_entropy: 1e-8}
    kinds = set()
    for case in range(1500):
        x = _rounded_returns(rng)
        for fn in (vasicek_entropy, ebrahimi_entropy, correa_entropy):
            got = _entropy_outcome(fn, x)
            with monkeypatch.context() as patch:
                patch.setattr(entropy_module, "_prepare", _reference_prepare)
                expected = _entropy_outcome(fn, x)
            assert got[0] == expected[0], (case, fn.__name__, got, expected)
            if got[0] == "ok":
                tol = rel[fn] * max(1.0, abs(got[1]))
                assert got[1] == pytest.approx(expected[1], rel=0, abs=tol), (case, fn.__name__)
            else:
                assert got[1] == expected[1], (case, fn.__name__)
            kinds.add(got[0])
    assert kinds == {"ok", "error"}


@pytest.mark.parametrize("fn", [vasicek_entropy, ebrahimi_entropy, correa_entropy])
def test_a_run_of_n_at_either_end_estimates_and_n_plus_one_is_an_error(fn):
    # The clamped first window spans x_(1)..x_(n+1), the last x_(m-n)..x_(m).
    x = np.random.default_rng(22).standard_normal(400)
    n = default_window(x.size)
    xs = np.sort(x)
    for run in (n, n + 1):
        low = xs.copy()
        low[:run] = low[0]
        high = xs.copy()
        high[-run:] = high[-1]
        for sample in (low, high):
            if run == n:
                assert math.isfinite(fn(sample).value)
            else:
                with pytest.raises(DataError, match="sample too degenerate$"):
                    fn(sample)


@pytest.mark.parametrize("fn", [vasicek_entropy, ebrahimi_entropy, correa_entropy])
def test_an_atom_that_fills_a_spacing_window_is_an_error(fn):
    # 250 or more zeros among 2500 draws fill whole windows of 2n + 1 = 101
    # order statistics; the one-ulp tie rule used to turn them into
    # subnormal spacings and vasicek estimates of -42.6 to -263.8 nats.
    # Ties that fill no window are used as they are.
    def sample(frac):
        x = np.random.default_rng(0).standard_t(4, 2500)
        x[: int(frac * x.size)] = 0.0
        return x

    for frac in (0.1, 0.2, 0.4):
        with pytest.raises(DataError, match="sample too degenerate$"):
            fn(sample(frac))
    with warnings.catch_warnings():  # 2% zeros fill no window: an estimate
        warnings.simplefilter("error", TieWarning)
        assert 1.6 < fn(sample(0.02)).value < 1.75


@pytest.mark.parametrize("fn", [vasicek_entropy, ebrahimi_entropy, correa_entropy])
def test_a_subnormal_spacing_window_is_an_error(fn):
    # 75 draws each at 5e-324, -5e-324 and 0.0 fill no window of 101 order
    # statistics but give 125 subnormal spacings; vasicek read -35.4 nats
    x = np.random.default_rng(0).standard_t(4, 2500)
    x[:75], x[75:150], x[150:225] = 5e-324, -5e-324, 0.0
    with pytest.raises(DataError, match="^a window spacing is subnormal; sample too degenerate$"):
        fn(x)


def test_constant_sample_is_error():
    with pytest.raises(DataError):
        vasicek_entropy([3.0, 3.0, 3.0, 3.0], 1)


def test_too_small_sample_is_error():
    with pytest.raises(DataError):
        correa_entropy([1.0, 2.0], 1)


def test_window_too_large_is_error():
    with pytest.raises(ValueError):
        vasicek_entropy([1.0, 2.0, 3.0, 4.0], 2)


def test_non_finite_sample_is_error():
    with pytest.raises(DataError):
        ebrahimi_entropy([1.0, np.nan, 2.0, 3.0], 1)


def test_config_validation():
    with pytest.raises(ValueError):
        EntropyEstimatorConfig("parzen")
    with pytest.raises(ValueError):
        EntropyEstimatorConfig("correa", 0)
    cfg = EntropyEstimatorConfig()
    assert cfg.method == "correa"
    assert cfg.window_n is None


def test_moment_link_hand_case():
    got = entropy_moment_approximation([-2.0, 2.0, 0.1, -0.1], 20, 1)
    assert got == pytest.approx(MOMENT_LINK_VALUE, abs=1e-12)


def test_moment_link_bad_sample_is_a_data_error():
    # the sample is checked before the window, as the estimators do
    for bad in ([], [1.0, float("nan"), 2.0], [[]]):
        with pytest.raises(DataError):
            entropy_moment_approximation(bad, 2)
    with pytest.raises(DataError, match="empty sample"):
        entropy_moment_approximation([], 2, n=0)
    with pytest.raises(ValueError, match="window must be >= 1"):
        entropy_moment_approximation([1.0, 2.0, 3.0], 2, n=0)


def test_moment_link_brackets_the_extreme():
    # The 2k-th root of the moment sits between x_inf/m^(1/2k) and x_inf,
    # so the approximation is pinned to ln((m+1) x_inf / (2n)) within a
    # band of width ln(m)/(2k) that closes as k grows.
    rng = np.random.default_rng(56)
    x = rng.standard_t(df=3, size=700)
    n = default_window(x.size)
    m = x.size
    env = math.log((m + 1) * np.abs(x).max() / (2 * n))
    for k in (8, 32, 128):
        approx = entropy_moment_approximation(x, k, n)
        assert env - 1e-12 <= approx <= env + math.log(m) / (2 * k) + 1e-12


def test_moment_link_upper_bounds_vasicek():
    # Every spacing is at most 2 x_inf, which bounds the vasicek sum by
    # the moment approximation plus ln 2; equality pressure comes only
    # from samples whose extreme sets the scale of every window.
    rng = np.random.default_rng(57)
    for x in (
        rng.standard_normal(900),
        rng.laplace(size=1200),
        rng.standard_t(df=3, size=700),
        rng.uniform(-1.0, 1.0, 500),
    ):
        n = default_window(x.size)
        h = vasicek_entropy(x, n).value
        approx = entropy_moment_approximation(x, 32, n)
        assert h <= approx + math.log(2.0)


def test_moment_link_window_validation():
    with pytest.raises(ValueError):
        entropy_moment_approximation([1.0, 2.0, 3.0], 4, 5)
    with pytest.raises(ValueError, match="window must be >= 1, got 0"):
        entropy_moment_approximation([1.0, 2.0, 3.0], 4, 0)


make_component_panel = functools.partial(dated_panel, start="2021-01-01", names="ic_{:04d}")


def _whiten_columns(data):
    # centre, then multiply by V diag(lambda^-1/2) V' of the covariance
    data = data - data.mean(axis=0)
    lam, v = np.linalg.eigh(data.T @ data / len(data))
    return data @ (v / np.sqrt(lam)) @ v.T


def test_mutual_information_prefers_independent_axes():
    # Rotating two independent Laplace columns by 45 degrees mixes them;
    # the marginal entropy sum must be larger for the mixture.
    rng = np.random.default_rng(57)
    s = rng.laplace(size=(4000, 2))
    theta = np.pi / 4
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    cfg = EntropyEstimatorConfig("vasicek")
    h_ind = mutual_information_proxy(
        make_component_panel(_whiten_columns(s)), cfg
    )
    h_mix = mutual_information_proxy(
        make_component_panel(_whiten_columns(s @ rot.T)), cfg
    )
    assert h_ind < h_mix


def test_mutual_information_requires_whitened_input():
    rng = np.random.default_rng(58)
    raw = rng.standard_normal((200, 2)) * 3.0 + 1.0
    with pytest.raises(DataError, match="input is not white"):
        mutual_information_proxy(make_component_panel(raw), EntropyEstimatorConfig())
    centered = raw - raw.mean(axis=0)
    with pytest.raises(DataError, match="input is not white"):
        mutual_information_proxy(
            make_component_panel(centered), EntropyEstimatorConfig()
        )


def test_mutual_information_refuses_a_correlated_unit_variance_panel():
    # each column is centred with unit variance, but they correlate at 0.6:
    # the proxy applies the unmixing search's whiteness rule, not a per-column one
    rng = np.random.default_rng(59)
    data = rng.standard_normal((2000, 2)) @ np.linalg.cholesky([[1.0, 0.6], [0.6, 1.0]]).T
    data -= data.mean(axis=0)
    data /= np.sqrt((data**2).mean(axis=0))
    assert np.abs(data.mean(axis=0)).max() < 1e-12
    assert np.abs((data**2).mean(axis=0) - 1.0).max() < 1e-12
    with pytest.raises(DataError, match=r"input is not white .*max \|cov - I\| = [56]\."):
        mutual_information_proxy(make_component_panel(data), EntropyEstimatorConfig())
