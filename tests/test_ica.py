"""Tests for the fixed-point unmixing search and its diagnostics."""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import tailica.ica as ica_module
from tailica.errors import DataError, NumericalError
from tailica.evaluate import SyntheticMarketSpec, generate_market
from tailica.ica import (
    ContrastSpec,
    KktResidual,
    UnmixingMatrix,
    amari_index,
    fit_ica,
    kkt_residual,
    transform,
    unmixing_from_csv,
    unmixing_to_csv,
)
from tailica.moments import _pow2_exponents
from tailica.panel import split_buckets
from tailica.tailcov import tail_covariance
from tailica.whiten import _fix_signs, apply_whitening, fit_whitening

from dated import dated_panel


panel_from = functools.partial(dated_panel, start="1990-01-01")


def whitened(data):
    p = panel_from(data)
    t = fit_whitening(p, d=data.shape[1])
    return apply_whitening(t, p), t


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_contrast_validation():
    with pytest.raises(ValueError):
        ContrastSpec(0)
    assert ContrastSpec(2).k == 2


def test_unmixing_matrix_validation():
    with pytest.raises(DataError):
        UnmixingMatrix(np.ones((2, 3)), 2, 0, 1, True)
    with pytest.raises(DataError):
        UnmixingMatrix(np.full((2, 2), np.nan), 2, 0, 1, True)
    with pytest.raises(DataError):
        UnmixingMatrix(np.ones((2, 2)), 2, 0, 1, True)  # not orthonormal
    w = UnmixingMatrix(np.eye(3), 2, 0, 1, True)
    assert w.d == 3
    with pytest.raises(ValueError):
        w.w[0, 0] = 2.0


def test_quadratic_contrast_on_white_data_is_stationary():
    # With k=1 the update is (cov - I) w, which vanishes identically on
    # sample-whitened data, so the fit stops immediately.
    rng = np.random.default_rng(81)
    z, _ = whitened(rng.standard_normal((500, 3)))
    W = fit_ica(z, ContrastSpec(1), seed=5)
    assert W.converged
    assert W.iterations <= 2


def test_recovers_rotated_laplace_pair():
    rng = np.random.default_rng(82)
    s = rng.laplace(size=(20000, 2))
    a = rotation(np.pi / 6)
    z, t = whitened(s @ a.T)
    W = fit_ica(z, ContrastSpec(2), seed=0)
    assert W.converged
    # the unmixing should invert the whitened mixing t.projection @ a
    assert amari_index(W.w, t.projection @ a) < 0.1


def test_recovers_four_student_t_sources():
    rng = np.random.default_rng(83)
    s = rng.standard_t(df=5, size=(30000, 4))
    a = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
    z, t = whitened(s @ a.T)
    W = fit_ica(z, ContrastSpec(2), seed=1)
    assert W.converged
    assert amari_index(W.w, t.projection @ a) < 0.15


def test_fit_is_deterministic_in_seed():
    rng = np.random.default_rng(84)
    s = rng.laplace(size=(5000, 3))
    a = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    z, _ = whitened(s @ a.T)
    w1 = fit_ica(z, ContrastSpec(2), seed=7)
    w2 = fit_ica(z, ContrastSpec(2), seed=7)
    assert np.array_equal(w1.w, w2.w)
    assert w1.iterations == w2.iterations


def test_max_iter_returns_last_iterate_unconverged():
    rng = np.random.default_rng(85)
    s = rng.laplace(size=(8000, 3))
    a = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    z, _ = whitened(s @ a.T)
    W = fit_ica(z, ContrastSpec(2), seed=0, max_iter=1)
    assert not W.converged
    assert W.iterations == 1
    # the iterate is still a usable orthonormal matrix
    assert np.abs(W.w.T @ W.w - np.eye(3)).max() < 1e-10


def test_fit_rejects_unwhitened_input():
    rng = np.random.default_rng(86)
    raw = panel_from(rng.standard_normal((400, 3)) * 2.5 + 1.0)
    with pytest.raises(DataError, match="whiten"):
        fit_ica(raw, ContrastSpec(2), seed=0)


def test_fit_parameter_validation():
    rng = np.random.default_rng(87)
    z, _ = whitened(rng.standard_normal((300, 2)))
    with pytest.raises(ValueError):
        fit_ica(z, ContrastSpec(2), seed=0, tol=0.0)
    # 1 - min|cos| < tol holds at the first step for tol >= 1, and never for nan
    for tol in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            fit_ica(z, ContrastSpec(2), seed=0, tol=tol)
    with pytest.raises(ValueError):
        fit_ica(z, ContrastSpec(2), seed=0, max_iter=0)


def test_fit_refuses_a_fractional_max_iter():
    # truncated, 1.5 would run one step
    z, _ = whitened(np.random.default_rng(87).standard_normal((300, 2)))
    with pytest.raises(ValueError, match="max_iter must be an integer, got 1.5"):
        fit_ica(z, ContrastSpec(2), seed=0, max_iter=1.5)
    assert fit_ica(z, ContrastSpec(2), seed=0, max_iter=2.0).iterations <= 2


def test_unmixing_matrix_refuses_bad_counts():
    for k, iterations, match in [
        (0, 1, "k must be >= 1, got 0"),
        (2.5, 1, "k must be an integer, got 2.5"),
        (2, -4, "iterations must be >= 0, got -4"),
        (2, 1.5, "iterations must be an integer, got 1.5"),
    ]:
        with pytest.raises(DataError, match=match):
            UnmixingMatrix(np.eye(2), k, 0, iterations, True)
    w = UnmixingMatrix(np.eye(2), 2.0, 0, 0, True)
    assert (w.k, w.iterations) == (2, 0) and type(w.k) is int


def test_transform_identity_and_ids():
    rng = np.random.default_rng(88)
    z, _ = whitened(rng.standard_normal((300, 3)))
    W = UnmixingMatrix(np.eye(3), 2, 0, 1, True)
    c = transform(W, z)
    assert c.column_ids == ("ic_0001", "ic_0002", "ic_0003")
    assert c.row_ids == z.row_ids
    assert np.array_equal(c.data, z.data)


def test_transform_preserves_whiteness():
    rng = np.random.default_rng(89)
    s = rng.laplace(size=(6000, 3))
    a = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    z, _ = whitened(s @ a.T)
    W = fit_ica(z, ContrastSpec(2), seed=0)
    c = transform(W, z)
    cov = c.data.T @ c.data / c.m
    assert np.abs(cov - np.eye(3)).max() < 1e-8


def test_transform_shape_mismatch():
    rng = np.random.default_rng(90)
    z, _ = whitened(rng.standard_normal((300, 3)))
    W = UnmixingMatrix(np.eye(2), 2, 0, 1, True)
    with pytest.raises(DataError):
        transform(W, z)


def test_kkt_residual_matches_component_tail_covariance():
    # the diagnostic must be exactly the off-diagonal max of the
    # components' tail covariance, not a reimplementation of it
    rng = np.random.default_rng(91)
    s = rng.laplace(size=(4000, 3))
    z, _ = whitened(s)
    W = fit_ica(z, ContrastSpec(2), seed=0)
    res = kkt_residual(z, W, 2)
    tc = tail_covariance(transform(W, z), 2)
    off = np.abs(tc.values - np.diag(np.diag(tc.values)))
    assert res.off_diagonal_max == off.max()
    assert res.orthonormality_max <= 1e-8


def test_kkt_residual_invariant_to_permutation_and_sign():
    rng = np.random.default_rng(92)
    s = rng.laplace(size=(3000, 3))
    z, _ = whitened(s)
    W = fit_ica(z, ContrastSpec(2), seed=0)
    res = kkt_residual(z, W, 2)
    shuffled = W.w[:, [2, 0, 1]] * np.array([-1.0, 1.0, -1.0])
    W2 = UnmixingMatrix(shuffled, W.k, W.seed, W.iterations, W.converged)
    res2 = kkt_residual(z, W2, 2)
    assert res2.off_diagonal_max == res.off_diagonal_max
    assert res2.orthonormality_max == res.orthonormality_max


def test_converged_fit_beats_random_rotation():
    rng = np.random.default_rng(93)
    s = rng.laplace(size=(10000, 3))
    a = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    z, _ = whitened(s @ a.T)
    W = fit_ica(z, ContrastSpec(2), seed=0)
    fitted = kkt_residual(z, W, 2).off_diagonal_max
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    random_w = UnmixingMatrix(q, 2, 0, 1, True)
    assert fitted < kkt_residual(z, random_w, 2).off_diagonal_max


def test_converged_point_is_stationary_under_one_more_step():
    # Re-run a single update step written out longhand; convergence means
    # the step must not move any column direction by more than ~10x tol.
    rng = np.random.default_rng(94)
    s = rng.laplace(size=(15000, 2))
    z, _ = whitened(s @ rotation(0.4).T)
    tol = 1e-8
    W = fit_ica(z, ContrastSpec(2), seed=0, tol=tol)
    assert W.converged
    y = z.data
    m = y.shape[0]
    w = W.w
    comp = y @ w
    grad = y.T @ comp**3 / m
    damp = 3.0 * np.mean(comp**2, axis=0)
    update = grad - w * damp[np.newaxis, :]
    evals, evecs = np.linalg.eigh(update @ update.T)
    w_next = (evecs / np.sqrt(evals)[np.newaxis, :]) @ evecs.T @ update
    alignment = np.abs(np.sum(w_next * w, axis=0))
    assert 1.0 - alignment.min() < 10.0 * tol


def test_amari_index_reference_values():
    assert amari_index(np.eye(3), np.eye(3)) == 0.0
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert amari_index(np.eye(3), perm) == 0.0
    signed_scaled = np.array([[0.0, -3.0], [0.5, 0.0]])
    assert amari_index(np.eye(2), signed_scaled) == 0.0
    assert amari_index(np.eye(2), np.ones((2, 2))) == 1.0
    assert amari_index(np.array([[2.0]]), np.array([[-5.0]])) == 0.0


def test_amari_index_error_cases():
    with pytest.raises(DataError):
        amari_index(np.eye(2), np.eye(3))
    with pytest.raises(DataError):
        amari_index(np.eye(2), np.full((2, 2), np.inf))
    with pytest.raises(NumericalError):
        amari_index(np.eye(2), np.zeros((2, 2)))


@pytest.mark.parametrize("failing_call", [1, 2])
def test_non_converging_svd_raises_numerical_error(monkeypatch, failing_call):
    # numpy's LinAlgError is a ValueError, which the CLI reports as a usage
    # error; the failing call and its retry on the transpose both fail
    z, _ = whitened(np.random.default_rng(82).laplace(size=(2000, 3)))
    svd, calls = np.linalg.svd, []

    def flaky_svd(a):
        calls.append(a)
        if len(calls) in (failing_call, failing_call + 1):
            raise np.linalg.LinAlgError("SVD did not converge")
        u, s, vt = svd(a)
        s[-1] = 0.0  # rank-deficient, so the shifted update takes the second SVD
        return u, s, vt

    monkeypatch.setattr(np.linalg, "svd", flaky_svd)
    with pytest.raises(NumericalError, match="k=2 did not converge at iteration 1$"):
        fit_ica(z, ContrastSpec(2), seed=0)


def test_one_non_converging_svd_is_retried_on_the_transpose(monkeypatch):
    z, _ = whitened(np.random.default_rng(82).laplace(size=(2000, 3)))
    expected = fit_ica(z, ContrastSpec(2), seed=0)
    svd, calls = np.linalg.svd, []

    def flaky_svd(a):
        calls.append(a)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a)

    monkeypatch.setattr(np.linalg, "svd", flaky_svd)
    got = fit_ica(z, ContrastSpec(2), seed=0)
    assert np.array_equal(calls[1], calls[0].T)
    assert (got.converged, got.iterations) == (expected.converged, expected.iterations)
    np.testing.assert_allclose(got.w, expected.w, atol=1e-12)


def test_the_default_market_fit_that_lapack_fails_returns():
    # at solver seed 265237 the k=10 fit's SVD did not converge at iteration
    # 31, and `tailica eval --seed 265237` exited 3; its transpose does
    market = generate_market(SyntheticMarketSpec())
    split = split_buckets(market, market.row_ids[market.m // 2])
    z = apply_whitening(fit_whitening(split.in_sample, 30), split.in_sample)
    w = fit_ica(z, ContrastSpec(10), seed=265237)
    assert w.converged and w.iterations == 34


def test_amari_index_monotone_in_mixing():
    # partial mixing should score between perfect recovery and total blur
    light = np.eye(3) + 0.1
    heavy = np.eye(3) + 0.8
    a_light = amari_index(np.eye(3), light)
    a_heavy = amari_index(np.eye(3), heavy)
    assert 0.0 < a_light < a_heavy < 1.0


def test_unmixing_csv_round_trip():
    rng = np.random.default_rng(95)
    s = rng.laplace(size=(2000, 3))
    z, _ = whitened(s)
    W = fit_ica(z, ContrastSpec(2), seed=3)
    text = unmixing_to_csv(W)
    assert text.startswith("tailica-W v1, k=2, seed=3, converged=")
    back = unmixing_from_csv(text)
    assert np.array_equal(back.w, W.w)
    assert (back.k, back.seed, back.iterations, back.converged) == (
        W.k,
        W.seed,
        W.iterations,
        W.converged,
    )


def test_unmixing_csv_rejects_tampering():
    W = UnmixingMatrix(np.eye(2), 2, 0, 1, True)
    text = unmixing_to_csv(W)
    body = text.split("\n", 1)[1]
    with pytest.raises(DataError):
        unmixing_from_csv("tailica-W v2, k=2, seed=0, converged=true, iterations=1\n" + body)
    with pytest.raises(DataError):
        unmixing_from_csv("tailica-W v1, k=2, seed=0, converged=true\n" + body)
    with pytest.raises(DataError):
        unmixing_from_csv(
            "tailica-W v1, k=2, seed=0, converged=maybe, iterations=1\n" + body
        )
    with pytest.raises(DataError):
        unmixing_from_csv("")
    with pytest.raises(DataError):
        unmixing_from_csv(text.replace("1.0", "one point zero"))
    with pytest.raises(DataError, match="malformed header field 'seed'"):
        unmixing_from_csv("tailica-W v1, k=2, seed, converged=true, iterations=1\n" + body)


def test_unmixing_csv_reader_takes_only_the_writers_header():
    text = unmixing_to_csv(UnmixingMatrix(np.eye(2), 2, 0, 1, True))
    body = text.split("\n", 1)[1]
    for head in (
        "tailica-W v1, seed=0, k=2, converged=true, iterations=1",
        "tailica-W v1, k=2, seed=0, converged=true, iterations=1, tol=1e-8",
        "tailica-W v1, k=2, k=3, seed=0, converged=true, iterations=1",
    ):
        with pytest.raises(DataError, match="^unmixing header fields must be k, seed, converged and iterations"):
            unmixing_from_csv(head + "\n" + body)
    back = unmixing_from_csv("\ufeff" + text.replace("\n", "\n\n"))  # a mark and blank lines
    assert unmixing_to_csv(back) == text


def test_kkt_residual_dataclass_fields():
    r = KktResidual(off_diagonal_max=0.5, orthonormality_max=1e-12)
    assert r.off_diagonal_max == 0.5
    assert r.orthonormality_max == 1e-12


def test_int_power_matches_np_power():
    # Powers 0..19 cover r**(2k-2) and r**(2k-1) for k = 1..10.  A chain of
    # p - 1 roundings is off by at most p - 1 half-ulps, np.power by one ulp;
    # values that end up subnormal or underflow are off by a few subnormal
    # steps at most.
    rng = np.random.default_rng(90)
    x = np.concatenate([
        rng.uniform(-1.0, 1.0, 20000),
        [0.0, -0.0, 1e-300, -1e-200, 5e-324, 1e-20, -1e-17, 3e-16, 0.999999, -0.5],
    ])
    for p in range(20):
        want = np.power(x, p)
        got = ica_module._int_power(x, p)
        err = np.abs(got - want)
        assert np.all(err <= max(p, 1) * np.spacing(np.abs(want)) + 4 * 5e-324), p
        assert np.array_equal(np.signbit(got), np.signbit(want)), p
    assert np.array_equal(ica_module._int_power(x, 2), x * x)
    assert np.array_equal(ica_module._int_power(x, 1), x)
    assert np.array_equal(ica_module._int_power(x, 0), np.ones_like(x))


def test_fit_with_repeated_squaring_matches_np_power(monkeypatch):
    market = generate_market(SyntheticMarketSpec())
    split = split_buckets(market, market.row_ids[market.m // 2])
    z = apply_whitening(fit_whitening(split.in_sample, 30), split.in_sample)
    ks = (1, 2, 3, 4, 10)
    fast = {k: fit_ica(z, ContrastSpec(k), seed=0) for k in ks}
    # p = 2k - 2 is even, so |x|**p is x**p, without numpy's slow path for negative bases
    monkeypatch.setattr(ica_module, "_int_power", lambda x, p: np.power(np.abs(x), p))
    for k in ks:
        ref = fit_ica(z, ContrastSpec(k), seed=0)
        assert (fast[k].iterations, fast[k].converged) == (ref.iterations, ref.converged), k
        assert np.abs(fast[k].w - ref.w).max() < 1e-9, k


def test_fit_keeps_one_full_size_buffer():
    # Besides its input the solver holds one m x d array, the projections,
    # which it scales, powers and multiplies in place a row block at a time.
    # A second full-size buffer (a power, an np.abs or np.power temporary, or
    # one kept across iterations) shows as 2x; half an array covers the
    # block-sized, d x d and length-d temporaries.
    rng = np.random.default_rng(91)
    z, _ = whitened(rng.laplace(size=(150_000, 4)))
    array_bytes = z.data.nbytes
    for k in (2, 10):
        tracemalloc.start()
        try:
            fit_ica(z, ContrastSpec(k), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * array_bytes, (k, peak / array_bytes)


def test_high_order_fit_stays_orthonormal_on_an_ill_conditioned_update():
    # Laplace sources of one benchmark sub-problem (seed 252): the k=10 fit
    # on the first 150,000 rows drove an (W W')^(-1/2) W projection to
    # max |W'W - I| = 1.8e-7, and the fit raised its own DataError.
    rng = np.random.default_rng(252)
    sources = rng.laplace(0.0, 1.0, size=(200_000, 4))
    mixing, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    z, _ = whitened((sources @ mixing.T)[:150_000])
    W = fit_ica(z, ContrastSpec(10), seed=252)
    assert np.abs(W.w.T @ W.w - np.eye(4)).max() < 1e-12


@pytest.fixture(scope="module")
def default_white():
    """The default experiment's in-sample half, whitened to d = 30."""
    market = generate_market(SyntheticMarketSpec())
    split = split_buckets(market, market.row_ids[market.m // 2])
    return apply_whitening(fit_whitening(split.in_sample, 30), split.in_sample)


def _gram_gate_fit(z, k, seed, tol=1e-8, max_iter=1000):
    """Fixed-point fit with the rank gate on the update's gram matrix.

    The step written out longhand: eigenvalues of A A' for the update A
    decide the rank, the shift is twice the square root of the largest
    one, and the polar factor comes from a separate SVD.  Returns the signed W, the
    iteration count, the convergence flag and how often the shift fired.
    """
    y = z.data
    d = y.shape[1]
    w, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    converged = False
    shifts = 0
    for iterations in range(1, max_iter + 1):
        update = ica_module._raw_update(y, w, k)
        if np.abs(update).max() < 1e-11:
            converged = True
            break
        gram_evals = np.linalg.eigvalsh(update @ update.T)
        if gram_evals[0] <= 1e-12 * gram_evals[-1]:
            update = update + 2.0 * np.sqrt(gram_evals[-1]) * w
            shifts += 1
        u, _, vt = np.linalg.svd(update)
        w_new = u @ vt
        delta = 1.0 - np.abs(np.sum(w_new * w, axis=0)).min()
        w = w_new
        if delta < tol:
            converged = True
            break
    return _fix_signs(w), iterations, converged, shifts


def test_singular_value_gate_matches_the_gram_gate(default_white):
    # k=2 never shifts, k=3 shifts once, k=10 shifts on every iteration.
    for k in (2, 3, 10):
        ref_w, ref_iterations, ref_converged, shifts = _gram_gate_fit(default_white, k, seed=0)
        assert shifts == {2: 0, 3: 1, 10: ref_iterations}[k], (k, shifts)
        W = fit_ica(default_white, ContrastSpec(k), seed=0)
        assert (W.iterations, W.converged) == (ref_iterations, ref_converged), k
        assert np.abs(W.w - ref_w).max() < 1e-12, k


def test_fit_stays_orthonormal_at_high_orders(default_white):
    # From k=60 the update's entries pass 1e154, where its gram matrix
    # overflowed and the fit raised LinAlgError; at k=117 they near 1e308,
    # where the unscaled shifted update overflowed inside the SVD.
    for k in (60, 100, 117):
        W = fit_ica(default_white, ContrastSpec(k), seed=0)
        assert W.converged, k
        assert np.abs(W.w.T @ W.w - np.eye(30)).max() < 1e-12, k


def test_overflowing_update_raises_numerical_error(default_white):
    # The order-300 gradient exceeds float64 on the first iteration.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="k=150"):
            fit_ica(default_white, ContrastSpec(150), seed=0, max_iter=5)


def test_overflowing_update_raises_without_a_runtime_warning(default_white):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="k=150"):
            fit_ica(default_white, ContrastSpec(150), seed=0, max_iter=5)


def _fsum_damping_update(y, w, k):
    """The fixed-point update written out, its damping mean exactly rounded."""
    r = y @ w
    exp2 = _pow2_exponents(r)
    r = np.ldexp(r, -exp2)
    power = ica_module._int_power(r, 2 * k - 2)
    mean = np.array([math.fsum(column.tolist()) for column in power.T]) / y.shape[0]
    damp = np.ldexp((2 * k - 1) * mean, exp2 * (2 * k - 2))
    np.multiply(power, r, out=power)
    grad = np.ldexp(y.T @ power / y.shape[0], exp2 * (2 * k - 1))
    return grad - w * damp[np.newaxis, :]


@pytest.fixture(scope="module")
def tall_white():
    """A whitened 150,000 x 4 Laplace panel, the benchmark's in-sample shape."""
    return whitened(np.random.default_rng(94).laplace(size=(150_000, 4)))[0]


@pytest.mark.parametrize("panel", ["default_white", "tall_white"])
def test_update_matches_a_reference_with_an_exactly_rounded_damping_mean(
    panel, request, monkeypatch
):
    # The damping mean of a column-ordered power is summed pairwise; on
    # tall_white it was 1.3e-16 relative from the exactly rounded one, where
    # summing a row-ordered power was 3.4e-14 off.  y' @ power is bit for bit
    # equal in either layout with OpenBLAS; the bound leaves room for a BLAS
    # that rounds the products of the projections differently.
    z = request.getfixturevalue(panel)
    rng = np.random.default_rng(95)
    for k in (2, 10):
        w, _ = np.linalg.qr(rng.standard_normal((z.n, z.n)))
        got = ica_module._raw_update(z.data, w, k)
        want = _fsum_damping_update(z.data, w, k)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), k
    fits = {k: fit_ica(z, ContrastSpec(k), seed=0) for k in (2, 10)}
    monkeypatch.setattr(ica_module, "_raw_update", _fsum_damping_update)
    for k, W in fits.items():
        ref = fit_ica(z, ContrastSpec(k), seed=0)
        assert (W.iterations, W.converged) == (ref.iterations, ref.converged), k
        assert np.abs(W.w - ref.w).max() < 1e-12, k


def test_int_power_keeps_column_order():
    x = np.random.default_rng(96).uniform(-1.0, 1.0, size=(500, 3))
    f = np.asfortranarray(x)
    for p in range(20):
        got = ica_module._int_power(f, p)
        assert got.flags.f_contiguous, p
        assert np.array_equal(got, ica_module._int_power(x, p)), p


def test_update_allocates_only_column_ordered_blocks(tall_white, monkeypatch):
    # Every array of rows that numpy allocates inside the update (more rows
    # than its d columns, so the d x d gradient is left out) is in column
    # order, and none is full size.  A result that is a view, a block of the
    # projections written in place through out=, is not a new array.  The spy
    # wraps functions only, so the update sums with np.sum, not np.add.reduce.
    y = tall_white.data
    allocated = []

    class LayoutSpy:
        """numpy as the solver sees it, noting each new array of rows."""

        def __getattr__(self, name):
            func = getattr(np, name)
            if not callable(func) or isinstance(func, type):
                return func

            def call(*args, **kwargs):
                out = func(*args, **kwargs)
                if isinstance(out, np.ndarray) and out.ndim == 2 and out.base is None:
                    if out.shape[1] == y.shape[1] < out.shape[0]:
                        allocated.append((name, out.shape, out.flags.f_contiguous))
                return out

            return call

    monkeypatch.setattr(ica_module, "np", LayoutSpy())
    w, _ = np.linalg.qr(np.random.default_rng(97).standard_normal((4, 4)))
    for k in (1, 2, 10):
        ica_module._raw_update(y, w, k)
    assert allocated, allocated
    assert all(f for _, _, f in allocated), allocated
    assert all(shape[0] != y.shape[0] for _, shape, _ in allocated), allocated


def _unblocked_update(y, w, k):
    """The update as one chain over all rows: two m x d buffers, a pairwise mean."""
    r = (w.T @ y.T).T
    exp2 = _pow2_exponents(r)
    r = np.ldexp(r, -exp2)
    power = ica_module._int_power(r, 2 * k - 2)
    # past float64 the scale overflows; fit_ica raises on the non-finite update
    with np.errstate(over="ignore", invalid="ignore"):
        damp = np.ldexp((2 * k - 1) * np.mean(power, axis=0), exp2 * (2 * k - 2))
        np.multiply(power, r, out=power)
        grad = np.ldexp(y.T @ power / y.shape[0], exp2 * (2 * k - 1))
        return grad - w * damp[np.newaxis, :]


def test_single_block_update_matches_the_unblocked_formula(default_white):
    # Up to one block of rows every call is the unblocked one on the same
    # layout, and the exact sum of one block sum is that sum, so no bit moves.
    rng = np.random.default_rng(98)
    one_block = whitened(rng.laplace(size=(ica_module._BLOCK_ROWS, 4)))[0]
    for z, ks in ((default_white, (1, 2, 3, 10, 60, 116)), (one_block, (1, 2, 10))):
        for k in ks:
            w, _ = np.linalg.qr(rng.standard_normal((z.n, z.n)))
            got = ica_module._raw_update(z.data, w, k)
            assert np.array_equal(got, _unblocked_update(z.data, w, k)), (z.m, k)
