"""Fixed-point search for tail-independent directions on whitened data.

Maximizes the even-moment contrast G(u) = u^(2k)/(2k) of every component
simultaneously under the orthonormality constraint: each iteration applies
the update w_i <- E[y g(w_i'y)] - E[g'(w_i'y)] w_i to all columns, then
projects W back to the nearest orthonormal matrix (symmetric
orthogonalization).  Stationary points satisfy the first-order conditions
E[(w_i'y)(w_j'y)^(2k-1)] = E[(w_j'y)(w_i'y)^(2k-1)], i.e. a symmetric tail
covariance, not a diagonal one: its off-diagonal entries vanish only for
tail-independent components, so a converged fit on a sample keeps some.

Each step's one full-size array is the projections, in column order,
scaled, powered by repeated squaring and multiplied in place a cache-sized
row block at a time.  ``np.power`` takes a negative base through a scalar
path at dozens of times the cost.  ``moments`` and ``tailcov``, which
promise bitwise results, power magnitudes in its vector kernel, still
3-5 ns an element against about 1.5 ns for repeated squaring at p = 18.
The squared powers differ in their last bits, which a step that needs
only a direction tolerates.

Each step orthogonalizes with one SVD of the update, rescaled by a power
of two.  Its singular values also decide whether the update is rank
deficient, and only then is it shifted along W and decomposed a second
time.  On the default experiment's market (in-sample half whitened to
d = 30, solver seed 0) every order k = 1 ... 117 was measured to return
with max |W'W - I| <= 3e-15, ``converged`` except at k = 4, which runs to
its iteration cap.  The flag says only that the last direction change was
below ``tol``, not that the first-order conditions hold: k = 10 fits on
market seeds 0-9 set it at max |T_ij - T_ji| / max(H_ij, H_ji) = 0.78-1.03,
where H_ij = rm_i rm_j^(2k-1) is the Holder bound on |T_ij| from the
order-2k root moments.  From k = 118 the order-2k gradient overflows
float64 and the fit raises ``NumericalError`` (CLI exit code 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .moments import _check_order, _pow2_exponents
from .panel import _BLOCK_ROWS, SamplePanel, _csv_text, _floats, _frozen, _read_records
from .tailcov import tail_covariance
from .whiten import _check_white, _fix_signs

__all__ = [
    "ContrastSpec",
    "UnmixingMatrix",
    "KktResidual",
    "fit_ica",
    "transform",
    "kkt_residual",
    "amari_index",
    "unmixing_to_csv",
    "unmixing_from_csv",
]

# updates smaller than this are numerical noise around an exact stationary
# point (quadratic contrast on white data, or exactly Gaussian columns)
_STATIONARY_EPS = 1e-11


@dataclass(frozen=True)
class ContrastSpec:
    """Even-moment contrast of order k: G(u) = u^(2k)/(2k)."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _check_order(self.k, "contrast order k"))


def _orthonormality_error(w: np.ndarray) -> float:
    """max |W'W - I|."""
    return float(np.abs(w.T @ w - np.eye(w.shape[0])).max())


@dataclass(frozen=True)
class UnmixingMatrix:
    """Orthonormal unmixing W (components are columns) plus fit metadata;
    ``converged`` is fit_ica's stopping test, not stationarity."""

    w: np.ndarray
    k: int
    seed: int
    iterations: int
    converged: bool

    def __post_init__(self):
        w = _frozen(self.w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DataError(f"unmixing matrix must be square, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise DataError("unmixing matrix has non-finite entries")
        gram_err = _orthonormality_error(w)
        if gram_err > 1e-8:
            raise DataError(f"unmixing columns not orthonormal (max |W'W - I| = {gram_err:.3e})")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "k", _check_order(self.k, "k", error=DataError))
        object.__setattr__(self, "iterations", _check_order(self.iterations, "iterations", 0, DataError))

    @property
    def d(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class KktResidual:
    """First-order-condition residuals of a candidate unmixing."""

    off_diagonal_max: float
    orthonormality_max: float


def _int_power(x: np.ndarray, p: int) -> np.ndarray:
    """x**p for an integer p >= 0 by left-to-right repeated squaring.

    Multiplies in place into the one array it returns, in the memory order
    of ``x``.  Each rounding is compounded by the squarings after it, so the
    result is within p ulps of ``np.power`` (13 at most measured at p = 19).
    """
    out = np.ones_like(x) if p == 0 else x.copy(order="K")
    for bit in bin(p)[3:]:
        np.multiply(out, out, out=out)
        if bit == "1":
            np.multiply(out, x, out=out)
    return out


def _raw_update(y: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Fixed-point update E[y g(w'y)] - E[g'(w'y)] w of every column of W.

    Per row block, the projections r are scaled in place by each column's
    power of two, so powers cannot overflow; r**(2k-2) is built in a block
    temporary for the damping sums and r**(2k-1) written back in place.
    Block sums add exactly (one block keeps the pairwise mean).
    """
    proj = (w.T @ y.T).T
    exp2 = _pow2_exponents(proj)
    sums = []
    for start in range(0, proj.shape[0], _BLOCK_ROWS):
        r = proj[start : start + _BLOCK_ROWS]
        np.ldexp(r, -exp2, out=r)
        power = _int_power(r, 2 * k - 2)
        sums.append(np.sum(power, axis=0))
        np.multiply(power, r, out=r)
    mean = np.array([math.fsum(column) for column in zip(*sums)]) / y.shape[0]
    # past float64 the scale overflows; fit_ica raises on the non-finite update
    with np.errstate(over="ignore", invalid="ignore"):
        damp = np.ldexp((2 * k - 1) * mean, exp2 * (2 * k - 2))
        # y' proj keeps a one-block panel's bits; (proj' y)' rounds apart in small BLAS kernels
        grad = np.ldexp(y.T @ proj / y.shape[0], exp2 * (2 * k - 1))
        return grad - w * damp[np.newaxis, :]


def _svd(a: np.ndarray, k: int, iteration: int) -> tuple:
    """U, s, V' of ``a``; if LAPACK cannot finish, of ``a.T`` = V S U'."""
    try:
        return np.linalg.svd(a)
    except np.linalg.LinAlgError:  # a ValueError, which the CLI reads as usage
        try:
            v, s, ut = np.linalg.svd(a.T)
        except np.linalg.LinAlgError:
            raise NumericalError(f"SVD for contrast order k={k} did not converge at iteration {iteration}") from None
        return ut.T, s, v.T


def fit_ica(
    white_panel: SamplePanel,
    contrast: ContrastSpec,
    seed: int,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> UnmixingMatrix:
    """Fit an orthonormal unmixing of a whitened panel by fixed-point iteration.

    Starts from a seeded random orthogonal matrix and stops with
    ``converged=True``, which does not certify the first-order conditions,
    once every column's direction moves by less than ``tol`` in (0, 1)
    (1 - min_i |<w_i_new, w_i_old>|, so a larger tol stops at once) or the
    raw update vanishes, as when the data carry no order-2k structure to
    improve on (the quadratic contrast on exactly white data).  On hitting
    ``max_iter`` the last iterate is returned with ``converged=False``.
    An SVD that LAPACK cannot finish is retried on the transpose, which has
    the same singular values with U and V swapped; only when both fail is
    it a ``NumericalError``.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    max_iter = _check_order(max_iter, "max_iter")
    _check_white(white_panel)
    y = white_panel.data
    d = y.shape[1]
    k = contrast.k
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.standard_normal((d, d)))
    converged = False
    for iterations in range(1, max_iter + 1):  # max_iter >= 1: at least one step
        update = _raw_update(y, w, k)
        size = np.abs(update).max()
        if not np.isfinite(size):
            raise NumericalError(
                f"fixed-point update for contrast order k={k} overflowed float64"
            )
        if size < _STATIONARY_EPS:
            converged = True
            break
        # The polar factor U V' of the update, the nearest orthonormal
        # matrix, ignores a positive scale, so the update is first brought to
        # max-abs in [1/2, 1) by an exact power of two.  On the default market
        # its entries pass 1e154, where squares overflow, from k = 60, and
        # near 1e308, where the shift below would, at k = 117.
        #
        # One SVD then both decides the rank and gives U V'.  High contrast
        # orders can drive the update to numerical rank one (every column
        # dominated by the same few extreme rows).  Only then, shift it along
        # the current W by twice its spectral norm s_0: by Weyl's inequality
        # the shifted matrix has singular values in [s_0, 3 s_0], so its polar
        # factor is well defined, and stationary points are unchanged because
        # there the update is already column-wise parallel to W.  Without the
        # shift the ratio test has just passed, so U V' is well defined as it
        # stands, and well-conditioned updates keep the fast local
        # convergence of the plain iteration.
        update = np.ldexp(update, -np.frexp(size)[1])
        u, s, vt = _svd(update, k, iterations)
        if s[-1] ** 2 <= 1e-12 * s[0] ** 2:
            u, _, vt = _svd(update + 2.0 * s[0] * w, k, iterations)
        w_new = u @ vt
        alignment = np.abs(np.sum(w_new * w, axis=0))
        delta = 1.0 - float(alignment.min())
        w = w_new
        if delta < tol:
            converged = True
            break
    return UnmixingMatrix(
        w=_fix_signs(w), k=k, seed=int(seed), iterations=iterations, converged=converged
    )


def transform(W: UnmixingMatrix, white_panel: SamplePanel) -> SamplePanel:
    """Component panel W'Y with columns ic_0001, ic_0002, ..."""
    if white_panel.n != W.d:
        raise DataError(f"panel has {white_panel.n} columns, unmixing expects {W.d}")
    ids = tuple(f"ic_{i + 1:04d}" for i in range(W.d))
    data = white_panel.data @ W.w
    data.flags.writeable = False
    return SamplePanel(data, ids, white_panel.row_ids)


def kkt_residual(white_panel: SamplePanel, W: UnmixingMatrix, k: int) -> KktResidual:
    """Residuals of the stationarity system for W on the given data.

    off_diagonal_max is the largest |E[(w_i'y)(w_j'y)^(2k-1)]| over i != j,
    the distance from a diagonal tail covariance; it is not zero at an
    exact stationary point, where the tail covariance is only symmetric.
    orthonormality_max is max |W'W - I|.
    """
    components = transform(W, white_panel)
    t = tail_covariance(components, k).values
    off_max = float(np.abs(t - np.diag(np.diag(t))).max())
    return KktResidual(off_diagonal_max=off_max, orthonormality_max=_orthonormality_error(W.w))


def amari_index(w_est, a_true) -> float:
    """Permutation- and sign-invariant separation error in [0, 1].

    Zero iff ``w_est' @ a_true`` is a signed scaled permutation (perfect
    recovery); one for total mixing (all entries equal).
    """
    w_est = np.asarray(w_est, dtype=np.float64)
    a_true = np.asarray(a_true, dtype=np.float64)
    if w_est.shape != a_true.shape or w_est.ndim != 2 or w_est.shape[0] != w_est.shape[1]:
        raise DataError(f"expected equal square matrices, got {w_est.shape} and {a_true.shape}")
    for name, mat in (("w_est", w_est), ("a_true", a_true)):
        if not np.all(np.isfinite(mat)):
            raise DataError(f"{name} has non-finite entries")
    d = w_est.shape[0]
    if d == 1:
        return 0.0
    p = np.abs(w_est.T @ a_true)
    row_max = p.max(axis=1)
    col_max = p.max(axis=0)
    if np.any(row_max == 0.0) or np.any(col_max == 0.0):
        raise NumericalError(
            "singular input: a component of W_est' A_true vanishes identically"
        )
    rows = (p.sum(axis=1) / row_max - 1.0).sum()
    cols = (p.sum(axis=0) / col_max - 1.0).sum()
    return float((rows + cols) / (2.0 * d * (d - 1.0)))


def unmixing_to_csv(W: UnmixingMatrix) -> str:
    """Versioned CSV: metadata header line, then the matrix rows."""
    header = (
        f"tailica-W v1, k={W.k}, seed={W.seed}, "
        f"converged={'true' if W.converged else 'false'}, iterations={W.iterations}"
    )
    return header + "\n" + _csv_text(W.w.tolist())


def unmixing_from_csv(text: str) -> UnmixingMatrix:
    """Read exactly ``unmixing_to_csv``'s layout: its four ``key=value`` fields in order, then rows."""
    (_, *head), *rows = _read_records(text, "tailica-W v1", "unmixing")
    fields = [part.strip().partition("=") for part in head]
    malformed = [key for key, eq, _ in fields if not eq]  # the whole field, as it has no "="
    if malformed:
        raise DataError(f"malformed header field {malformed[0]!r}")
    if [key.strip() for key, _, _ in fields] != ["k", "seed", "converged", "iterations"]:
        raise DataError("unmixing header fields must be k, seed, converged and iterations, in that order")
    k, seed, converged, iterations = (value.strip() for _, _, value in fields)
    if converged not in ("true", "false"):
        raise DataError(f"bad converged flag {converged!r}")
    try:
        k, seed, iterations = int(k), int(seed), int(iterations)
    except ValueError:
        raise DataError("bad numeric field in unmixing file") from None
    w = [_floats(row, range(1, len(rows) + 1), f"unmixing row {i}") for i, row in enumerate(rows, start=1)]
    return UnmixingMatrix(np.array(w), k, seed, iterations, converged == "true")
