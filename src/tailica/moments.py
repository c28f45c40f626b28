"""High-order sample moments with overflow-safe evaluation.

All sums over p-th powers are run in a rescaled form: entries are divided
by a power of two bracketing the max absolute value, so every term of the
sum has magnitude at most one, and the exact power-of-two prefactor is
reapplied with ``math.ldexp``.  Rescaling by a power of two is exact in
IEEE arithmetic, so results match direct summation bit for bit whenever
direct summation would not overflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TieWarning

_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)

__all__ = [
    "SampleExtremes",
    "extremes",
    "moment",
    "root_moment",
    "log_moment",
]


@dataclass(frozen=True)
class SampleExtremes:
    """Largest, smallest and largest-absolute elements of a sample."""

    x_max: float
    x_min: float
    x_inf: float


def _as_sample(sample) -> np.ndarray:
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1:
        x = x.ravel()
    if x.size == 0:
        raise DataError("empty sample")
    if not np.all(np.isfinite(x)):
        raise DataError("sample contains non-finite entries")
    return x


def _check_order(p: int, name: str = "moment order") -> int:
    """``p`` as an int: an integer value >= 1 (``2.0`` passes, ``2.5`` does not)."""
    k = int(p)
    if k != p:
        raise ValueError(f"{name} must be an integer, got {p}")
    if k < 1:
        raise ValueError(f"{name} must be >= 1, got {p}")
    return k


def _pow2_exponents(x: np.ndarray) -> np.ndarray:
    """Each column's max-abs ``frexp`` exponent (0 if all zero; 1-d ``x`` is one column)."""
    col_inf = np.maximum(x.max(axis=0), -x.min(axis=0))
    _, exp2 = np.frexp(col_inf)
    return np.where(col_inf > 0.0, exp2, 0)


def extremes(sample) -> SampleExtremes:
    """Exact max, min and max-absolute value of a sample."""
    x = _as_sample(sample)
    x_max = float(x.max())
    x_min = float(x.min())
    return SampleExtremes(x_max=x_max, x_min=x_min, x_inf=max(x_max, -x_min))


def _scaled_powers(x: np.ndarray, p: int):
    """``ldexp(x, -exp2) ** p`` and ``exp2``: each column scaled by a power of
    two into (-1, 1), so no power overflows, then raised to ``p``.

    The ratios are powered in place in one F-ordered array, the call's one
    temporary the size of ``x``, so each column is summed bit for bit as a
    contiguous 1-d sample would be."""
    exp2 = _pow2_exponents(x)
    powers = np.empty(x.shape, order="F")
    np.ldexp(x, -exp2, out=powers)
    powers **= p
    return powers, exp2


def _power_means(x: np.ndarray, p: int):
    """Each column's mean of ``_scaled_powers``, and ``exp2``: the order-p
    moment is ``ldexp(mean, exp2 * p)``."""
    powers, exp2 = _scaled_powers(x, p)
    return powers.mean(axis=0), exp2


def _column_moments(x: np.ndarray, p: int, sums=None, root: bool = False) -> list:
    """Each column's order-p moment of a 2-d ``x``, or with ``root`` its signed
    root (see :func:`moment` and :func:`root_moment`); ``sums`` is
    ``_power_means(x, p)`` where the caller has it, unused for a tied column."""
    if root and p % 2 == 1:
        x_max = x.max(axis=0)
        tied = (x_max == -x.min(axis=0)) & (x_max > 0.0)
        if tied.any():
            message = "max and min sample values are exact opposites; odd-order root moment"
            message += " is ambiguous, returning the even-style absolute root"
            warnings.warn(message, TieWarning, stacklevel=3)
            x, sums = np.where(tied, np.abs(x), x), None
    means, exp2 = _power_means(x, p) if sums is None else sums
    columns = enumerate(zip(means.tolist(), exp2.tolist()))
    return [_finish(s, e, x[:, j], p, root) for j, (s, e) in columns]


def _finish(s: float, e: int, column: np.ndarray, p: int, root: bool) -> float:
    """A column's moment, or its root, from its ``_power_means`` entry."""
    if s == 0.0:
        # Every rescaled term underflowed, or the column is zero: normalize
        # by x_inf so that the dominant ratio is exactly +-1.
        x_inf = float(np.abs(column).max())
        s = float(np.mean((column / x_inf) ** p)) if x_inf else 0.0
        if s == 0.0:
            return 0.0
        if root:
            return math.copysign(x_inf * abs(s) ** (1.0 / p), s)
        log_m = math.log(abs(s)) + p * math.log(x_inf)  # the moment, in the log domain
        return math.copysign(math.exp(log_m) if log_m <= _LOG_FLOAT_MAX else math.inf, s)
    if root:
        return math.copysign(math.ldexp(abs(s) ** (1.0 / p), e), s)
    try:
        return math.ldexp(s, e * p)
    except OverflowError:  # the true value exceeds the float64 range
        return math.copysign(math.inf, s)


def moment(sample, p: int) -> float:
    """Sample moment of order ``p``: mean of the p-th powers.

    Zero for an all-zero sample.  Returns ``inf`` only when the true value
    exceeds the float64 range (use :func:`log_moment` in that regime).
    """
    x = _as_sample(sample)
    return _column_moments(x[:, np.newaxis], _check_order(p))[0]


def root_moment(sample, p: int) -> float:
    """Signed p-th root of the order-p sample moment.

    For odd orders the moment may be negative; the signed root
    ``sign(M) * |M|**(1/p)`` keeps the operation total over the reals.
    When the largest and smallest sample values are exact opposites the
    odd-order limit is ambiguous; the even-style (absolute-value) root is
    returned instead and a :class:`TieWarning` is emitted.
    """
    x = _as_sample(sample)
    return _column_moments(x[:, np.newaxis], _check_order(p), root=True)[0]


def log_moment(sample, k: int) -> float:
    """Natural log of the order-2k sample moment, evaluated without overflow.

    Computed as ``-ln m + 2k ln x_inf + ln sum((x_i/x_inf)^(2k))``; the sum
    lies in [1, m] because the dominant ratio is exactly one, so the result
    is finite for any sample with a nonzero entry.
    """
    x = _as_sample(sample)
    k = _check_order(k)
    x_inf = float(np.abs(x).max())
    if x_inf == 0.0:
        raise DataError("log moment undefined for an all-zero sample")
    ratios = x / x_inf
    s = float(np.sum(ratios ** (2 * k)))
    return -math.log(x.size) + 2 * k * math.log(x_inf) + math.log(s)
