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


def _check_order(p: int) -> int:
    p = int(p)
    if p < 1:
        raise ValueError(f"moment order must be a positive integer, got {p}")
    return p


def _pow2_exponents(x: np.ndarray) -> np.ndarray:
    """Each column's max-abs ``frexp`` exponent (0 if all zero; 1-d ``x`` is one column)."""
    col_inf = np.maximum(x.max(axis=0), -x.min(axis=0))
    _, exp2 = np.frexp(col_inf)
    return np.where(col_inf > 0.0, exp2, 0)


def _pow2_scale(x: np.ndarray):
    """Per-column ratios in (-1, 1) and exponents, ``x == ldexp(ratios, exp2)`` exactly."""
    exp2 = _pow2_exponents(x)
    return np.ldexp(x, -exp2), exp2


def extremes(sample) -> SampleExtremes:
    """Exact max, min and max-absolute value of a sample."""
    x = _as_sample(sample)
    x_max = float(x.max())
    x_min = float(x.min())
    return SampleExtremes(x_max=x_max, x_min=x_min, x_inf=max(x_max, -x_min))


def moment(sample, p: int) -> float:
    """Sample moment of order ``p``: mean of the p-th powers.

    Zero for an all-zero sample.  Returns ``inf`` only when the true value
    exceeds the float64 range (use :func:`log_moment` in that regime).
    """
    x = _as_sample(sample)
    p = _check_order(p)
    ratios, e = _pow2_scale(x)
    s = float(np.mean(ratios**p))
    if s == 0.0:
        x_inf = float(np.abs(x).max())
        if x_inf == 0.0:
            return 0.0
        # All rescaled terms underflowed; recompute in the log domain off
        # the x_inf-normalized form, whose dominant term is exactly one.
        r = x / x_inf
        s2 = float(np.mean(r**p))
        if s2 == 0.0:
            return 0.0
        log_m = math.log(abs(s2)) + p * math.log(x_inf)
        if log_m > _LOG_FLOAT_MAX:
            return math.copysign(math.inf, s2)
        return float(np.sign(s2)) * math.exp(log_m)
    try:
        return math.ldexp(s, int(e) * p)
    except OverflowError:
        # true value exceeds the float64 range; saturate with the sign
        return math.copysign(math.inf, s)


def root_moment(sample, p: int) -> float:
    """Signed p-th root of the order-p sample moment.

    For odd orders the moment may be negative; the signed root
    ``sign(M) * |M|**(1/p)`` keeps the operation total over the reals.
    When the largest and smallest sample values are exact opposites the
    odd-order limit is ambiguous; the even-style (absolute-value) root is
    returned instead and a :class:`TieWarning` is emitted.
    """
    x = _as_sample(sample)
    p = _check_order(p)
    ext = extremes(x)
    if ext.x_inf == 0.0:
        return 0.0
    if p % 2 == 1 and ext.x_max == -ext.x_min:
        warnings.warn(
            "max and min sample values are exact opposites; odd-order root "
            "moment is ambiguous, returning the even-style absolute root",
            TieWarning,
            stacklevel=2,
        )
        x = np.abs(x)
    ratios, e = _pow2_scale(x)
    s = float(np.mean(ratios**p))
    if s == 0.0:
        # Rescued path for extreme orders: normalize by x_inf so the
        # dominant ratio is exactly +-1 and the mean cannot underflow.
        s = float(np.mean((x / ext.x_inf) ** p))
        if s == 0.0:
            return 0.0
        return float(np.sign(s)) * ext.x_inf * abs(s) ** (1.0 / p)
    return float(np.sign(s)) * math.ldexp(abs(s) ** (1.0 / p), int(e))


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
