"""Differential-entropy estimators built on order-statistic spacings.

Three estimators over the sorted sample x_(1) <= ... <= x_(m) with a
spacing window n (default floor(sqrt(m))), indices clamped to [1, m]:

* vasicek:  H = 1/(m+1) * sum_j ln[(m+1)/(2n) * (x_(j+n) - x_(j-n))].
  Note the 1/(m+1) outer weight; the classical form divides by m.
* ebrahimi: same spacings with per-rank boundary coefficients c_j, which
  remove the repeated-endpoint bias of the clamped windows.
* correa:   local linear regression of the order statistics on their
  ranks inside each window.

All values are in nats.  A sample whose window spacing x_(j+n) - x_(j-n)
is zero (one value fills the window) or subnormal is degenerate.  Ties
that fill no window are used as they are: every spacing is still positive.
A non-finite estimate is a ``DataError`` (vasicek and ebrahimi overflow
near 1e306 times a unit sample); correa stays finite at any finite scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .moments import _as_sample, _check_order, log_moment
from .panel import SamplePanel

__all__ = [
    "EntropyEstimatorConfig",
    "EntropyEstimate",
    "vasicek_entropy",
    "ebrahimi_entropy",
    "correa_entropy",
    "estimate_entropy",
    "entropy_moment_approximation",
    "mutual_information_proxy",
    "default_window",
]

@dataclass(frozen=True)
class EntropyEstimatorConfig:
    """Estimator choice plus spacing window; window None means floor(sqrt(m))."""

    method: str = "correa"
    window_n: int = None

    def __post_init__(self):
        if self.method not in _ESTIMATORS:
            raise ValueError(f"method must be one of {tuple(_ESTIMATORS)}, got {self.method!r}")
        if self.window_n is not None:
            _check_order(self.window_n, "window_n")


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy value in nats plus the metadata of the producing call; a
    non-finite value is a ``DataError``."""

    value: float
    method: str
    window_n: int
    m: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DataError(f"{self.method} entropy is {self.value}: its window spacings leave float64's range")


def default_window(m: int) -> int:
    return int(math.isqrt(int(m)))


def _window(m: int, n) -> int:
    """The spacing window for m observations: ``n``, or floor(sqrt(m)) if None."""
    n = default_window(m) if n is None else _check_order(n, "window")
    if m < 2 * n + 1:
        raise ValueError(f"window {n} needs at least {2 * n + 1} observations, got {m}")
    return n


def _prepare(sample, n) -> tuple:
    """The sorted sample padded with n copies of each extreme, its clamped
    window spacings x_(j+n) - x_(j-n), m and n; refuses degenerate windows."""
    x = _as_sample(sample)
    if x.size < 3:
        raise DataError(f"entropy estimation needs at least 3 observations, got {x.size}")
    m = x.size
    n = _window(m, n)
    xs = np.sort(x)
    if xs[0] == xs[-1]:
        raise DataError("constant sample: differential entropy undefined")
    xp = np.concatenate([np.repeat(xs[:1], n), xs, np.repeat(xs[-1:], n)])
    spac = xp[2 * n :] - xp[:m]
    smallest = spac.min()
    if smallest == 0.0:
        raise DataError("one value fills a spacing window; sample too degenerate")
    if smallest < np.finfo(np.float64).tiny:
        raise DataError("a window spacing is subnormal; sample too degenerate")
    return xp, spac, m, n


def vasicek_entropy(sample, n: int = None) -> EntropyEstimate:
    _, spac, m, n = _prepare(sample, n)
    value = float(np.sum(np.log((m + 1) / (2 * n) * spac)) / (m + 1))
    return EntropyEstimate(value, "vasicek", n, m)


def ebrahimi_entropy(sample, n: int = None) -> EntropyEstimate:
    _, spac, m, n = _prepare(sample, n)
    j = np.arange(1, m + 1)
    c = np.full(m, 2.0)
    c[j <= n] = 1.0 + (j[j <= n] - 1) / n
    c[j > m - n] = 1.0 + (m - j[j > m - n]) / n
    value = float(np.mean(np.log(m * spac / (c * n))))
    return EntropyEstimate(value, "ebrahimi", n, m)


def correa_entropy(sample, n: int = None) -> EntropyEstimate:
    """Local-regression spacing estimator.

    For each rank i, regress the clamped window x_(i-n)..x_(i+n) on the rank
    offsets -n..n; H = -mean(ln(slope_i / m)).  Windowed sums are taken from
    prefix sums so the whole estimate is O(m), over the sample scaled exactly
    by 2**-e, e its max-abs frexp exponent, so no square overflows.  Global
    sums cancel in a narrow window far from the mean: -1e4 + 1e-3*t(4) (2,500
    draws, 1% zeros) gives -4.74067 nats (long double: -4.73562); 100,000
    standard Cauchy draws raise "zero local variance window" (Vasicek: 2.566).
    """
    xp, _, m, n = _prepare(sample, n)
    e = int(np.frexp(max(-xp[0], xp[-1]))[1])
    xp = np.ldexp(xp, -e)
    xp -= xp[n : n + m].mean()  # bounds cancellation in the windowed sums below
    w = 2 * n + 1
    t = np.arange(xp.size, dtype=np.float64)
    cum1 = np.concatenate([[0.0], np.cumsum(xp)])
    cum2 = np.concatenate([[0.0], np.cumsum(xp * xp)])
    cumt = np.concatenate([[0.0], np.cumsum(t * xp)])
    s1 = cum1[w:] - cum1[:-w]  # sum of window values
    s2 = cum2[w:] - cum2[:-w]  # sum of squared window values
    st = cumt[w:] - cumt[:-w]  # sum of (padded index * value)
    # numerator sum((x - xbar) * (j - i)) = sum over offsets of offset * x
    num = st - t[n : n + m] * s1
    ss = s2 - s1 * s1 / w  # sum((x - xbar)^2)
    if np.any(ss <= 0.0):
        raise DataError("zero local variance window; sample too degenerate")
    if np.any(num <= 0.0):
        raise DataError("non-positive local slope; sample too degenerate")
    value = float(-np.mean(np.log(np.ldexp(num / (m * ss), -e))))
    return EntropyEstimate(value, "correa", n, m)


_ESTIMATORS = {
    "vasicek": vasicek_entropy,
    "ebrahimi": ebrahimi_entropy,
    "correa": correa_entropy,
}


def estimate_entropy(sample, config: EntropyEstimatorConfig) -> EntropyEstimate:
    """Dispatch to the configured estimator."""
    return _ESTIMATORS[config.method](sample, config.window_n)


def entropy_moment_approximation(sample, k: int, n: int = None) -> float:
    """Entropy approximation from the order-2k log moment.

    Returns (1/2k) ln M_2k + (1/2k) ln m + ln((m+1)/(2n)): the value the
    spacing estimators approach when a single extreme observation carries
    the moment.  Leading-order only; the error term is O(1).
    """
    x = _as_sample(sample)
    m = x.size
    n = _window(m, n)
    k = _check_order(k, "order k")
    lm = log_moment(x, k)
    kk = 2 * k
    return lm / kk + math.log(m) / kk + math.log((m + 1) / (2 * n))


def mutual_information_proxy(components: SamplePanel, config: EntropyEstimatorConfig) -> float:
    """Sum of marginal entropies of a whitened component panel.

    Under a fixed whitening, rotations leave the joint entropy unchanged,
    so the rotation minimizing this sum is the most independent one
    (lower is better).  Requires centered, unit-variance columns; the
    value is only comparable across unmixings of the same data.
    """
    data = components.data
    means = np.abs(data.mean(axis=0))
    if np.any(means > 1e-6):
        j = int(np.argmax(means))
        raise DataError(
            f"column {components.column_ids[j]!r} not centered (|mean|={means[j]:.3e})"
        )
    variances = (data**2).mean(axis=0)
    if np.any(np.abs(variances - 1.0) > 1e-6):
        j = int(np.argmax(np.abs(variances - 1.0)))
        raise DataError(
            f"column {components.column_ids[j]!r} not unit variance "
            f"(var={variances[j]:.6f}); whiten the panel first"
        )
    return float(sum(estimate_entropy(data[:, j], config).value for j in range(data.shape[1])))
