"""Tail covariance matrices: mixed moments E(s_i * s_j^(2k-1)).

At k=1 this is the ordinary covariance matrix (1/m convention).  For
k > 1 the matrix is generally asymmetric: entry (i, j) weights column i
by the (2k-1)-th power of column j, so column j's tail events dominate.
As k grows, entry (i, j) is driven entirely by column j's single largest
absolute observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .moments import _check_order, _column_moments, _scaled_powers
from .panel import SamplePanel, _csv_text, _frozen

__all__ = [
    "TailCovarianceMatrix",
    "tail_covariance",
    "tail_covariance_to_csv",
]


@dataclass(frozen=True)
class TailCovarianceMatrix:
    """Order-k tail covariance of a component panel."""

    order_k: int
    values: np.ndarray
    component_ids: tuple

    def __post_init__(self):
        values = _frozen(self.values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataError(f"tail covariance must be square, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DataError("tail covariance has non-finite entries")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "component_ids", tuple(self.component_ids))

    @property
    def d(self) -> int:
        return self.values.shape[0]


def _check_centered(data: np.ndarray, column_ids) -> None:
    means = np.abs(data.mean(axis=0))
    scales = np.array(_column_moments(data, 2, root=True))  # each column's RMS
    bad = means > 1e-8 * np.maximum(scales, 1e-300)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise DataError(
            f"column {column_ids[j]!r} is not centered "
            f"(|mean|={means[j]:.3e}, scale={scales[j]:.3e}); center the panel first"
        )


def tail_covariance(
    components: SamplePanel, k: int, check_centered: bool = True
) -> TailCovarianceMatrix:
    """Order-k tail covariance: entry (i,j) = mean over rows of s_i * s_j^(2k-1).

    Columns are expected to be centered; ``check_centered=False`` skips the
    check for raw mixed-moment use (diagnostics on uncentered series).
    Each power column is rescaled by an exact power of two bracketing its
    max absolute value before summation, so sums never overflow and match
    direct evaluation bit for bit when the direct form (``abs(s_j)`` powered,
    the sign of ``s_j`` restored) is in range.  An entry beyond the float64
    range raises :class:`NumericalError`.
    """
    k = _check_order(k, "order k")
    data = components.data
    if check_centered:
        _check_centered(data, components.column_ids)
    m, d = data.shape
    powers, exp2 = _scaled_powers(data, 2 * k - 1)
    values = data.T @ powers / m
    with np.errstate(over="ignore"):
        values = np.ldexp(values, (exp2 * (2 * k - 1))[np.newaxis, :])
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"tail covariance of order k={k} exceeds the float64 range")
    return TailCovarianceMatrix(k, values, components.column_ids)


def tail_covariance_to_csv(tc: TailCovarianceMatrix) -> str:
    """Matrix as CSV with an id header row and id-labelled rows."""
    ids = tc.component_ids
    return _csv_text([("id", *ids)] + [(cid, *row) for cid, row in zip(ids, tc.values.tolist())])
