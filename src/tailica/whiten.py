"""PCA whitening: center, rotate and rescale a panel to identity covariance.

The fitted transform maps an n-column panel to d <= n uncorrelated
unit-variance columns, the constraint set the unmixing search moves on.
Covariance uses the 1/m convention; one beyond float64's range is a
``NumericalError``.  Constancy is read from the data, not from a rounded
covariance, and the rank floor is fixed at 1e-10 times the largest
eigenvalue.  Eigenvectors are ordered by descending eigenvalue with a
fixed sign convention (largest-magnitude coordinate positive) so
repeated fits are bitwise identical.  ``_check_white`` is the package's
one whiteness rule (means and covariance within 1e-6 of 0 and the
identity): the unmixing search and the mutual-information proxy refuse
any panel that breaks it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, ReductionWarning
from .moments import _check_order, _scaled_powers
from .panel import _BLOCK_ROWS, SamplePanel, _csv_text, _floats, _frozen, _read_records

__all__ = [
    "WhiteningTransform",
    "fit_whitening",
    "apply_whitening",
    "whitening_to_csv",
    "whitening_from_csv",
]

_EIG_FLOOR = 1e-10  # rank floor, relative to the largest eigenvalue


@dataclass(frozen=True)
class WhiteningTransform:
    """Affine map z = projection @ (x - mean) from n assets to d components."""

    mean: np.ndarray
    projection: np.ndarray
    eigenvalues: np.ndarray
    column_ids: tuple

    def __post_init__(self):
        mean = _frozen(self.mean).ravel()
        projection = _frozen(self.projection)
        eigenvalues = _frozen(self.eigenvalues).ravel()
        if projection.ndim != 2:
            raise DataError(f"projection must be 2-d, got shape {projection.shape}")
        d, n = projection.shape
        if mean.size != n:
            raise DataError(f"mean has {mean.size} entries for {n} columns")
        if eigenvalues.size != d:
            raise DataError(f"{eigenvalues.size} eigenvalues for {d} projection rows")
        if np.any(eigenvalues <= 0.0):
            raise DataError("eigenvalues must be strictly positive")
        if np.any(np.diff(eigenvalues) > 0.0):
            raise DataError("eigenvalues must be descending")
        if len(self.column_ids) != n:
            raise DataError(f"{len(self.column_ids)} column ids for {n} columns")
        for arr in (mean, projection, eigenvalues):
            if not np.all(np.isfinite(arr)):
                raise DataError("whitening transform has non-finite entries")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "column_ids", tuple(self.column_ids))

    @property
    def d(self) -> int:
        return self.projection.shape[0]

    @property
    def n(self) -> int:
        return self.projection.shape[1]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # one vector per column; make the largest-magnitude entry positive
    idx = np.abs(vectors).argmax(axis=0)
    flips = np.where(vectors[idx, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return vectors * flips[np.newaxis, :]


def _check_white(panel: SamplePanel) -> None:
    data = panel.data
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf below
        cov = data.T @ data / len(data)
        mean_err = np.abs(np.ones(len(data)) @ data / len(data)).max()
        cov_err = np.abs(cov - np.eye(data.shape[1])).max()
    if not (mean_err <= 1e-6 and cov_err <= 1e-6):  # so NaN fails too
        raise DataError(
            f"input is not white (max |mean| = {mean_err:.3e}, "
            f"max |cov - I| = {cov_err:.3e}); apply whitening first"
        )


def fit_whitening(panel: SamplePanel, d: int, standardize: bool = False) -> WhiteningTransform:
    """Fit a whitening transform on a panel, keeping the top d eigenvectors.

    Eigenvalues below 1e-10 times the largest (``_EIG_FLOOR``) are dropped
    and d is reduced to match, with a :class:`ReductionWarning`.  Constancy
    is read from the data: an all-constant panel is a ``DataError``, and so
    under ``standardize`` is any constant column.  With ``standardize`` each
    column is scaled to unit variance before PCA (correlation-matrix
    whitening), folded into the stored projection, so applying the
    transform needs no extra state.
    """
    d = _check_order(d, "d")
    n = panel.n
    if d > n:
        raise ValueError(f"d={d} exceeds the panel's {n} columns")
    if panel.m <= d:
        raise ValueError(f"need more than d={d} rows, got {panel.m}")
    x = panel.data
    constant = x[0] == x[-1]  # only these columns can be constant; scan just them
    maybe = np.flatnonzero(constant)
    constant[maybe] = np.all(x[:, maybe] == x[0, maybe], axis=0)
    if standardize and constant.any():
        raise DataError(f"column {panel.column_ids[np.argmax(constant)]!r} is constant; cannot standardize")
    if constant.all():
        raise DataError("every column is constant (all-constant panel)")
    with np.errstate(over="ignore", invalid="ignore"):  # checked on cov below
        mean = np.where(constant, x[0], x.mean(axis=0))  # a constant column centres to exact zeros
        xc = x - mean
        scale = None
        if standardize:  # root mean square of ratios to 2**exp2, so no square leaves the range
            squares, exp2 = _scaled_powers(xc, 2)
            scale = np.ldexp(np.sqrt(squares.mean(axis=0)), exp2)
            xc = xc / scale
        cov = xc.T @ xc / panel.m
    if not np.all(np.isfinite(cov)):
        raise NumericalError("covariance exceeds the float64 range; rescale the panel")
    if np.abs(cov).max() < np.finfo(np.float64).tiny:  # so the top eigenvalue is positive
        raise NumericalError("covariance underflows float64 (largest entry zero or subnormal); rescale the panel")
    eigenvalues, vectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = _fix_signs(vectors[:, order])
    keep = int(np.sum(eigenvalues >= _EIG_FLOOR * eigenvalues[0]))
    if keep < d:
        warnings.warn(
            f"requested d={d} but only {keep} eigenvalues clear the floor "
            f"{_EIG_FLOOR:g} x largest; reducing to d={keep}",
            ReductionWarning,
            stacklevel=2,
        )
        d = keep
    eigenvalues = eigenvalues[:d]
    projection = vectors[:, :d].T / np.sqrt(eigenvalues)[:, np.newaxis]
    if standardize:
        projection = projection / scale[np.newaxis, :]
    return WhiteningTransform(mean, projection, eigenvalues, panel.column_ids)


def apply_whitening(transform: WhiteningTransform, panel: SamplePanel) -> SamplePanel:
    """Project a panel through a fitted transform; columns must match training.

    The m x d result is allocated once and filled a row block at a time,
    in as few evenly sized blocks of at most ``_BLOCK_ROWS`` rows as cover
    the panel, so it takes the result plus one block of centered rows.
    With OpenBLAS 0.3.31 the blocks match the one-shot
    ``(data - mean) @ projection.T`` bit for bit; a block of a few dozen
    rows would not, as BLAS rounds such short products differently.
    """
    if panel.column_ids != transform.column_ids:
        for got, expected in zip(panel.column_ids, transform.column_ids):
            if got != expected:
                raise DataError(f"column mismatch: expected {expected!r}, got {got!r}")
        raise DataError(
            f"panel has {panel.n} columns, transform was fitted on {transform.n}"
        )
    x, m = panel.data, panel.m
    z = np.empty((m, transform.d))
    blocks = -(-m // _BLOCK_ROWS)
    bounds = [m * i // blocks for i in range(blocks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        np.matmul(x[lo:hi] - transform.mean, transform.projection.T, out=z[lo:hi])
    z.flags.writeable = False
    ids = tuple(f"pc_{i + 1:04d}" for i in range(transform.d))
    return SamplePanel(z, ids, panel.row_ids)


def whitening_to_csv(transform: WhiteningTransform) -> str:
    """Serialize as versioned CSV blocks; floats use repr for exact round-trip."""
    return _csv_text([
        ["tailica-whiten v1"],
        ["columns", *transform.column_ids],
        ["mean", *transform.mean.tolist()],
        ["eigenvalues", *transform.eigenvalues.tolist()],
        ["projection", transform.d, transform.n],
        *transform.projection.tolist(),
    ])


def whitening_from_csv(text: str) -> WhiteningTransform:
    """Read exactly ``whitening_to_csv``'s layout: its header, its four blocks in order, d rows."""
    records = _read_records(text, "tailica-whiten v1", "whitening")
    if len(records[0]) > 1:
        raise DataError("not a tailica-whiten v1 file")
    for i, key in enumerate(("columns", "mean", "eigenvalues", "projection"), start=1):
        if i == len(records):
            raise DataError(f"whitening file ends before its {key!r} block")
        if records[i][0] != key:
            raise DataError(f"unexpected block {records[i][0]!r} in whitening file, expected {key!r}")
    (_, *columns), (_, *mean), (_, *eigenvalues), shape = records[1:5]
    try:
        d, n = map(int, shape[1:])
    except ValueError:
        raise DataError(f"malformed projection header {','.join(shape)!r}") from None
    rows = records[5:]
    if len(rows) != d:
        raise DataError(f"expected {d} projection rows, found {len(rows)}")
    mean = _floats(mean, columns, "whitening mean")
    eigenvalues = _floats(eigenvalues, range(1, d + 1), "whitening eigenvalues")
    rows = [_floats(r, range(1, n + 1), f"whitening projection row {i}") for i, r in enumerate(rows, start=1)]
    return WhiteningTransform(np.array(mean), np.array(rows), np.array(eigenvalues), tuple(columns))
