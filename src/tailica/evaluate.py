"""End-to-end experiment harness: calibrate on one date bucket, test on the next.

The pipeline splits a return panel at a boundary date, fits whitening and
an unmixing per contrast order on the in-sample bucket, pushes both
buckets through, and reports tail statistics of the resulting components:
per-component quantiles and root moments, pooled histograms on symmetric
log-spaced bins, and the moment-vs-entropy scatter per symbol.  A seeded
synthetic market generator stands in for proprietary return data.
"""

from __future__ import annotations

import datetime
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .entropy import EntropyEstimatorConfig, estimate_entropy
from .errors import DataError, DroppedDataWarning
from .ica import ContrastSpec, UnmixingMatrix, fit_ica, kkt_residual, transform
from .moments import _as_sample, _check_order, _column_moments, _scaled_powers
from .panel import BucketSplit, SamplePanel, _check_date, _csv_text, center, split_buckets
from .whiten import WhiteningTransform, apply_whitening, fit_whitening

__all__ = [
    "QUANTILE_LEVELS",
    "TailReport",
    "ScatterRecord",
    "SyntheticMarketSpec",
    "ExperimentArtifacts",
    "generate_market",
    "equal_weight_portfolio",
    "tail_histogram",
    "build_tail_report",
    "scatter_moment_entropy",
    "run_experiment_artifacts",
    "report_to_dict",
    "histogram_to_csv",
    "scatter_to_csv",
]

QUANTILE_LEVELS = (0.001, 0.01, 0.99, 0.999)
CORE_HALF_WIDTH = 2.0  # tail_histogram's bins, which no caller varies
CORE_BINS = 41
TAIL_BINS = 30
_MARKET_BLOCK_ROWS = 1024  # rows of the factor term generate_market makes at a time


@dataclass(frozen=True)
class TailReport:
    """Tail statistics of a component panel for one (contrast order, bucket)."""

    k: int
    bucket: str
    component_ids: tuple
    m: int
    quantiles: np.ndarray  # len(QUANTILE_LEVELS) x d, per component
    root_moments: np.ndarray  # order-2k root moment per component
    excess_kurtosis: np.ndarray
    bin_edges: np.ndarray  # pooled histogram over all component returns
    counts: np.ndarray
    portfolio_bin_edges: np.ndarray  # histogram of the equal-weight portfolio
    portfolio_counts: np.ndarray
    pooled_abs_q999: float
    central_mass: float  # fraction of pooled |returns| below 1

    def __post_init__(self):
        d = len(self.component_ids)
        if self.quantiles.shape != (len(QUANTILE_LEVELS), d):
            raise DataError(f"quantile block has shape {self.quantiles.shape}")
        if np.any(np.diff(self.quantiles, axis=0) < 0.0):
            raise DataError("per-component quantiles are not monotone")
        if int(self.counts.sum()) != self.m * d:
            raise DataError(
                f"pooled histogram counts sum to {int(self.counts.sum())}, "
                f"expected m*d = {self.m * d}"
            )
        if int(self.portfolio_counts.sum()) != self.m:
            raise DataError("portfolio histogram counts do not sum to m")


@dataclass(frozen=True)
class ScatterRecord:
    """One symbol's (root moment, entropy) point for the association plot."""

    column_id: str
    root_moment_10: float
    entropy: float
    bucket: str

    def __post_init__(self):
        if not (math.isfinite(self.root_moment_10) and math.isfinite(self.entropy)):
            raise DataError(f"non-finite scatter record for {self.column_id!r}")


@dataclass(frozen=True)
class SyntheticMarketSpec:
    """Factor-driven Student-t market with a late crash regime.

    Assets load on one common factor; idiosyncratic shocks are Student-t
    with per-asset tail exponent drawn from ``nu_range`` (use infinities
    for a Gaussian market).  The factor mixes in rare fixed-size "tremor"
    days throughout, and from ``crash_start`` (fraction of the sample
    range) onward, factor draws are amplified by ``crash_scale`` with
    probability ``crash_prob`` per day, so the crash regime can be placed
    entirely in the out-of-sample bucket.  Returns are in percent.
    """

    n_assets: int = 50
    m_samples: int = 4000
    nu_range: tuple = (3.0, 8.0)
    nu_factor: float = 8.0
    loading_range: tuple = (0.3, 0.8)
    vol_range: tuple = (0.7, 1.4)
    tremor_prob: float = 0.015
    tremor_scale: float = 3.5
    crash_prob: float = 0.05
    crash_scale: float = 4.5
    crash_start: float = 0.5
    start_date: str = "2014-01-01"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_assets", _check_order(self.n_assets, "n_assets", error=DataError))
        object.__setattr__(self, "m_samples", _check_order(self.m_samples, "m_samples", 2, DataError))
        lo, hi = self.nu_range
        if not (lo <= hi) or lo <= 2.0:
            raise DataError(f"nu_range must satisfy 2 < lo <= hi, got {self.nu_range}")
        if math.isinf(lo) != math.isinf(hi):
            raise DataError("nu_range endpoints must be both finite or both infinite")
        if not self.nu_factor > 2.0:
            raise DataError(f"nu_factor must exceed 2, got {self.nu_factor}")
        blo, bhi = self.loading_range
        if not (0.0 <= blo <= bhi <= 1.0):
            raise DataError(f"loading_range must lie in [0, 1], got {self.loading_range}")
        vlo, vhi = self.vol_range
        if not (0.0 < vlo <= vhi < math.inf):
            raise DataError(f"vol_range must be positive and finite, got {self.vol_range}")
        for name in ("tremor_prob", "crash_prob", "crash_start"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise DataError(f"{name} must lie in [0, 1], got {value}")
        for name in ("tremor_scale", "crash_scale"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise DataError(f"{name} must be non-negative and finite, got {getattr(self, name)}")
        start = datetime.date.fromisoformat(_check_date(self.start_date, "start_date"))
        if start.toordinal() + self.m_samples - 1 > datetime.date.max.toordinal():
            raise DataError(f"{self.m_samples} daily rows from {self.start_date} run past 9999-12-31")


def _standardized_t(rng, df, size):
    """Unit-variance Student-t draws; infinite df means Gaussian."""
    df = np.asarray(df, dtype=np.float64)
    if np.all(np.isinf(df)):
        return rng.standard_normal(size)
    draws = rng.standard_t(df, size)
    draws /= np.sqrt(df / (df - 2.0))
    return draws


def generate_market(spec: SyntheticMarketSpec) -> SamplePanel:
    """Deterministic synthetic return panel from a market spec, built in place in
    its one draw array: generation holds about 1.25 times the panel."""
    n = spec.n_assets
    m = spec.m_samples
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.nu_range
    nus = np.full(n, np.inf) if math.isinf(lo) else rng.uniform(lo, hi, n)
    betas = rng.uniform(spec.loading_range[0], spec.loading_range[1], n)
    vols = rng.uniform(spec.vol_range[0], spec.vol_range[1], n)
    factor = _standardized_t(rng, spec.nu_factor, m)
    idio = _standardized_t(rng, nus[np.newaxis, :], (m, n))
    tremor_u = rng.random(m)
    tremor_sign = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    crash_u = rng.random(m)
    tremor_days = tremor_u < spec.tremor_prob
    factor = np.where(tremor_days, spec.tremor_scale * tremor_sign, factor)
    crash_days = (crash_u < spec.crash_prob) & (
        np.arange(m) >= spec.crash_start * m
    )
    factor = np.where(crash_days, factor * spec.crash_scale, factor)
    data = idio  # vols * (betas * factor + sqrt(1 - betas**2) * idio), bit for bit
    data *= np.sqrt(1.0 - betas**2)
    for lo in range(0, m, _MARKET_BLOCK_ROWS):
        block = data[lo : lo + _MARKET_BLOCK_ROWS]
        block += betas * factor[lo : lo + _MARKET_BLOCK_ROWS, np.newaxis]
        block *= vols
    data.flags.writeable = False
    start = datetime.date.fromisoformat(spec.start_date)
    dates = tuple((start + datetime.timedelta(days=i)).isoformat() for i in range(m))
    ids = tuple(f"S{i + 1:04d}" for i in range(n))
    return SamplePanel(data, ids, dates)


def equal_weight_portfolio(components: SamplePanel) -> np.ndarray:
    """Row means: the return series of an equally weighted portfolio."""
    return components.data.mean(axis=1)


def tail_histogram(values):
    """Histogram on a linear core plus symmetric log-spaced tails.

    Edges: ``CORE_BINS`` linear bins on [-w, w] with w = ``CORE_HALF_WIDTH``
    and ``TAIL_BINS`` log-spaced bins per side out to just past the largest
    absolute value, 101 bins in all.  Returns (edges, counts); counts
    always sum to ``len(values)``.
    """
    v = _as_sample(values)
    w = CORE_HALF_WIDTH
    limit = max(float(np.abs(v).max()) * (1.0 + 1e-9), 1.25 * w)
    tail = np.geomspace(w, limit, TAIL_BINS + 1)
    core = np.linspace(-w, w, CORE_BINS + 1)
    edges = np.concatenate([-tail[::-1], core[1:-1], tail])
    counts, _ = np.histogram(v, edges)
    return edges, counts


def build_tail_report(components: SamplePanel, k: int, bucket: str) -> TailReport:
    """Tail statistics of a component panel (see :class:`TailReport`)."""
    k = _check_order(k, "order k")
    data = components.data
    quantiles = np.quantile(data, QUANTILE_LEVELS, axis=0)
    roots = np.array(_column_moments(data, 2 * k, root=True))
    m2, m4 = (_scaled_powers(data, p)[0].mean(axis=0) for p in (2, 4))  # kurtosis is scale-free
    if np.any(m2 == 0.0):
        raise DataError("constant component column; kurtosis undefined")
    kurtosis = m4 / m2**2 - 3.0
    pooled = data.ravel()
    edges, counts = tail_histogram(pooled)
    portfolio = equal_weight_portfolio(components)
    p_edges, p_counts = tail_histogram(portfolio)
    abs_pooled = np.abs(pooled)
    return TailReport(
        k=k,
        bucket=str(bucket),
        component_ids=components.column_ids,
        m=data.shape[0],
        quantiles=quantiles,
        root_moments=roots,
        excess_kurtosis=kurtosis,
        bin_edges=edges,
        counts=counts,
        portfolio_bin_edges=p_edges,
        portfolio_counts=p_counts,
        pooled_abs_q999=float(np.quantile(abs_pooled, 0.999)),
        central_mass=float(np.mean(abs_pooled < 1.0)),
    )


def scatter_moment_entropy(
    panel: SamplePanel, bucket_label: str, entropy_config: EntropyEstimatorConfig = None
) -> list:
    """Per-symbol (order-10 root moment, entropy) records.

    Columns are centered by ``center``, the one centring rule (each column's
    own overflow-safe mean; ``fit_whitening`` keeps the mean whose bits saved
    fits carry), before the root moment (moments are defined for centered
    variables); entropy is translation-invariant so the raw column is passed
    through.  A column whose entropy estimate raises ``DataError`` (a
    constant column, or one of many tied zeros such as a late-listed symbol
    filled with 0.0) is skipped with a warning that names the reason.
    """
    config = entropy_config or EntropyEstimatorConfig()
    roots = _column_moments(center(panel).data, 10, root=True)
    records = []
    skipped = {}  # reason -> column ids
    for j, cid in enumerate(panel.column_ids):
        try:
            entropy = estimate_entropy(panel.data[:, j], config).value
        except DataError as exc:
            skipped.setdefault(str(exc), []).append(cid)
            continue
        records.append(ScatterRecord(cid, roots[j], entropy, str(bucket_label)))
    if skipped:
        text = (f"skipped {len(ids)} columns ({why}): " + ", ".join(ids[:10]) for why, ids in skipped.items())
        warnings.warn("; ".join(text), DroppedDataWarning, stacklevel=2)
    return records


@dataclass(frozen=True)
class ExperimentArtifacts:
    """Everything a calibration run produces, keyed by contrast order."""

    split: BucketSplit
    whitening: WhiteningTransform
    unmixings: dict  # k -> UnmixingMatrix
    reports: list  # TailReport, ordered (k, in) then (k, out) per k
    kkt: dict  # k -> in-sample KktResidual of the fitted unmixing
    identity_kkt: dict  # k -> in-sample KktResidual of the identity unmixing
    scatter_in: list
    scatter_out: list


def run_experiment_artifacts(
    panel: SamplePanel,
    boundary: str,
    d: int,
    k_list,
    entropy_config: EntropyEstimatorConfig = None,
    seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 1000,
    standardize: bool = False,
) -> ExperimentArtifacts:
    """Calibrate on the in-sample bucket; report and diagnose both buckets.

    Contrast orders are fitted one after another on the calling thread, in
    ``k_list`` order; each fit's component panels are dropped once its
    reports are taken.  The call starts no thread, so the BLAS library's
    own threads are its only parallelism.
    """
    contrasts = [ContrastSpec(k) for k in k_list]
    k_list = [c.k for c in contrasts]
    if not k_list:
        raise ValueError("k_list must not be empty")
    if len(set(k_list)) != len(k_list):
        raise ValueError(f"duplicate contrast orders in k_list: {k_list}")
    entropy_config = entropy_config or EntropyEstimatorConfig()
    split = split_buckets(panel, boundary)
    whitening = fit_whitening(split.in_sample, d, standardize=standardize)
    z_in = apply_whitening(whitening, split.in_sample)
    z_out = apply_whitening(whitening, split.out_sample)
    identity = UnmixingMatrix(
        w=np.eye(whitening.d), k=1, seed=int(seed), iterations=0, converged=True
    )
    unmixings = {}
    reports = []
    kkt = {}
    identity_kkt = {}
    for contrast in contrasts:
        k = contrast.k
        unmixing = fit_ica(z_in, contrast, seed=seed, tol=tol, max_iter=max_iter)
        unmixings[k] = unmixing
        reports.append(build_tail_report(transform(unmixing, z_in), k, "in"))
        reports.append(build_tail_report(transform(unmixing, z_out), k, "out"))
        kkt[k] = kkt_residual(z_in, unmixing, k)
        identity_kkt[k] = kkt_residual(z_in, identity, k)
    return ExperimentArtifacts(
        split=split,
        whitening=whitening,
        unmixings=unmixings,
        reports=reports,
        kkt=kkt,
        identity_kkt=identity_kkt,
        scatter_in=scatter_moment_entropy(split.in_sample, "in", entropy_config),
        scatter_out=scatter_moment_entropy(split.out_sample, "out", entropy_config),
    )


def report_to_dict(report: TailReport) -> dict:
    """JSON-ready dict of a tail report (histograms ship separately as CSV)."""
    return {
        "k": report.k,
        "bucket": report.bucket,
        "m": report.m,
        "d": len(report.component_ids),
        "component_ids": list(report.component_ids),
        "quantile_levels": list(QUANTILE_LEVELS),
        "quantiles": [list(map(float, row)) for row in report.quantiles],
        "root_moments": [float(v) for v in report.root_moments],
        "excess_kurtosis": [float(v) for v in report.excess_kurtosis],
        "pooled_abs_q999": report.pooled_abs_q999,
        "central_mass": report.central_mass,
    }


def histogram_to_csv(edges, counts) -> str:
    edges, counts = np.asarray(edges).tolist(), np.asarray(counts).tolist()
    return _csv_text([("bin_left", "bin_right", "count"), *zip(edges, edges[1:], map(int, counts))])


def scatter_to_csv(records) -> str:
    header = [("symbol", "root_moment_10", "entropy")]
    return _csv_text(header + [(r.column_id, r.root_moment_10, r.entropy) for r in records])
