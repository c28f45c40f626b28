"""Tail-focused independent component analysis for fat-tailed return panels.

Extracts maximally tail-independent components from multivariate return
panels by maximizing even-moment contrasts on whitened data, computes
tail covariance matrices, and estimates differential entropy from order
statistics to connect high-order moments with entropy.
"""

from inspect import ismodule as _ismodule

from .entropy import (
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
from .errors import (
    DataError,
    DroppedDataWarning,
    NumericalError,
    ReductionWarning,
    TailicaError,
    TailicaWarning,
    TieWarning,
)
from .evaluate import (
    QUANTILE_LEVELS,
    ExperimentArtifacts,
    ScatterRecord,
    SyntheticMarketSpec,
    TailReport,
    build_tail_report,
    equal_weight_portfolio,
    generate_market,
    run_experiment_artifacts,
    scatter_moment_entropy,
    tail_histogram,
)
from .ica import (
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
from .moments import SampleExtremes, extremes, log_moment, moment, root_moment
from .panel import (
    BucketSplit,
    SamplePanel,
    center,
    ingest_csv,
    read_wide_csv,
    split_buckets,
    write_wide_csv,
)
from .tailcov import (
    TailCovarianceMatrix,
    tail_covariance,
    tail_covariance_to_csv,
)
from .whiten import (
    WhiteningTransform,
    apply_whitening,
    fit_whitening,
    whitening_from_csv,
    whitening_to_csv,
)

__version__ = "0.1.0"

# the public API is every class, function and constant imported above
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items() if not name.startswith("_") and not _ismodule(value)
)
