"""Tail-focused independent component analysis for fat-tailed return panels.

Extracts maximally tail-independent components from multivariate return
panels by maximizing even-moment contrasts on whitened data, computes
tail covariance matrices, and estimates differential entropy from order
statistics to connect high-order moments with entropy.
"""

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

__all__ = [
    "__version__",
    # errors and warnings
    "TailicaError",
    "DataError",
    "NumericalError",
    "TailicaWarning",
    "TieWarning",
    "ReductionWarning",
    "DroppedDataWarning",
    # panel
    "SamplePanel",
    "BucketSplit",
    "ingest_csv",
    "read_wide_csv",
    "write_wide_csv",
    "split_buckets",
    "center",
    # moments
    "SampleExtremes",
    "extremes",
    "moment",
    "root_moment",
    "log_moment",
    # tail covariance
    "TailCovarianceMatrix",
    "tail_covariance",
    "tail_covariance_to_csv",
    # entropy
    "EntropyEstimatorConfig",
    "EntropyEstimate",
    "vasicek_entropy",
    "ebrahimi_entropy",
    "correa_entropy",
    "estimate_entropy",
    "entropy_moment_approximation",
    "mutual_information_proxy",
    "default_window",
    # whitening
    "WhiteningTransform",
    "fit_whitening",
    "apply_whitening",
    "whitening_to_csv",
    "whitening_from_csv",
    # ica
    "ContrastSpec",
    "UnmixingMatrix",
    "KktResidual",
    "fit_ica",
    "transform",
    "kkt_residual",
    "amari_index",
    "unmixing_to_csv",
    "unmixing_from_csv",
    # evaluation
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
]
