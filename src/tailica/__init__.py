"""Tail-focused independent component analysis for fat-tailed return panels.

Extracts maximally tail-independent components from multivariate return
panels by maximizing even-moment contrasts on whitened data, computes
tail covariance matrices, and estimates differential entropy from order
statistics to connect high-order moments with entropy.
"""

from inspect import ismodule as _ismodule

from .entropy import *
from .errors import *
from .evaluate import *
from .ica import *
from .moments import *
from .panel import *
from .tailcov import *
from .whiten import *

__version__ = "0.1.0"

# the public API is each submodule's __all__ (errors.py's public classes), imported above
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items() if not name.startswith("_") and not _ismodule(value)
)
