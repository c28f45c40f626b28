"""Exception and warning types shared across the package."""


class TailicaError(Exception):
    """Base class for all package errors."""


class DataError(TailicaError):
    """Invalid or degenerate input data (bad files, malformed rows, constant samples)."""


class NumericalError(TailicaError):
    """A numerical procedure failed (singular matrices, non-convergent decompositions)."""


class TailicaWarning(UserWarning):
    """Base class for all package warnings."""


class TieWarning(TailicaWarning):
    """Exactly opposite extremes made an odd-order root moment ambiguous."""


class ReductionWarning(TailicaWarning):
    """Requested dimension was reduced (eigenvalue floor, degenerate columns)."""


class DroppedDataWarning(TailicaWarning):
    """Input rows, columns or symbols were dropped during cleaning."""
