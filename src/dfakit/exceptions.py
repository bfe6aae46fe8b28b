"""Exception hierarchy shared by all dfakit modules.

Everything derives from DFAError so callers can catch numeric/domain
problems with a single except clause (the CLI maps DFAError to exit
code 4).
"""


class DFAError(Exception):
    """Base class for all dfakit errors."""


class ScaleTooSmallError(DFAError, ValueError):
    """Scale s is too small for the requested detrending order."""


class ScaleExceedsLengthError(DFAError, ValueError):
    """Scale s is larger than the input series."""


class DimensionMismatchError(DFAError, ValueError):
    """Window length does not match the paired weight matrix."""


class OrderZeroUnsupportedError(DFAError, ValueError):
    """The increment form requires detrending order m >= 1."""


class InsufficientLagsError(DFAError, ValueError):
    """A tabulated correlation model does not cover the required lags."""


class NonFiniteValueError(DFAError, ValueError):
    """A value marked present is NaN or infinite."""


class AllPairsMissingError(DFAError, ValueError):
    """No window contains any non-missing pair at this scale."""


class TooFewPointsError(DFAError, ValueError):
    """Fewer than three defined scales available for the log-log fit."""


class NonpositiveCorrectionError(DFAError, ValueError):
    """Correction factor K^2, or its prefactor lambda, must be positive."""


class ModelSpecError(DFAError, ValueError):
    """A JSON model spec names no known kind or bad parameters."""


class EmbeddingError(DFAError, ArithmeticError):
    """Circulant embedding failed and no fallback applies."""
