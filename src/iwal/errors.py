"""Exception types shared across the package."""


class IwalError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(IwalError, ValueError):
    """Feature vector dimension does not match the predictor or dataset."""


class PredictionDomainError(IwalError, ValueError):
    """Prediction lies outside the configured prediction range."""


class UnsupportedLossError(IwalError, ValueError):
    """Operation is undefined for this loss kind (e.g. derivatives of hinge)."""


class ThresholdContractError(IwalError, RuntimeError):
    """A rejection threshold returned a probability outside [0, 1]."""


class InfeasibleStartError(IwalError, RuntimeError):
    """No strictly feasible starting point is available for the solver."""


class SolverConvergenceError(IwalError, RuntimeError):
    """A Newton solve failed to converge; carries the last iterate."""

    def __init__(self, message, iterate=None, diagnostics=None):
        super().__init__(message)
        self.iterate = iterate
        self.diagnostics = diagnostics


class DatasetFormatError(IwalError, ValueError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class ConfigError(IwalError, ValueError):
    """Invalid experiment configuration."""
