"""Package errors in three families: ConfigError, DataError, TrainingError."""


class MgkdError(Exception):
    """Base class for all package errors."""


class ConfigError(MgkdError):
    """A hyperparameter or config value is out of its legal range."""


class GenerationError(ConfigError):
    """Synthetic data generation could not satisfy its calibration target."""


class DataError(MgkdError):
    """Input data cannot serve the requested run, such as a missing block."""


class DimensionError(DataError):
    """Array shapes do not line up."""


class ParseError(DataError):
    """A delimited data file failed to parse."""


class SplitError(DataError):
    """A split is empty, or lacks positive or negative rows."""


class MetricError(DataError):
    """A metric cannot be computed on the given scored set."""


class TrainingError(MgkdError):
    """Training diverged (non-finite loss)."""


class NumericError(TrainingError):
    """A computation produced or received non-finite values."""


class StateError(TrainingError):
    """An operation was called with inconsistent or missing state."""
