"""Package errors in three families, one CLI exit code each."""


class MgkdError(Exception):
    """Base class for all package errors."""


class ConfigError(MgkdError):
    """A config value is out of range, or generation cannot meet it."""


class DataError(MgkdError):
    """Input data, a model file or array shapes cannot serve the run."""


class TrainingError(MgkdError):
    """Training produced non-finite values: the run diverged."""
