"""Exception types shared across the package.

Config errors carry the offending field name so the CLI can report it and
exit with the dedicated config-error status.
"""

__all__ = [
    "PulseBanditError",
    "ParameterError",
    "InputError",
    "ConfigError",
    "FitError",
    "PersistenceError",
    "NumericalError",
    "UsageError",
    "EnvError",
    "EndOfLog",
]


class PulseBanditError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(PulseBanditError, ValueError):
    """A constructor or operation received an invalid parameter."""


class InputError(PulseBanditError, ValueError):
    """A runtime input (vector, reward, history) is malformed or non-finite."""


class ConfigError(PulseBanditError, ValueError):
    """An experiment config is invalid.  `field` names the bad entry."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class FitError(PulseBanditError, RuntimeError):
    """An estimator could not be fit (e.g. rank-deficient design)."""


class PersistenceError(PulseBanditError, RuntimeError):
    """A save/load round trip failed.  `field` names the offending entry."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"field '{field}': {message}")
        self.field = field


class NumericalError(PulseBanditError, RuntimeError):
    """Internal numerical state became inconsistent (e.g. loss of positive
    definiteness that survives a full refactorization)."""


class UsageError(PulseBanditError, RuntimeError):
    """An operation was called on an object that does not support it."""


class EnvError(PulseBanditError, RuntimeError):
    """An environment produced or was asked to produce invalid data."""


class EndOfLog(PulseBanditError):
    """Raised by replay streams when fewer unconsumed rows remain than the
    requested candidate count, or their horizon is served."""
