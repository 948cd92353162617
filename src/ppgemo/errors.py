"""Exception hierarchy shared across the package, and the one count check."""

import numbers


class PpgEmoError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(PpgEmoError):
    """A configuration value is missing, malformed, or out of range."""


class DataError(PpgEmoError):
    """Input data violates a documented precondition."""


class ShapeError(PpgEmoError):
    """Array shape does not match what an operation expects."""


class StateError(PpgEmoError):
    """Operation invoked in an invalid order, e.g. backward before forward."""


class DivergenceError(PpgEmoError):
    """Training produced a non-finite loss or gradient."""


def check_count(name: str, value) -> None:
    """Reject anything but an integer >= 1: a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
