"""Exception hierarchy shared across the package, and the one check for each
kind of setting: a count, a real number in an interval, a name from a list."""

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


def check_count(name: str, value, least: int = 1) -> None:
    """Reject anything but a non-bool Python or numpy integer >= `least` (a seed's is 0)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(name: str, value, interval: str) -> None:
    """Reject anything but a real number in `interval`: a Python or numpy real,
    not a bool and not NaN. `interval` is written as the message shows it,
    such as "[0, 1)" or "(0, inf)"."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (lo <= value if interval[0] == "[" else lo < value)
        or not (value <= hi if interval[-1] == "]" else value < hi)
    ):
        raise ConfigError(f"{name} must be a number in {interval}, got {value!r}")


def check_choice(name: str, value, choices: tuple):
    """`value` if it is one of `choices`."""
    if value not in choices:
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
    return value
