"""Exception taxonomy for the ellipsym package.

All exceptions derive from :class:`EllipsymError` so callers can catch the
package's failures with a single except clause.  The split mirrors how the
CLI maps failures to exit codes: usage errors (bad options) exit with 2,
everything else with 1.
"""

import numbers


class EllipsymError(Exception):
    """Base class for all errors raised by ellipsym."""


class UsageError(EllipsymError, ValueError):
    """An argument or option is invalid (wrong flag, parameter out of range)."""


class DomainError(EllipsymError, ValueError):
    """The data violate a mathematical precondition (singular covariance,
    observation at the location, too few rows)."""


class ParseError(EllipsymError, ValueError):
    """A cell of an input file could not be parsed as a number."""


class DataError(EllipsymError, ValueError):
    """An input file contains a missing or non-finite value."""


class NumericError(EllipsymError, ArithmeticError):
    """A computation produced an unusable intermediate (vanishing
    denominator, non-positive variance estimate)."""


class ConvergenceError(NumericError):
    """An iterative procedure failed to converge within its iteration cap."""


def _integer(name: str, value, low=None) -> int:
    """``value`` as an int of at least ``low``; numpy integers count as
    integers, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise UsageError(f"{name} must be at least {low}, got {value}")
    return int(value)


def _number(name: str, value) -> float:
    """``value`` as a float; numpy reals count as real numbers, bools,
    strings, complex values and Decimals do not.  The caller checks the range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the double range
        raise UsageError(f"{name} lies beyond the double range") from None
