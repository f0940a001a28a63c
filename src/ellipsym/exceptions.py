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


def _integer(name: str, value) -> int:
    """``value`` as an int; numpy integers count as integers, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return int(value)
