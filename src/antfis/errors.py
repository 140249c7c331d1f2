"""Exception types shared across the package, each with its exit code."""


class AntfisError(Exception):
    """Base class for errors raised by this package."""
    exit_code = 3


class UsageError(AntfisError, ValueError):
    """A parameter is out of range; the message names its flag."""
    exit_code = 1


class DataError(AntfisError):
    """Input data is missing, malformed, or violates an invariant."""
    exit_code = 2


class NumericError(AntfisError):
    """A numerical procedure cannot produce a valid result."""
    exit_code = 3
