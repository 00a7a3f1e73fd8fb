"""Exception types shared across the package."""

from __future__ import annotations


class ChromaboundError(Exception):
    """Base class for all package-specific errors."""


class GraphParseError(ChromaboundError):
    """Malformed graph input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceLimitError(ChromaboundError):
    """An exhaustive routine was asked to exceed its configured cap."""


class InconclusiveError(ChromaboundError):
    """A certified numeric check could neither pass nor fail.

    Raised when a bound's minimization stops before its bracket reaches
    the tolerance, and when a truncated series sum exceeds the level
    that the exact sum meets at the computed saturation point, so the
    point is not confirmed.
    """
