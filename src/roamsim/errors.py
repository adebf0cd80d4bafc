"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError (raised where a setting is
checked, and also a ValueError) -> 1, DataError -> 2, EndpointError -> 3.
"""

from __future__ import annotations


class RoamsimError(Exception):
    """Base class for all package errors."""


class ConfigError(RoamsimError, ValueError):
    """Invalid or conflicting settings."""


class DataError(RoamsimError):
    """Problem with trace data, plans, or reports."""


class TraceFormatError(DataError):
    """Malformed trace input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"{message} at line {line}")


class SearchSpaceError(DataError):
    """Brute-force plan enumeration would exceed the search-space guard."""


class EndpointError(RoamsimError):
    """A live completion endpoint was required, and no call to it succeeded."""
