"""Exception types shared across the package."""


class CmtypeError(Exception):
    """Base class for all errors raised by cmtype."""


class ArgumentError(CmtypeError):
    """Invalid user input (bad generators, malformed expressions, ...)."""


class ParseError(ArgumentError):
    """Syntax error in a series expression.  Carries the offset of the
    offending character so the CLI can print a caret."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimensionError(CmtypeError):
    """Matrix/vector shape mismatch."""


class ContainmentError(CmtypeError):
    """An operation required J to be contained in I and it was not."""


class ConsistencyError(CmtypeError):
    """Two independent computations of the same quantity disagreed.

    This is raised loudly: it means either an implementation bug or a
    falsified identity, never bad user input.
    """


class ResourceLimitError(ArgumentError):
    """An input would exceed a configured size cap: an enumeration's count, a conductor."""
