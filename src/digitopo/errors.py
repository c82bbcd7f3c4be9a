"""Exception types shared across the package.

Each type carries the command-line exit code of the errors it covers as
``exit_code``; ``cli_dispatch`` returns it.
"""

__all__ = [
    "DigitopoError",
    "ParseError",
    "NoSuchComponentError",
    "RepairDidNotConverge",
    "InvalidSurfaceError",
    "PreconditionFailure",
]


class DigitopoError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParseError(DigitopoError):
    """A file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NoSuchComponentError(DigitopoError):
    """A component id outside 1..count was requested."""


class RepairDidNotConverge(DigitopoError):
    """Repair could not reach a clean grid: it hit its action cap, or
    came back to a state it had already been in, so it would repeat
    forever."""

    exit_code = 3


class InvalidSurfaceError(DigitopoError):
    """A point set does not classify as a valid closed digital surface."""


class PreconditionFailure(DigitopoError):
    """Formula preconditions failed and the oracle fallback was disabled."""

    exit_code = 2


class _SurfaceFormulaRefused(PreconditionFailure, InvalidSurfaceError):
    """A surface failed the genus formula and the oracle fallback was
    disabled. Callers catch it as either base."""
