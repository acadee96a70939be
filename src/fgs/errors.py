"""Exception types shared across the package."""


def placed(message: str, line: int, col: int) -> str:
    """*message* ending with the position of the form it is about."""
    return f"{message} (line {line}, col {col})"


class FgsError(Exception):
    """Base class for all errors raised by this package."""


class PddlParseError(FgsError):
    """Syntax or unsupported-feature error while reading a PDDL file."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else placed(message, line, col))


class ValidationError(FgsError):
    """A parsed model or data file violates a structural invariant."""


class GroundingError(FgsError):
    """Grounding failed: bad schema instantiation or explosion guard tripped."""


class ConfigError(FgsError):
    """Invalid search / scoring / experiment configuration."""


class InternalError(FgsError):
    """A broken internal invariant, e.g. an invalid extracted plan."""
