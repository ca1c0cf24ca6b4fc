"""Exception hierarchy shared across the package.

Everything raised on bad data derives from :class:`InkError` so callers can
catch one type at pipeline boundaries (the CLI maps it to exit code 1). The
parser that finds a bad line passes its 1-based number as ``line``, which
prefixes the message as ``line N:``; ``model.read_input``, the one reader of
input files, puts the file's path in front of that, once.
"""


class InkError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class FormatError(InkError):
    """A task file (or profile/config file) is malformed."""


class RangeError(InkError):
    """A value lies outside its documented range (channel, parameter, p-value)."""


class TooShortError(InkError):
    """A signal or series has fewer samples than the operation requires."""


class EmptyInputError(InkError):
    """An operation received an empty series or an empty pair list."""


class ShapeError(InkError):
    """Signal channels have mismatched lengths, or a channel or series is not 1-D."""


class DuplicateError(InkError):
    """Two records share the same (subject, set, task) key."""


class InsufficientDataError(InkError):
    """A paired comparison has no subject with both required records."""


class ConfigError(InkError):
    """A generator profile or run configuration is invalid."""
