"""Exception hierarchy shared across the package.

Everything raised on bad data derives from :class:`InkError` so callers can
catch one type at pipeline boundaries (the CLI maps it to exit code 1). Any
``InkError`` may carry the 1-based line number of the offending line, which
then prefixes its message as ``line N:``.
"""


class InkError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")

    def in_file(self, path) -> "InkError":
        """This error with its message prefixed by ``path``; ``line`` is kept."""
        exc = type(self)(f"{path}: {self}")
        exc.line = self.line
        return exc


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
