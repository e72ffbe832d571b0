"""Exception types shared across the package."""


class MatGrowthError(Exception):
    """Base class for errors raised by this package."""


class MismatchError(MatGrowthError):
    """Operands live in different fields or different ambient groups."""


class CapExceeded(MatGrowthError):
    """An enumeration outgrew its configured resource cap.

    ``partial_size`` records how far the enumeration got before it was
    stopped, and ``partial`` may carry the result computed without the
    capped part, so callers can report progress instead of losing it.
    """

    def __init__(self, message: str, partial_size: int | None = None, partial=None):
        super().__init__(message)
        self.partial_size = partial_size
        self.partial = partial


class ParameterError(MatGrowthError):
    """A descriptor, tag, or configuration value is invalid."""
