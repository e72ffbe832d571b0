"""Exception types shared across the package."""


class MatGrowthError(Exception):
    """Base class for errors raised by this package."""


class MismatchError(MatGrowthError):
    """Operands live in different fields or different ambient groups."""


class CapExceeded(MatGrowthError):
    """An enumeration outgrew its configured resource cap.

    ``partial_size`` records how far the enumeration got before it was
    stopped.  A refusal ends one computation whole: a caller that wants
    to keep what else it computed calls the capped part on its own, as a
    report runs each of its steps.
    """

    def __init__(self, message: str, partial_size: int | None = None):
        super().__init__(message)
        self.partial_size = partial_size


class ParameterError(MatGrowthError):
    """A descriptor, tag, or configuration value is invalid."""
