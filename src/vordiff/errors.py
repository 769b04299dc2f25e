"""Exception types shared across the library, and the rule for counts."""

from numbers import Integral


class VordiffError(Exception):
    """Base class for all library errors."""


class DomainError(VordiffError, ValueError):
    """Input outside the domain or preconditions of an operation."""


def _count(value, name, lo=1):
    """value as an int; DomainError unless it is an integer (not a bool) >= lo."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < lo:
        raise DomainError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)


class NumericalError(VordiffError):
    """A numerical step failed (non-invertible step coefficient, overflow)."""


class IllPosedExtractionError(VordiffError):
    """Mode-extraction design matrix is too ill-conditioned to trust."""


class ConfigError(VordiffError):
    """Invalid or unparsable run configuration."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line
