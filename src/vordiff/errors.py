"""Exception types shared across the library, and the rules for counts and reals."""

import math
from numbers import Integral


class VordiffError(Exception):
    """Base class for all library errors."""


class DomainError(VordiffError, ValueError):
    """Input outside the domain or preconditions of an operation."""


def _count(value, name, lo=1):
    """value as an int; DomainError unless it is an integer (not a bool) >= lo.
    A numpy scalar or 0-d array is taken as its element."""
    n = value.item() if getattr(value, "ndim", None) == 0 else value
    if isinstance(n, bool) or not isinstance(n, Integral) or n < lo:
        raise DomainError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(n)


def _real(value, name, lo=0, positive=False):
    """value as a float; DomainError unless it is finite and > 0 (positive) or >= lo."""
    if value is None or not (value > 0 if positive else value >= lo) or not math.isfinite(value):
        rule = "positive and finite" if positive else f"finite and >= {lo}"
        raise DomainError(f"{name} must be {rule}, got {value}")
    return float(value)


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
