"""Exception and warning taxonomy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
capability limits exit 3, numeric failures exit 4, validation failures 5.
A malformed rectangle or face, or a point outside it, is a DomainError:
a ConfigError, since a config's domain is input, and a ValueError, since a
library caller's is an argument.
``config_number`` converts every number of a config, a field spec or a
flag, so each malformed one is a ConfigError; ``finite_levels`` checks
every level vector, of a config or of a library call.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "ExcursionError",
    "ConfigError",
    "DomainError",
    "CapabilityError",
    "NumericError",
    "QuadratureError",
    "DegeneracyError",
    "DegenerateModelError",
    "ModelInconsistencyError",
    "AmbiguousMaximizerError",
    "ClassificationError",
    "QuadratureWarning",
    "config_number",
    "finite_levels",
    "is_integer",
    "is_real",
]


class ExcursionError(Exception):
    """Base class for package errors."""


class ConfigError(ExcursionError):
    """Malformed configuration, flags, or input files."""


class DomainError(ConfigError, ValueError):
    """Raised for malformed rectangles and faces, or points outside them."""


class CapabilityError(ExcursionError):
    """Request outside the supported envelope (dimension caps, model kinds)."""


class NumericError(ExcursionError):
    """Numeric failure: singular systems, non-finite values, bad geometry."""


class QuadratureError(NumericError):
    """Non-finite integrand or unusable quadrature input."""


class DegeneracyError(NumericError):
    """Singular conditioning block or covariance."""


class DegenerateModelError(NumericError):
    """Covariance structure too ill-conditioned to invert reliably."""


class ModelInconsistencyError(NumericError):
    """Model produced an impossible quantity (e.g. a negative variance)."""


class AmbiguousMaximizerError(NumericError):
    """Variance maximizer not unique within tolerance."""


class ClassificationError(NumericError):
    """Critical point does not fit a supported classification."""


class QuadratureWarning(UserWarning):
    """Adaptive quadrature stopped before reaching its tolerance."""


def config_number(kind, value, what: str):
    """kind(value) for a config or flag value; ConfigError unless value is
    a number (an int or a float, not a bool: a JSON string that spells a
    number is not one), or when an int setting is given a non-integral
    number."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError("not a number")
        out = kind(value)
        if kind is int and isinstance(value, float) and out != value:
            raise ValueError("not integral")
        return out
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}") from exc


def is_integer(value) -> bool:
    """Whether value is a Python or NumPy integer (a bool is not one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether value is a Python or NumPy real number (a bool is not one)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def finite_levels(levels) -> tuple[float, ...]:
    """The levels as a tuple of floats; ConfigError naming the first level
    that is not finite."""
    out = tuple(float(u) for u in levels)
    for u in out:
        if not math.isfinite(u):
            raise ConfigError(f"levels must be finite, got {u}")
    return out
