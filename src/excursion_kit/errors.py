"""Exception and warning taxonomy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
capability limits exit 3, numeric failures exit 4, validation failures 5.
"""

from __future__ import annotations

__all__ = [
    "ExcursionError",
    "ConfigError",
    "CapabilityError",
    "NumericError",
    "QuadratureError",
    "DegeneracyError",
    "DegenerateModelError",
    "ModelInconsistencyError",
    "AmbiguousMaximizerError",
    "ClassificationError",
    "QuadratureWarning",
]


class ExcursionError(Exception):
    """Base class for package errors."""


class ConfigError(ExcursionError):
    """Malformed configuration, flags, or input files."""


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
