"""Exceptions and argument validation shared by all modules.

The computational domain is fixed once and for all: coupling nu >= 1/2,
angles strictly inside (0, pi), and a strictly positive dimensionless time
lambda.  Boundary angles are rejected rather than clamped; the eigenfunctions
vanish there but the reflection-sum routes contain 1/sin(theta) factors that
do not.
"""

import math

__all__ = ["DomainError", "PolicyUnresolvableError"]


class DomainError(ValueError):
    """An argument lies outside the validity domain of the model."""


class PolicyUnresolvableError(RuntimeError):
    """A truncation policy could not be satisfied within its term cap."""


def require_nu(nu: float) -> float:
    nu = float(nu)
    if not (nu >= 0.5) or not math.isfinite(nu):
        raise DomainError(f"coupling nu must satisfy nu >= 1/2, got {nu!r}")
    return nu


def require_theta(theta: float, name: str = "theta") -> float:
    theta = float(theta)
    if not (0.0 < theta < math.pi):
        raise DomainError(f"{name} must lie strictly inside (0, pi), got {theta!r}")
    return theta


def require_lambda(lam: float, name: str = "lambda") -> float:
    lam = float(lam)
    if not (lam > 0.0) or not math.isfinite(lam):
        raise DomainError(f"{name} must be positive and finite, got {lam!r}")
    return lam


def require_point(nu: float, theta: float, theta_p: float, lam: float) -> tuple[float, float, float, float]:
    """Validated ``(nu, theta, theta_p, lambda)`` of one kernel evaluation."""
    return require_nu(nu), require_theta(theta), require_theta(theta_p, "theta_p"), require_lambda(lam)
