"""Exceptions and argument validation shared by all modules.

The computational domain is fixed once and for all: coupling nu >= 1/2,
angles strictly inside (0, pi), and a strictly positive dimensionless time
lambda.  Boundary angles are rejected rather than clamped; the eigenfunctions
vanish there but the reflection-sum routes contain 1/sin(theta) factors that
do not.

The library has two layers, and calls run in one direction.  A public entry
point checks each of its arguments once (the three scalar path sums share
their checks, ``pathsum._point_estimate``) and calls private cores, which take
checked values and check nothing.  No private function calls a checked public
entry point, and no public one re-checks its arguments through another public
one.  The exceptions, each with its reason:

* ``verify.run_suites`` and ``verify._chain_devs`` call the public API by
  design: they verify it.
* ``verify.evaluate_method`` delegates to the scalar kernels and checks
  nothing itself.
* ``closedform._bessel_product`` and ``verify.check_gaussian_bessel_link``
  call ``specfun.bessel_i_scaled``: its refusals of an argument that is not
  positive and finite (``1 / lambda`` is inf at a subnormal lambda) and of a
  NaN value are their own refusals, and ``tools/cli_cmp.py`` pins the
  closed form's at ``--lambda-chain 0.4,1e-320``.

The command line is a caller of the library, not a layer of it: it checks
each flag under the flag's own name before it calls the public entry points.
"""

import math
import numbers

import numpy as np

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


def require_angles(thetas) -> np.ndarray:
    """The angles of a profile (a scalar or a vector) as floats, each strictly inside (0, pi)."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim > 1 or not ((thetas > 0.0) & (thetas < math.pi)).all():  # NaN fails both tests
        raise DomainError("profile angles must lie strictly inside (0, pi)")
    return thetas


def require_index(n, low: int, rule: str) -> int:
    """An integer >= ``low`` (any integer type, numpy's too); else ``DomainError`` stating ``rule``, the condition on it."""
    if not isinstance(n, numbers.Integral) or n < low:
        raise DomainError(f"{rule} (an integer), got {n!r}")
    return int(n)


def require_count(n, name: str, cap: float = math.inf) -> int:
    """A count of modes or images in [1, ``cap``]; any integer type passes (numpy's too), and 2.5 is refused, not rounded."""
    if not isinstance(n, numbers.Integral) or not 1 <= n <= cap:
        raise DomainError(f"{name} must be an integer in [1, {cap}], got {n!r}")
    return int(n)
