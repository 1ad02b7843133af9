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
one.  A value object that carries arguments (``TruncationPolicy``,
``PathSumConfig``, ``QuadratureRule``, ``EvalConfig``) checks its fields when it
is built, and the functions that take one check only its type
(``require_instance``; ``None`` is the default where the signature allows it)
and trust its fields.  The exceptions, each with its reason:

* ``verify.run_suites`` and ``verify._chain_devs`` call the public API by
  design: they verify it.
* ``verify.evaluate_method`` and each method of ``verify.compare_methods``
  check the method tag and a fixed coupling once, through ``verify._route``:
  the tag picks the kernel, and is refused where it is met point by point.
* ``closedform._bessel_product`` and ``verify.check_gaussian_bessel_link``
  call ``specfun.bessel_i_scaled``: its refusals of an argument that is not
  positive and finite (``1 / lambda`` is inf at a subnormal lambda) and of a
  NaN value are their own refusals, and ``tools/cli_cmp.py`` pins the
  closed form's at ``--lambda-chain 0.4,1e-320``.

The command line is a caller of the library, not a layer of it: it checks
each flag under the flag's own name before it calls the public entry points.
Values that it builds from flags (the ``--grid-n`` grid) are built inside the
domain and checked once, by the library.
"""

import math
import numbers

import numpy as np

__all__ = ["DomainError", "PolicyUnresolvableError"]

# The most terms one row holds: the modes of a spectral sum, an eigenfunction row or an addition
# series.  At the default 1e-12 tail, 100,000 modes resolve lambda down to 1e-7 for
# nu <= 20 (87,009 modes at nu = 20); beyond that a single 160-node profile table already takes
# 128 MB, so larger counts are input errors.
_MAX_TERMS = 100_000


class DomainError(ValueError):
    """An argument lies outside the validity domain of the model."""


class PolicyUnresolvableError(RuntimeError):
    """A truncation policy could not be satisfied within its term cap."""


def require_nu(nu: float) -> float:
    try:
        nu = float(nu)
    except (TypeError, ValueError):
        raise DomainError(f"coupling nu must be a number, got {nu!r}") from None
    if not (nu >= 0.5) or not math.isfinite(nu):
        raise DomainError(f"coupling nu must satisfy nu >= 1/2, got {nu!r}")
    return nu


def require_theta(theta: float, name: str = "theta") -> float:
    try:
        theta = float(theta)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {theta!r}") from None
    if not (0.0 < theta < math.pi):
        raise DomainError(f"{name} must lie strictly inside (0, pi), got {theta!r}")
    return theta


def require_lambda(lam: float, name: str = "lambda") -> float:
    try:
        lam = float(lam)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {lam!r}") from None
    if not (lam > 0.0) or not math.isfinite(lam):
        raise DomainError(f"{name} must be positive and finite, got {lam!r}")
    return lam


def require_point(nu: float, theta: float, theta_p: float, lam: float) -> tuple[float, float, float, float]:
    """Validated ``(nu, theta, theta_p, lambda)`` of one kernel evaluation."""
    return require_nu(nu), require_theta(theta), require_theta(theta_p, "theta_p"), require_lambda(lam)


def _floats(values, name: str) -> np.ndarray:
    """``values`` as a float array; ``DomainError`` naming ``name`` where numpy cannot read them as numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be numbers, got {values!r}") from None


def require_angles(thetas) -> np.ndarray:
    """The angles of a profile (a scalar or a nonempty vector) as floats, each strictly inside (0, pi)."""
    thetas = _floats(thetas, "profile angles")
    if thetas.ndim > 1 or not thetas.size:
        raise DomainError(f"profile angles must be a scalar or a nonempty vector, got shape {thetas.shape}")
    if not ((thetas > 0.0) & (thetas < math.pi)).all():  # NaN fails both tests
        raise DomainError("profile angles must lie strictly inside (0, pi)")
    return thetas


def require_index(n, low: int, rule: str, high: float = math.inf) -> int:
    """An integer >= ``low`` (any integer type, numpy's too); else ``DomainError`` stating ``rule``, the condition on it.
    Past ``high``, the largest size that is built, ``DomainError`` before anything is allocated."""
    if not isinstance(n, numbers.Integral) or n < low:
        raise DomainError(f"{rule} (an integer), got {n!r}")
    if n > high:
        raise DomainError(f"{rule} and at most {high}, got {n!r}")
    return int(n)


def require_instance(value, kind: type, name: str, default=None):
    """``value`` where it is a ``kind``, ``default`` where it is None and a default is given; else ``DomainError``.
    A value object checked its fields when it was built, so the door that takes one checks only its type."""
    if value is None and default is not None:
        return default
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}{' or None' if default is not None else ''}, got {value!r}")
    return value


def require_count(n, name: str, cap: float = math.inf) -> int:
    """A count of modes or images in [1, ``cap``]; any integer type passes (numpy's too), and 2.5 is refused, not rounded."""
    if not isinstance(n, numbers.Integral) or not 1 <= n <= cap:
        raise DomainError(f"{name} must be an integer in [1, {cap}], got {n!r}")
    return int(n)
