"""Foundational special functions: Gegenbauer polynomials and exponentially
scaled modified Bessel functions of real order.

The Gegenbauer polynomials are the eigenbasis's polynomial factor (``spectral``
recurs on the orthonormal functions themselves); the scaled Bessel function
carries the closed kernel, the addition-formula weights and the Gaussian-Bessel
link.  The accuracy targets are deliberately
tighter than the cross-method tolerances they have to support:

* ``gegenbauer_table`` three-term recurrence, stable on [-1, 1] for nu >= 1/2
* ``bessel_i_scaled``  relative error <= 1e-12 for order <= 1000, z <= 1e6

The scaled Bessel function is a thin checked wrapper over
:func:`scipy.special.ive`, Amos' algorithm (D. E. Amos, ACM TOMS 12 (1986)
265, algorithm 644).  No other module uses scipy; :mod:`scipy.special`, most
of a cold start, loads on the first Bessel call.  The recurrence invariant
``I_{mu-1} - I_{mu+1} = (2 mu / z) I_mu`` and mpmath are used by the test
suite as independent checks.
"""

import functools
import math

import numpy as np

from .errors import _MAX_TERMS, DomainError, _floats, require_index, require_nu

__all__ = [
    "gegenbauer_table",
    "bessel_i_scaled",
]


def gegenbauer_table(nmax: int, nu: float, x: np.ndarray) -> np.ndarray:
    """Gegenbauer polynomials of degrees 0..nmax: rows are degrees, columns follow ``x``.

    Upward three-term recurrence

        (n+1) C_{n+1} = 2 (n+nu) x C_n - (n + 2 nu - 1) C_{n-1}

    seeded with C_0 = 1 and C_1 = 2 nu x.  On [-1, 1] with nu >= 1/2 the
    recurrence is stable (the dominant solution is the one being computed),
    so no renormalisation pass is needed, but C_n^nu(1) leaves the float range
    at large n and nu.  Cost is linear in ``nmax``, which is at most
    ``_MAX_TERMS - 1``: a longer row is refused before it is built.
    """
    nmax = require_index(nmax, 0, "nmax must be nonnegative", _MAX_TERMS - 1)
    nu = require_nu(nu)
    x = _floats(x, "Gegenbauer arguments")
    if not (np.abs(x) <= 1.0).all():  # NaN fails the test
        raise DomainError("Gegenbauer argument must lie in [-1, 1]")
    x = x.tolist() if x.ndim == 0 else x
    prev, cur = 1.0 + 0.0 * x, 2.0 * nu * x  # 1.0, or ones of the shape of x (which is finite); C_1
    rows = [prev, cur][:nmax + 1]
    for n in range(1, nmax):
        prev, cur = cur, (2.0 * (n + nu) * x * cur - (n + 2.0 * nu - 1.0) * prev) / (n + 1.0)
        rows.append(cur)
    return np.array(rows)


def bessel_i_scaled(order: float, z: float) -> float:
    """Exponentially scaled modified Bessel function ``exp(-z) I_order(z)``.

    A checked wrapper over :func:`scipy.special.ive`.  Overflow-free for every
    argument used by the kernel routines; relative error <= 1e-12 (measured
    against mpmath: <= 1.7e-13) for order <= 1000 and z <= 1e6 wherever the
    value is a normal float.  It underflows to 0 for orders far above z; at
    orders past ive's range (1e16 at z = 7) ive returns NaN, and this raises
    ``DomainError``.
    """
    try:
        mu, z = float(order), float(z)
    except (TypeError, ValueError):
        raise DomainError(f"Bessel order and argument must be numbers, got {order!r} and {z!r}") from None
    if mu < 0.0:
        raise DomainError(f"Bessel order must be nonnegative, got {order!r}")
    if not (z > 0.0) or not math.isfinite(z):
        raise DomainError(f"Bessel argument must be positive, got {z!r}")
    value = float(_ive()(mu, z))
    if math.isnan(value):
        raise DomainError(f"Bessel function: exp(-z) I_mu(z) is not a number at mu = {mu:g}, z = {z:g}")
    return value


def _bessel_i_scaled_orders(orders: np.ndarray, z: float) -> np.ndarray:
    """``exp(-z) I_mu(z)`` at each of ``orders``, unchecked: the addition series' mode weights."""
    return _ive()(orders, z)


@functools.cache
def _ive():
    """:func:`scipy.special.ive`, imported on the first Bessel call and bound from then on: an import
    statement in each call took ~0.7 us of a ~3.5 us ``kernel_closed`` call (timeit, x86_64 2 vCPUs)."""
    from scipy.special import ive
    return ive

