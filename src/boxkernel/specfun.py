"""Foundational special functions: Gegenbauer polynomials and exponentially
scaled modified Bessel functions of real order.

The eigenbasis (both mode sums) rests on the Gegenbauer recurrence; the
scaled Bessel function carries the closed kernel, the addition-formula
weights and the Gaussian-Bessel link.  The accuracy targets are deliberately
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
    so no renormalisation pass is needed.  Cost is linear in ``nmax``, which
    is at most ``_MAX_TERMS - 1``: a longer row is refused before it is built.
    """
    nmax = require_index(nmax, 0, "nmax must be nonnegative", _MAX_TERMS - 1)
    nu = require_nu(nu)
    x = _floats(x, "Gegenbauer arguments")
    if not (np.abs(x) <= 1.0).all():  # NaN fails the test
        raise DomainError("Gegenbauer argument must lie in [-1, 1]")
    [rows] = _gegenbauer_table(nmax, nu, [x.tolist() if x.ndim == 0 else x])
    return np.array(rows)


def _gegenbauer_table(nmax: int, nu: float, xs: list) -> list[list]:
    """:func:`gegenbauer_table` on checked arguments, per x of ``xs``: the list of its rows C_0 .. C_nmax,
    floats for a float x, arrays for an array x (``spectral._eigenfunction_table`` takes one array x
    from ``_ARRAY_MIN_ANGLES`` angles, a float x per angle below).  The step's coefficients
    ``2 (n + nu)``, ``n + 2 nu - 1`` and ``n + 1`` do not depend on x: they are built once, and every
    x runs its recurrence over that one list.  The arithmetic is the same for a float and an array, so
    a float's row is bitwise its entry of an array's rows."""
    steps = [(2.0 * (n + nu), n + 2.0 * nu - 1.0, n + 1.0) for n in range(1, nmax)]
    tables = []
    for x in xs:
        prev, cur = 1.0 + 0.0 * x, 2.0 * nu * x  # 1.0, or ones of the shape of x (which is finite); C_1
        rows = [prev, cur][:nmax + 1]
        for a, b, c in steps:
            prev, cur = cur, (a * x * cur - b * prev) / c
            rows.append(cur)
        tables.append(rows)
    return tables


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

