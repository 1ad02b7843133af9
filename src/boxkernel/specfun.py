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

import math

import numpy as np

from .errors import DomainError, require_index

__all__ = [
    "gegenbauer_table",
    "bessel_i_scaled",
    "bessel_asymptotic_leading",
]


def gegenbauer_table(nmax: int, nu: float, x: np.ndarray) -> np.ndarray:
    """Gegenbauer polynomials of degrees 0..nmax: rows are degrees, columns follow ``x``.

    Upward three-term recurrence

        (n+1) C_{n+1} = 2 (n+nu) x C_n - (n + 2 nu - 1) C_{n-1}

    seeded with C_0 = 1 and C_1 = 2 nu x.  On [-1, 1] with nu >= 1/2 the
    recurrence is stable (the dominant solution is the one being computed),
    so no renormalisation pass is needed.  Cost is linear in ``nmax``.
    """
    nmax = require_index(nmax, 0, "nmax must be nonnegative")
    x = np.asarray(x, dtype=float)
    if (np.abs(x) > 1.0).any():
        raise DomainError("Gegenbauer argument must lie in [-1, 1]")
    return _gegenbauer_table(nmax, nu, x)


def _gegenbauer_table(nmax: int, nu: float, x: np.ndarray) -> np.ndarray:
    """:func:`gegenbauer_table` on checked arguments: the eigenbasis' columns (``spectral._eigenfunction_matrix``)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    x = x.tolist() if x.ndim == 0 else x  # a scalar gives a vector, its loop runs on Python floats
    out[0] = prev = 1.0
    if nmax >= 1:
        out[1] = cur = 2.0 * nu * x
    for n in range(1, nmax):
        prev, cur = cur, (2.0 * (n + nu) * x * cur - (n + 2.0 * nu - 1.0) * prev) / (n + 1.0)
        out[n + 1] = cur
    return out


def bessel_i_scaled(order: float, z: float) -> float:
    """Exponentially scaled modified Bessel function ``exp(-z) I_order(z)``.

    A checked wrapper over :func:`scipy.special.ive`.  Overflow-free for every
    argument used by the kernel routines; relative error <= 1e-12 (measured
    against mpmath: <= 1.7e-13) for order <= 1000 and z <= 1e6 wherever the
    value is a normal float.  It underflows to 0 for orders far above z; at
    orders past ive's range (1e16 at z = 7) ive returns NaN, and this raises
    ``DomainError``.
    """
    mu = float(order)
    z = float(z)
    if mu < 0.0:
        raise DomainError(f"Bessel order must be nonnegative, got {order!r}")
    if not (z > 0.0) or not math.isfinite(z):
        raise DomainError(f"Bessel argument must be positive, got {z!r}")
    from scipy.special import ive
    value = float(ive(mu, z))
    if math.isnan(value):
        raise DomainError(f"Bessel function: exp(-z) I_mu(z) is not a number at mu = {mu:g}, z = {z:g}")
    return value


def _bessel_i_scaled_orders(orders: np.ndarray, z: float) -> np.ndarray:
    """``exp(-z) I_mu(z)`` at each of ``orders``, unchecked: the addition series' mode weights."""
    from scipy.special import ive
    return ive(orders, z)


def bessel_asymptotic_leading(order: float, z: float, keep_reflected: bool = False) -> float:
    """Leading exponentiated asymptotics of I_order(z) for large z.

    Returns ``exp(z)/sqrt(2 pi z) * exp(-(4 mu^2 - 1)/(8 z))``, the one-term
    exponentiated form of the large-argument expansion.  With
    ``keep_reflected`` the exponentially small counter-propagating branch

        -sin(pi mu) * exp(-z)/sqrt(2 pi z) * exp(+(4 mu^2 - 1)/(8 z))

    is added; at half-integer orders this reproduces the sinh/cosh closed
    forms exactly.  Exposed for measuring the asymptotic-series error against
    :func:`bessel_i_scaled`; the caller is responsible for z being large
    (and below ~700, where exp(z) itself overflows).
    """
    mu = float(order)
    z = float(z)
    if not (z > 0.0):
        raise DomainError(f"Bessel argument must be positive, got {z!r}")
    c = (4.0 * mu * mu - 1.0) / (8.0 * z)
    value = math.exp(z - c) / math.sqrt(2.0 * math.pi * z)
    if keep_reflected:
        value -= math.sin(math.pi * mu) * math.exp(-z + c) / math.sqrt(2.0 * math.pi * z)
    return value
