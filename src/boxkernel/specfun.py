"""The scipy boundary: the exponentially scaled modified Bessel function of real order.

It carries the closed kernel, the addition-formula weights and the
Gaussian-Bessel link, with an accuracy target deliberately tighter than the
cross-method tolerances it has to support: relative error <= 1e-12 for
order <= 1000 and z <= 1e6.

``bessel_i_scaled`` is a thin checked wrapper over
:func:`scipy.special.ive`, Amos' algorithm (D. E. Amos, ACM TOMS 12 (1986)
265, algorithm 644).  No other module uses scipy; :mod:`scipy.special`, most
of a cold start, loads on the first Bessel call.  The recurrence invariant
``I_{mu-1} - I_{mu+1} = (2 mu / z) I_mu`` and mpmath are used by the test
suite as independent checks.  The eigenfunctions, Gegenbauer polynomials
times ``sin^nu``, are built in ``spectral`` by one recurrence on the
orthonormal functions themselves.
"""

import functools
import math

import numpy as np

from .errors import DomainError

__all__ = ["bessel_i_scaled"]


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

