"""Closed short-time kernel and the Gegenbauer-Bessel addition formula.

The short-time kernel has the closed form

    K(theta, theta'; lambda) ~ sqrt(sin theta sin theta') / lambda
        * exp(-(1 - cos theta cos theta')/lambda - lambda/8)
        * I_{nu-1/2}(sin theta sin theta' / lambda),

asymptotically exact as lambda -> 0.  Writing
``1 - cos theta cos theta' = (1 - cos(theta-theta')) + sin theta sin theta'``
lets the Bessel scaling cancel analytically: the implementation multiplies
``exp(-2 sin^2((theta-theta')/2)/lambda - lambda/8)`` by the *scaled* Bessel
function, which removes both the overflow and the cancellation at
theta ~ theta' for small lambda.

The addition formula behind it is exact: its series side is the spectral mode
sum with Bessel-link weights, so ``kernel_closed`` is e^{-lambda/8} times that
sum.  Both sides carry a shared ``exp(-1/lambda)`` regulator so the identity can
be tested at small lambda where the raw sides grow like ``exp(1/lambda)``.
"""

import math

import numpy as np
from scipy.special import ive

from .errors import require_lambda, require_point
from .spectral import KernelEstimate, _mode_sum
from .specfun import bessel_i_scaled

__all__ = [
    "kernel_closed",
    "addition_formula_lhs",
    "addition_formula_rhs",
    "addition_formula_terms",
]


def _bessel_product(nu: float, theta: float, theta_p: float, lam: float, shift: float) -> float:
    """``sqrt(ss)/lambda * exp(-(1 - cos(theta-theta'))/lambda - shift) * exp(-ss/lambda) I_{nu-1/2}(ss/lambda)``
    with ``ss = sin theta sin theta'``: the kernel at ``shift = lambda/8``, the addition-formula rhs at 0."""
    nu, theta, theta_p, lam = require_point(nu, theta, theta_p, lam)
    ss = math.sin(theta) * math.sin(theta_p)
    half_dist = 2.0 * math.sin(0.5 * (theta - theta_p)) ** 2  # 1 - cos(theta-theta')
    return math.sqrt(ss) / lam * math.exp(-half_dist / lam - shift) * bessel_i_scaled(nu - 0.5, ss / lam)


def kernel_closed(nu: float, theta: float, theta_p: float, lam: float) -> KernelEstimate:
    """Closed-form short-time kernel; real, positive, overflow-free."""
    lam = require_lambda(lam)
    value = _bessel_product(nu, theta, theta_p, lam, lam / 8.0)
    return KernelEstimate(value=complex(value, 0.0), method="closed_form", terms_used=1)


def addition_formula_terms(lam: float) -> int:
    """Series length that pushes the addition-formula tail below 1e-16.

    The scaled Bessel factor decays factorially once the order passes
    z = 1/lambda, so z plus a few sqrt(z) widths is enough.
    """
    z = 1.0 / require_lambda(lam)
    return int(z + 12.0 * math.sqrt(z) + 40.0)


def addition_formula_lhs(
    nu: float, theta: float, theta_p: float, lam: float, n_terms: int | None = None
) -> float:
    """Gegenbauer-Bessel series side, regulated by exp(-1/lambda).

    Term n of ``2^{2 nu} Gamma(nu)^2 / sqrt(2 pi lambda) (sin sin')^nu sum_n n! (nu+n)
    / Gamma(2nu+n) e^{-1/lambda} I_{nu+n}(1/lambda) C_n(cos theta) C_n(cos theta')``
    is ``sqrt(2 pi / lambda) e^{-1/lambda} I_{nu+n}(1/lambda) phi_n(theta) phi_n(theta')``:
    the spectral mode sum with the Bessel-link weights of ``check_gaussian_bessel_link``.
    """
    nu, theta, theta_p, lam = require_point(nu, theta, theta_p, lam)
    if n_terms is None:
        n_terms = addition_formula_terms(lam)
    n = np.arange(n_terms, dtype=float)
    return math.sqrt(2.0 * math.pi / lam) * _mode_sum(ive(nu + n, 1.0 / lam), nu, theta, theta_p)


def addition_formula_rhs(nu: float, theta: float, theta_p: float, lam: float) -> float:
    """Bessel product side, with the same exp(-1/lambda) regulator.

    The regulator combines with exp(cos cos'/lambda) and the Bessel scaling
    into exp(-2 sin^2((theta-theta')/2)/lambda), evaluated from the half-angle
    form directly.
    """
    return _bessel_product(nu, theta, theta_p, lam, 0.0)
