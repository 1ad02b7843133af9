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

import bisect
import math
import sys

import numpy as np

from .errors import DomainError, require_count, require_lambda, require_point
from .spectral import _MAX_TERMS, KernelEstimate, _log_envelope, _mode_sums, _require_norm_range
from .specfun import _bessel_i_scaled_orders, bessel_i_scaled

__all__ = [
    "kernel_closed",
    "addition_formula_lhs",
    "addition_formula_rhs",
    "addition_formula_terms",
]


def _bessel_product(nu: float, theta: float, theta_p: float, lam: float, shift: float) -> float:
    """``sqrt(ss)/lambda * exp(-(1 - cos(theta-theta'))/lambda - shift) * exp(-ss/lambda) I_{nu-1/2}(ss/lambda)``
    with ``ss = sin theta sin theta'``, from checked arguments: the kernel at ``shift = lambda/8``, the addition-formula rhs at 0."""
    ss = math.sin(theta) * math.sin(theta_p)
    half_dist = 2.0 * math.sin(0.5 * (theta - theta_p)) ** 2  # 1 - cos(theta-theta')
    return math.sqrt(ss) / lam * math.exp(-half_dist / lam - shift) * bessel_i_scaled(nu - 0.5, ss / lam)


def _closed_chain(nu: float, pairs, lambdas) -> list[float]:
    """The closed-form core, from checked arguments: the kernel at every pair and lambda, lambda-major."""
    return [_bessel_product(nu, theta, theta_p, lam, lam / 8.0) for lam in lambdas for theta, theta_p in pairs]


def kernel_closed(nu: float, theta: float, theta_p: float, lam: float) -> KernelEstimate:
    """Closed-form short-time kernel; real, positive, overflow-free: :func:`_closed_chain`'s body at one point."""
    nu, theta, theta_p, lam = require_point(nu, theta, theta_p, lam)
    value = _bessel_product(nu, theta, theta_p, lam, lam / 8.0)
    return KernelEstimate(value=complex(value, 0.0), method="closed_form", terms_used=1)


# The addition series stops once its tail majorant is 2^-60 of the first term's envelope,
# below the rounding floor of a sum whose first term is of that size.
_LOG_SERIES_TAIL = -60.0 * math.log(2.0)


def addition_formula_terms(lam: float) -> int:
    """Cap on the addition series' length: z + 12 sqrt(z) + 40 terms at z = 1/lambda.

    The scaled Bessel factor decays factorially once the order passes z, so
    z plus a few sqrt(z) widths is enough.  :func:`addition_formula_lhs`
    stops well before the cap wherever its tail bound allows, and at the
    cap where it does not (large nu).  ``DomainError`` below lambda ~ 1.08e-19, where the cap is past
    the largest index, ``sys.maxsize``.
    """
    return _series_cap(require_lambda(lam))


def _series_cap(lam: float) -> int:
    """:func:`addition_formula_terms` on a checked lambda: the bound of :func:`_series_length`'s search."""
    z = 1.0 / lam
    cap = z + 12.0 * math.sqrt(z) + 40.0
    if not cap <= sys.maxsize:  # z is inf at subnormal lambda
        raise DomainError(f"addition series: at lambda = {lam:g} its cap of {cap:g} terms is past the largest index, {sys.maxsize}")
    return int(cap)


def _log_term_bound(m: int, nu: float, z: float) -> float:
    """log of a bound on ``t_m / t_0``, with ``t_m = e^{-z} I_{nu+m}(z) A_m^2`` the majorant of the
    series' term m: Amos' ratio bound summed by the midpoint rule gives ``I_{nu+m}(z) / I_nu(z)
    <= exp(-(F(nu+m) - F(nu)))``, ``F(x) = x asinh(x/z) - hypot(x, z)`` (docs/tail_bound.md).
    The hypot difference is taken as a quotient, which does not cancel at z >> nu + m."""
    a, b = nu, nu + m
    log_bessel = -(b * math.asinh(b / z) - a * math.asinh(a / z) - (b - a) * (b + a) / (math.hypot(b, z) + math.hypot(a, z)))
    return log_bessel + 2.0 * (_log_envelope(float(m), nu) - _log_envelope(0.0, nu))


def _series_length(nu: float, lam: float) -> int:
    """The first N in [1, cap] whose geometric tail majorant over t_0, ``R_N / (1 - r_N)`` with
    ``R_N`` the bound of :func:`_log_term_bound` and ``r_N = R_{N+1} / R_N``, is at most 2^-60,
    found by bisection (no N meets it until r_N < 1, and from there the majorant decreases);
    the cap :func:`_series_cap` where none does.  Compared in log space: ``R_N``
    overflows at large nu."""
    z = 1.0 / lam
    cap = _series_cap(lam)

    def meets(n: int) -> bool:
        log_t = _log_term_bound(n, nu, z)
        log_r = _log_term_bound(n + 1, nu, z) - log_t
        return log_r < 0.0 and log_t - math.log(-math.expm1(log_r)) <= _LOG_SERIES_TAIL

    return min(cap, 1 + bisect.bisect_left(range(1, cap + 1), True, key=meets))


def addition_formula_lhs(
    nu: float, theta: float, theta_p: float, lam: float, n_terms: int | None = None
) -> float:
    """Gegenbauer-Bessel series side, regulated by exp(-1/lambda).

    Term n of ``2^{2 nu} Gamma(nu)^2 / sqrt(2 pi lambda) (sin sin')^nu sum_n n! (nu+n)
    / Gamma(2nu+n) e^{-1/lambda} I_{nu+n}(1/lambda) C_n(cos theta) C_n(cos theta')``
    is ``sqrt(2 pi / lambda) e^{-1/lambda} I_{nu+n}(1/lambda) phi_n(theta) phi_n(theta')``:
    the spectral mode sum with the Bessel-link weights of ``check_gaussian_bessel_link``.

    With ``n_terms`` unset the series stops at the first N whose dropped tail is proven
    to be at most 2^-60 of the first term's envelope ``sqrt(2 pi / lambda) e^{-1/lambda}
    I_nu(1/lambda) A_0^2``, uniformly in the angles; N grows like ``sqrt(z log(1/eps))``
    with z = 1/lambda, not like z.  Where no N up to the cap :func:`addition_formula_terms`
    meets that bound (large nu), the series runs to the cap.  See docs/tail_bound.md.

    Like the spectral sum, the series keeps at most ``spectral._MAX_TERMS`` (100,000) terms: a
    longer one, set or resolved (``nu = 2.5, lambda = 1e-14`` resolves 170,811,661), raises
    ``DomainError`` before any array is built.
    """
    nu, theta, theta_p, lam = require_point(nu, theta, theta_p, lam)
    _require_norm_range(nu)
    if n_terms is None:
        n_terms = _series_length(nu, lam)
        if n_terms > _MAX_TERMS:
            raise DomainError(f"addition series: {n_terms} terms at nu = {nu:g}, lambda = {lam:g} are past the cap of {_MAX_TERMS}")
    else:
        n_terms = require_count(n_terms, "n_terms", _MAX_TERMS)
    n = np.arange(n_terms, dtype=float)
    return math.sqrt(2.0 * math.pi / lam) * _mode_sums([_bessel_i_scaled_orders(nu + n, 1.0 / lam)], nu, [(theta, theta_p)])[0][0]


def addition_formula_rhs(nu: float, theta: float, theta_p: float, lam: float) -> float:
    """Bessel product side, with the same exp(-1/lambda) regulator.

    The regulator combines with exp(cos cos'/lambda) and the Bessel scaling
    into exp(-2 sin^2((theta-theta')/2)/lambda), evaluated from the half-angle
    form directly.
    """
    return _bessel_product(*require_point(nu, theta, theta_p, lam), 0.0)
