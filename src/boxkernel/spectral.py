"""Eigenfunctions, eigenvalues, and the spectral (eigenfunction-expansion)
kernel, with a provable truncation bound.

The Schroedinger operator ``-d^2/dtheta^2 + nu(nu-1)/sin^2(theta)`` on
(0, pi) with Dirichlet walls has the orthonormal eigenbasis

    phi_n(theta) = 2^nu Gamma(nu) sqrt((n+nu) n! / (2 pi Gamma(n+2nu)))
                   * sin^nu(theta) * C_n^nu(cos theta),

with decay exponents lambda (n+nu)^2 / 2 in the dimensionless time lambda.
The kernel here carries the theta-measure normalisation (integrals are taken
in theta, not in the physical coordinate), and boundary angles are rejected
so that all evaluation routes share one domain.

Truncation bound
----------------
``truncation_tail_bound`` majorises the dropped tail of the spectral sum
uniformly in the angles:  |sin^nu(theta) C_n^nu(cos theta)| <= C_n^nu(1)
bounds each eigenfunction by an explicit envelope A_n, and the term ratio of
``exp(-lambda (n+nu)^2 / 2) A_n^2`` is decreasing in n, which yields a
geometric majorant of the remaining sum.  See docs/tail_bound.md for the
two-line derivation and the validity argument.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, PolicyUnresolvableError, require_lambda, require_nu, require_theta
from .specfun import gegenbauer_table

__all__ = [
    "TruncationPolicy",
    "KernelEstimate",
    "eigenvalue_exponent",
    "eigenfunction",
    "eigenfunctions",
    "truncation_tail_bound",
    "kernel_spectral",
    "kernel_spectral_profile",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class TruncationPolicy:
    """How many eigenmodes the spectral sum keeps.

    ``fixed_n`` mode sums exactly ``n_terms`` modes; ``target_abs_error`` mode
    resolves the smallest N whose tail bound is below ``epsilon_tail``,
    refusing to exceed ``n_cap`` (small lambda makes the spectral route
    arbitrarily expensive, and the cap turns that into a detectable error).
    """

    mode: str = "target_abs_error"
    n_terms: int = 0
    epsilon_tail: float = 1e-12
    n_cap: int = 4096

    def __post_init__(self):
        if self.mode not in ("fixed_n", "target_abs_error"):
            raise DomainError(f"unknown truncation mode {self.mode!r}")
        if self.mode == "fixed_n" and self.n_terms <= 0:
            raise DomainError("fixed_n policy requires n_terms >= 1")
        if self.mode == "target_abs_error" and not (0.0 < self.epsilon_tail < math.inf):
            raise DomainError("target_abs_error policy requires a finite epsilon_tail > 0")
        if self.n_cap <= 0:
            raise DomainError("n_cap must be positive")

    @classmethod
    def fixed(cls, n_terms: int) -> "TruncationPolicy":
        return cls(mode="fixed_n", n_terms=n_terms)

    @classmethod
    def to_tail(cls, epsilon_tail: float, n_cap: int = 4096) -> "TruncationPolicy":
        return cls(mode="target_abs_error", epsilon_tail=epsilon_tail, n_cap=n_cap)


@dataclass(frozen=True)
class KernelEstimate:
    """A kernel value with its provenance.

    ``value`` is complex for uniformity across methods; the spectral, closed
    form and integer-coupling path sums produce exactly real values.
    ``tail_bound`` is an a-posteriori bound on the truncation error where one
    is available (spectral route only).  ``near_boundary`` flags evaluations
    within 0.05 of a wall, where the saddle-point decompositions lose their
    small-lambda hierarchy.
    """

    value: complex
    method: str
    terms_used: int
    tail_bound: float | None = None
    near_boundary: bool = False

    @property
    def real(self) -> float:
        return self.value.real


def eigenvalue_exponent(n: int, nu: float, lam: float) -> float:
    """Decay exponent lambda (n+nu)^2 / 2 of mode ``n``."""
    nu = require_nu(nu)
    lam = require_lambda(lam)
    if n < 0:
        raise DomainError(f"mode index must be nonnegative, got {n}")
    return lam * (n + nu) ** 2 / 2.0


def _log_norms(nmax: int, nu: float) -> np.ndarray:
    """Log of the eigenfunction normalisation constants for n = 0..nmax."""
    n = np.arange(nmax + 1, dtype=float)
    return (
        nu * math.log(2.0)
        + gammaln(nu)
        + 0.5 * (np.log(n + nu) + gammaln(n + 1.0) - _LOG_2PI - gammaln(n + 2.0 * nu))
    )


def eigenfunction(n: int, nu: float, theta: float) -> float:
    """Orthonormal eigenfunction phi_n(theta), assembled in log space.

    The Gamma-function pieces of the normalisation overflow individually for
    moderate n, so they are combined as a single exponent together with the
    sin^nu factor; only the (polynomially growing) Gegenbauer value is kept
    in linear space.
    """
    if n < 0:
        raise DomainError(f"mode index must be nonnegative, got {n}")
    return float(eigenfunctions(n, nu, theta)[-1])


def eigenfunctions(nmax: int, nu: float, theta: float) -> np.ndarray:
    """phi_0(theta) .. phi_nmax(theta) in one recurrence pass."""
    nu = require_nu(nu)
    theta = require_theta(theta)
    return _eigenfunction_matrix(nmax, nu, theta)


def _eigenfunction_matrix(nmax: int, nu: float, thetas) -> np.ndarray:
    """phi_n(theta) for n = 0..nmax; rows are modes, columns follow ``thetas`` (a scalar gives a vector)."""
    log_amp = np.add.outer(_log_norms(nmax, nu), nu * np.log(np.sin(thetas)))
    return np.exp(log_amp) * gegenbauer_table(nmax, nu, np.cos(thetas))


def _log_envelope(n: float, nu: float):
    """log A_n with |phi_n(theta)| <= A_n for every theta in (0, pi).

    Uses |C_n^nu(x)| <= C_n^nu(1) = Gamma(n+2nu) / (n! Gamma(2nu)) and
    sin^nu(theta) <= 1.
    """
    return (
        nu * math.log(2.0)
        + gammaln(nu)
        - gammaln(2.0 * nu)
        - 0.5 * _LOG_2PI
        + 0.5 * np.log(n + nu)
        + 0.5 * (gammaln(n + 2.0 * nu) - gammaln(n + 1.0))
    )


def truncation_tail_bound(nu: float, lam: float, n_start: int) -> float:
    """Upper bound on ``sum_{n >= n_start} exp(-lambda (n+nu)^2/2) |phi_n phi_n'|``.

    Valid uniformly in both angles.  The bound is the geometric majorant
    ``t_N / (1 - r_N)`` with ``t_n = exp(-lambda (n+nu)^2 / 2) A_n^2`` and
    ``r_N = t_{N+1} / t_N``; the ratio is decreasing in n, so the majorant is
    legitimate whenever ``r_N < 1`` (and +inf is returned otherwise, which the
    policy resolver treats as "keep adding terms").
    """
    nu = require_nu(nu)
    lam = require_lambda(lam)
    if n_start < 1:
        raise DomainError("tail bound needs n_start >= 1")
    log_t = lambda n: -lam * (n + nu) ** 2 / 2.0 + 2.0 * float(_log_envelope(float(n), nu))
    t0 = log_t(n_start)
    ratio = math.exp(log_t(n_start + 1) - t0)
    if ratio >= 1.0:
        return math.inf
    return math.exp(t0) / (1.0 - ratio)


def _resolve_terms(nu: float, lam: float, policy: TruncationPolicy | None) -> tuple[int, float]:
    policy = policy or TruncationPolicy()
    if policy.mode == "fixed_n":
        n = policy.n_terms
        bound = truncation_tail_bound(nu, lam, n)
        return n, bound
    n = 1
    while n <= policy.n_cap:
        bound = truncation_tail_bound(nu, lam, n)
        if bound <= policy.epsilon_tail:
            return n, bound
        n += 1
    raise PolicyUnresolvableError(
        f"spectral tail below {policy.epsilon_tail:g} needs more than "
        f"{policy.n_cap} modes at nu={nu:g}, lambda={lam:g}"
    )


def kernel_spectral(
    nu: float,
    theta_a: float,
    theta_b: float,
    lam: float,
    policy: TruncationPolicy | None = None,
) -> KernelEstimate:
    """Eigenfunction expansion  sum_n exp(-lambda (n+nu)^2/2) phi_n(a) phi_n(b).

    Terms decay in n, so the natural ordering is already largest-first; the
    final reduction uses exact (fsum) summation to protect the 1e-10
    cross-method comparisons downstream.
    """
    nu = require_nu(nu)
    theta_a = require_theta(theta_a, "theta_a")
    theta_b = require_theta(theta_b, "theta_b")
    lam = require_lambda(lam)
    n_terms, tail = _resolve_terms(nu, lam, policy)
    n = np.arange(n_terms, dtype=float)
    weights = np.exp(-lam * (n + nu) ** 2 / 2.0)
    terms = weights * _eigenfunction_matrix(n_terms - 1, nu, theta_a) * _eigenfunction_matrix(n_terms - 1, nu, theta_b)
    value = math.fsum(terms)
    return KernelEstimate(
        value=complex(value, 0.0),
        method="spectral",
        terms_used=n_terms,
        tail_bound=tail,
    )


def kernel_spectral_profile(
    nu: float,
    theta_a: float,
    thetas: np.ndarray,
    lam: float,
    policy: TruncationPolicy | None = None,
) -> np.ndarray:
    """Spectral kernel from ``theta_a`` to each angle of ``thetas`` at once.

    Shares one eigenfunction table across the whole profile; used by the
    quadrature checks (semigroup composition) where thousands of kernel
    values are needed along a fixed source angle.
    """
    nu = require_nu(nu)
    theta_a = require_theta(theta_a, "theta_a")
    lam = require_lambda(lam)
    thetas = np.asarray(thetas, dtype=float)
    if np.any(thetas <= 0.0) or np.any(thetas >= math.pi):
        raise DomainError("profile angles must lie strictly inside (0, pi)")
    n_terms, _ = _resolve_terms(nu, lam, policy)
    n = np.arange(n_terms, dtype=float)
    weights = np.exp(-lam * (n + nu) ** 2 / 2.0)
    fa = _eigenfunction_matrix(n_terms - 1, nu, theta_a)
    return (weights * fa) @ _eigenfunction_matrix(n_terms - 1, nu, thetas)
