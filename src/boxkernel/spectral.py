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


# At the default 1e-12 tail, 100,000 modes resolve lambda down to 1e-7 for
# nu <= 20 (87,009 modes at nu = 20); beyond that a single 160-node profile
# table already takes 128 MB, so larger counts are input errors.
_MAX_TERMS = 100_000


@dataclass(frozen=True)
class TruncationPolicy:
    """How many eigenmodes the spectral sum keeps.

    With ``n_terms`` set, the sum keeps exactly that many modes; otherwise it
    resolves the smallest N whose tail bound is below ``epsilon_tail``,
    refusing to exceed ``n_cap`` (small lambda makes the spectral route
    arbitrarily expensive, and the cap turns that into a detectable error).
    """

    n_terms: int | None = None
    epsilon_tail: float = 1e-12
    n_cap: int = 4096

    def __post_init__(self):
        if self.n_terms is not None and not 1 <= self.n_terms <= _MAX_TERMS:
            raise DomainError(f"n_terms must lie in [1, {_MAX_TERMS}], got {self.n_terms}")
        if not (0.0 < self.epsilon_tail < math.inf):
            raise DomainError(f"epsilon_tail must be finite and > 0, got {self.epsilon_tail}")
        if not 1 <= self.n_cap <= _MAX_TERMS:
            raise DomainError(f"n_cap must lie in [1, {_MAX_TERMS}], got {self.n_cap}")

    @classmethod
    def fixed(cls, n_terms: int) -> "TruncationPolicy":
        return cls(n_terms=n_terms)

    @classmethod
    def to_tail(cls, epsilon_tail: float, n_cap: int = n_cap) -> "TruncationPolicy":
        return cls(epsilon_tail=epsilon_tail, n_cap=n_cap)


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
    sin^nu factor.  The Gegenbauer value is kept in linear space, where it
    grows up to C_n^nu(1) ~ n^(2 nu - 1) / Gamma(2 nu) near the walls and
    overflows at large n and nu; there a ``DomainError`` is raised.
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
    with np.errstate(over="ignore", invalid="ignore"):
        gegenbauer = gegenbauer_table(nmax, nu, np.cos(thetas))
    # a value that leaves the float range stays inf or NaN up the recurrence, so the last row shows it
    if not np.isfinite(gegenbauer[-1]).all():
        raise DomainError(f"eigenfunction table: C_n^nu(cos theta) leaves the float range by n = {nmax} at nu = {nu:g}")
    log_amp = np.add.outer(_log_norms(nmax, nu), nu * np.log(np.sin(thetas)))
    return np.exp(log_amp) * gegenbauer


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
    try:
        return math.exp(t0) / (1.0 - ratio)
    except OverflowError:  # t_N itself is past the float range: no bound yet, as for r_N >= 1
        return math.inf


def _mode_weights(nu: float, lam: float, policy: TruncationPolicy | None) -> tuple[np.ndarray, float]:
    """Weights exp(-lambda (n+nu)^2 / 2) of the modes n = 0..N-1 that ``policy`` keeps, and their tail bound."""
    policy = policy or TruncationPolicy()
    if policy.n_terms is not None:
        n_terms, tail = policy.n_terms, truncation_tail_bound(nu, lam, policy.n_terms)
    else:
        for n_terms in range(1, policy.n_cap + 1):
            tail = truncation_tail_bound(nu, lam, n_terms)
            if tail <= policy.epsilon_tail:
                break
        else:
            raise PolicyUnresolvableError(
                f"spectral tail below {policy.epsilon_tail:g} needs more than "
                f"{policy.n_cap} modes at nu={nu:g}, lambda={lam:g}"
            )
    n = np.arange(n_terms, dtype=float)
    return np.exp(-lam * (n + nu) ** 2 / 2.0), tail


def _mode_sum(weights: np.ndarray, nu: float, theta_a: float, theta_b: float) -> float:
    """fsum of ``weights[n] phi_n(theta_a) phi_n(theta_b)``, n = 0..len(weights)-1: the spectral kernel and the addition series."""
    nmax = len(weights) - 1
    return math.fsum(weights * _eigenfunction_matrix(nmax, nu, theta_a) * _eigenfunction_matrix(nmax, nu, theta_b))


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
    weights, tail = _mode_weights(nu, lam, policy)
    value = _mode_sum(weights, nu, theta_a, theta_b)
    return KernelEstimate(
        value=complex(value, 0.0),
        method="spectral",
        terms_used=len(weights),
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
    weights, _ = _mode_weights(nu, lam, policy)
    nmax = len(weights) - 1
    fa = _eigenfunction_matrix(nmax, nu, theta_a)
    return (weights * fa) @ _eigenfunction_matrix(nmax, nu, thetas)
