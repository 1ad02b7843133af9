"""Reflection-path decompositions of the kernel.

The kernel can be rearranged as a sum over classes of classical paths,
indexed by a winding integer k and a reflection parity: even-parity terms sit
at the saddles theta - theta' = 2 k pi (paths reflected an even number of
times), odd-parity terms at theta + theta' = 2 k pi (odd reflection counts).
Each term is a Gaussian in the saddle distance times an exponentiated
potential correction ``-+ lambda nu (nu-1) / (2 sin theta sin theta')`` and a
unit phase.

The phase a term carries depends on how ``arg(sin theta sin theta')`` is
continued outside the physical interval:

* prescription A (winding continuation): even terms carry exp(2 k nu pi i),
  odd terms exp((2k-1) nu pi i);
* prescription B (per-cell continuation): even terms carry 1, odd terms
  exp(nu pi i).

The two prescriptions differ only by even-winding phases exp(2 m nu pi i);
for integer nu all phases collapse to +1 (even parity) and (-1)^nu (odd
parity), reproducing the -1-per-reflection rule of the free box at nu = 1
and the +1 coefficient at nu = 2.  Integer phase multiples are special-cased
so these collapses are exact, with no trigonometric residue.

At nu = 1 the untruncated decomposition is an exact identity with the
spectral sum (Poisson summation of the sine series), so the truncated one is
exact up to the dropped images (see :func:`kernel_pathsum_nu1`); for other
couplings it is the small-lambda asymptotic form, and the imaginary part left
over at non-integer nu is reported, never dropped: it measures the quality of
the saddle treatment and shrinks rapidly as lambda decreases.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, require_nu, require_point
from .spectral import KernelEstimate

__all__ = [
    "PathSumConfig",
    "ReflectionTerm",
    "reflection_phase",
    "decompose",
    "kernel_pathsum_nu1",
    "kernel_pathsum_nu2",
    "kernel_pathsum_general",
]

# Evaluations closer than this to a wall are flagged: the potential
# correction grows like 1/sin and the small-lambda hierarchy degrades.
_BOUNDARY_MARGIN = 0.05

PRESCRIPTIONS = ("A", "B")


@dataclass(frozen=True)
class PathSumConfig:
    """Truncation and phase convention for the reflection sums.

    ``k_max = 8`` keeps every Gaussian with |saddle distance| <= 16 pi; at
    lambda <= 2 the first dropped term is below 1e-100 of the leading one.
    """

    k_max: int = 8
    prescription: str = "A"

    def __post_init__(self):
        # 10,000 keeps every image whose weight can be a normal float up to lambda
        # ~ 2.6e6: exp(-(2 pi k)^2 / (2 lambda)) leaves the float range past 745.
        if not (1 <= self.k_max <= 10_000):
            raise DomainError(f"k_max must lie in [1, 10000], got {self.k_max}")
        if self.prescription not in PRESCRIPTIONS:
            raise DomainError(f"prescription must be 'A' or 'B', got {self.prescription!r}")


@dataclass(frozen=True)
class ReflectionTerm:
    """One saddle contribution: value = phase * exp(gauss_exponent + potential_correction),
    up to the common prefactor 1/sqrt(2 pi lambda)."""

    k: int
    parity: str  # "even": saddle theta - theta' = 2 k pi; "odd": theta + theta' = 2 k pi
    phase: complex
    gauss_exponent: float
    potential_correction: float


def _unit_phase(multiple: float) -> complex:
    """exp(i pi multiple), exact at integer and half-integer multiples."""
    twice = 2.0 * multiple
    if twice == round(twice):
        quarter = int(round(twice)) % 4  # exp(i pi/2 * twice)
        return (1 + 0j, 1j, -1 + 0j, -1j)[quarter]
    return cmath.exp(1j * math.pi * multiple)


def reflection_phase(k: int, parity: str, nu: float, prescription: str = "A") -> complex:
    """Unit phase of the (k, parity) reflection term under either prescription."""
    nu = require_nu(nu)
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    if prescription == "A":
        multiple = (2 * k if parity == "even" else 2 * k - 1) * nu
    elif prescription == "B":
        multiple = 0.0 if parity == "even" else nu
    else:
        raise DomainError(f"prescription must be 'A' or 'B', got {prescription!r}")
    return _unit_phase(multiple)


def decompose(
    nu: float,
    theta: float,
    theta_p: float,
    lam: float,
    config: PathSumConfig | None = None,
) -> list[ReflectionTerm]:
    """All reflection terms with |k| <= k_max, in fixed (k, parity) order.

    Summing ``phase * exp(gauss_exponent + potential_correction)`` over the
    returned list and dividing by sqrt(2 pi lambda) reproduces
    :func:`kernel_pathsum_general` bit for bit; the kernel routines are thin
    wrappers over this decomposition.
    """
    nu, theta, theta_p, lam = require_point(nu, theta, theta_p, lam)
    config = config or PathSumConfig()
    correction = 0.5 * lam * nu * (nu - 1.0) / (math.sin(theta) * math.sin(theta_p))
    saddles = (("even", theta - theta_p, -correction), ("odd", theta + theta_p, correction))
    return [
        ReflectionTerm(
            k=k,
            parity=parity,
            phase=reflection_phase(k, parity, nu, config.prescription),
            gauss_exponent=-((separation - 2.0 * math.pi * k) ** 2) / (2.0 * lam),
            potential_correction=potential,
        )
        for k in range(-config.k_max, config.k_max + 1)
        for parity, separation, potential in saddles
    ]


def _kernel_pathsum(
    nu: float, method: str, theta: float, theta_p: float, lam: float, config: PathSumConfig | None
) -> KernelEstimate:
    """The one path-sum body: sum the :func:`decompose` terms with exact (fsum) reduction.

    Each weight is a ``math.exp``, so a term whose potential correction
    overflows raises ``OverflowError`` rather than turning into inf.
    """
    terms = decompose(nu, theta, theta_p, lam, config)
    norm = 1.0 / math.sqrt(2.0 * math.pi * lam)
    weights = [math.exp(t.gauss_exponent + t.potential_correction) for t in terms]
    re = math.fsum(t.phase.real * w for t, w in zip(terms, weights))
    im = math.fsum(t.phase.imag * w for t, w in zip(terms, weights))
    return KernelEstimate(
        value=complex(norm * re, norm * im),
        method=method,
        terms_used=len(terms),
        near_boundary=min(theta, math.pi - theta, theta_p, math.pi - theta_p) < _BOUNDARY_MARGIN,
    )


def kernel_pathsum_general(
    nu: float,
    theta: float,
    theta_p: float,
    lam: float,
    config: PathSumConfig | None = None,
) -> KernelEstimate:
    """Phased reflection sum for arbitrary coupling; value is complex."""
    return _kernel_pathsum(nu, "path_sum_general", theta, theta_p, lam, config)


def kernel_pathsum_nu1(
    theta: float,
    theta_p: float,
    lam: float,
    config: PathSumConfig | None = None,
) -> KernelEstimate:
    """Free-box image sum: even terms +1, odd terms -1, no potential correction.

    Poisson summation of the sine spectral series makes the full image sum
    equal to the spectral kernel at every lambda, but only |k| <= k_max is
    kept.  With the default k_max = 8 the two agree to rounding (<= 7.4e-15
    absolute over the 9x9 interior grid) up to lambda = 30; the dropped
    images show at lambda = 50 (3.2e-13), and at lambda = 100 the sum gives
    1.44e-8 at (1, 2) where the kernel is 9.4e-23.  The phases are exactly
    +-1, so ``value.imag == 0.0``.
    """
    return _kernel_pathsum(1.0, "path_sum_nu1", theta, theta_p, lam, config)


def kernel_pathsum_nu2(
    theta: float,
    theta_p: float,
    lam: float,
    config: PathSumConfig | None = None,
) -> KernelEstimate:
    """nu = 2 decomposition; both parities enter with coefficient +1."""
    return _kernel_pathsum(2.0, "path_sum_nu2", theta, theta_p, lam, config)
