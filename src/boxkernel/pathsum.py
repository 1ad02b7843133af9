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
import functools
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError, require_count, require_nu, require_point
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

# math.exp(x) is exactly 0.0 for every x below about -745.13.
_EXP_FLOOR = 746.0

# Fewest (pair, lambda) points for which :func:`_pathsum_chain` takes one array sum over the chain
# rather than the per-pair loop.  The array sum has a fixed cost of ~45-70 us a call and builds its
# geometry once per pair; the loop costs ~17-28 us a point.  Measured at nu = 1 and 2.5, k_max = 8
# (x86_64, 2 vCPUs, numpy 2.4.6, timeit minima), the loop takes 0.88-0.96 of the array time at 4
# points and 1.01-1.45 of it at 5 to 8; a 9-pair grid at one lambda is even (0.90-0.94), and a
# 9-pair grid at 4 lambdas 2.5 times.
_ARRAY_MIN_POINTS = 5

# Most terms, points x (4 k_max + 2), that one array sum takes: its arrays hold every term of the call at
# once (8 MB each at this size), where the loop holds one pair's live terms.
_ARRAY_MAX_TERMS = 1 << 20

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
        require_count(self.k_max, "k_max", 10_000)
        if self.prescription not in PRESCRIPTIONS:
            raise DomainError(f"prescription must be 'A' or 'B', got {self.prescription!r}")


# The config of every call that passes none; frozen, so one instance serves them all.
_DEFAULT_PATH = PathSumConfig()


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
    if prescription not in PRESCRIPTIONS:
        raise DomainError(f"prescription must be 'A' or 'B', got {prescription!r}")
    return _phase(k, parity, nu, prescription)


def _phase(k: int, parity: str, nu: float, prescription: str) -> complex:
    """:func:`reflection_phase` on checked arguments."""
    if prescription == "A":
        return _unit_phase((2 * k if parity == "even" else 2 * k - 1) * nu)
    return _unit_phase(0.0 if parity == "even" else nu)


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
    :func:`kernel_pathsum_general` bit for bit: the kernels take the same
    phases and exponents (``_phases``, ``_exponents``) and sum them without
    building term objects.  This list is the introspection view: it holds
    every image, also those whose weight underflows to exactly 0, which the
    kernels do not evaluate (their ``terms_used`` is still the nominal
    ``4 k_max + 2``).
    """
    nu, theta, theta_p, lam = require_point(nu, theta, theta_p, lam)
    config = config or _DEFAULT_PATH
    labels = [(k, parity) for k in range(-config.k_max, config.k_max + 1) for parity in ("even", "odd")]
    terms = zip(labels, _phases(nu, config.k_max, config.prescription), sorted(_exponents(nu, theta, theta_p, lam, config.k_max)))
    return [ReflectionTerm(k, parity, phase, gauss, potential) for (k, parity), phase, (_, gauss, potential) in terms]


@functools.lru_cache(maxsize=64)
def _phases(nu: float, k_max: int, prescription: str) -> tuple[complex, ...]:
    """The phase of each term in (k, parity) order, built once per (nu, k_max, prescription) by
    :func:`reflection_phase`'s body, so the integer-coupling collapses stay exact."""
    return tuple(_phase(k, parity, nu, prescription) for k in range(-k_max, k_max + 1) for parity in ("even", "odd"))


def _live_ks(sep: float, potential: float, lam: float, k_max: int) -> range:
    """The k in [-k_max, k_max] whose exponent ``gauss + potential`` can be above -_EXP_FLOOR.

    Those are the k with |sep - 2 pi k| < reach = sqrt(2 lambda (_EXP_FLOOR + potential)); rounding
    the ends outwards leaves every other k at |sep - 2 pi k| >= reach + 2 pi, whose exponent lies
    below -_EXP_FLOOR by at least 2 pi^2 / lambda, so its weight is exactly 0.0.  A term that
    would overflow lies inside the range.
    """
    if not potential > -_EXP_FLOOR:
        return range(0)
    reach = math.sqrt(2.0 * lam * (_EXP_FLOOR + potential))
    lo = math.floor(max(-k_max, (sep - reach) / (2.0 * math.pi)))
    hi = math.ceil(min(k_max, (sep + reach) / (2.0 * math.pi)))
    return range(lo, hi + 1)


def _exponents(nu: float, theta: float, theta_p: float, lam: float, k_max: int, live: bool = False) -> list[tuple[int, float, float]]:
    """(index in (k, parity) order, gauss_exponent, potential_correction) of the terms of one point,
    even parity first; every k in [-k_max, k_max], or with ``live`` only those of :func:`_live_ks`.
    A correction past the float range raises ``DomainError``; at nu = 1 it is 0 at every angle."""
    coupling, ss = 0.5 * lam * nu * (nu - 1.0), math.sin(theta) * math.sin(theta_p)
    if coupling and not (ss and math.isfinite(coupling / ss)):
        raise DomainError(f"path sum: the potential correction leaves the float range at nu = {nu:g}, theta = {theta:g}, theta' = {theta_p:g}")
    correction = coupling / ss if coupling else 0.0
    terms = []
    for parity, sep, potential in ((0, theta - theta_p, -correction), (1, theta + theta_p, correction)):
        ks = _live_ks(sep, potential, lam, k_max) if live else range(-k_max, k_max + 1)
        terms += [(2 * (k + k_max) + parity, -((sep - 2.0 * math.pi * k) ** 2) / (2.0 * lam), potential) for k in ks]
    return terms


def _loop_values(nu: float, pairs, lam: float, config: PathSumConfig) -> list[complex]:
    """The reference path-sum core, from checked arguments: the :func:`decompose` terms of each pair
    at one lambda, summed with exact (fsum) reduction, without building them as objects.

    Each weight is a ``math.exp``, so a term whose potential correction
    overflows raises ``OverflowError`` rather than turning into inf.  Images
    whose weight underflows to exactly 0 are not evaluated (:func:`_live_ks`):
    each would add a +-0.0 that fsum ignores, so the value is bitwise that of
    the full sum.
    """
    phases = _phases(nu, config.k_max, config.prescription)
    norm = 1.0 / math.sqrt(2.0 * math.pi * lam)
    values = []
    for theta, theta_p in pairs:
        re, im = [], []
        for i, gauss, potential in _exponents(nu, theta, theta_p, lam, config.k_max, live=True):
            w, phase = math.exp(gauss + potential), phases[i]
            re.append(phase.real * w)
            im.append(phase.imag * w)
        values.append(complex(norm * math.fsum(re), norm * math.fsum(im)))
    return values


def _array_values(nu: float, pairs, lambdas, config: PathSumConfig) -> list[complex]:
    """The values of :func:`_loop_values` at every lambda of ``lambdas``, lambda-major, as one
    array image sum.

    The geometry is built once: the sines, the saddle distances of every (pair, parity, k) and
    their squares, taken with ``math.pow`` as the loop's ``**`` takes them (numpy's square is
    ``d * d``, which rounds differently).  Then one exponent array over the whole chain, masked
    at ``> -_EXP_FLOOR``: the entries outside the mask have weight exactly 0.0, and every entry
    of :func:`_live_ks` inside it is in the mask.  Each live weight is a ``math.exp`` (numpy's
    exp differs by an ulp), and every other step is elementwise, which rounds as Python does,
    so each value is bitwise the loop's.  A correction past the float range raises
    ``DomainError`` before any weight is taken, and :func:`_pathsum_chain` runs the loop instead.
    Once every correction is finite, the weights are taken in (lambda, pair) order, so an
    overflowing one raises the loop's ``OverflowError``.  Numpy's floating-point warnings are
    off: a quotient past the float range is inf, as Python's is, and is refused or masked.

    Where every live phase is real, as every phase is at integer nu (``_unit_phase`` gives
    exactly +-1+0j), each imaginary term is a zero times a finite weight, so each imaginary sum
    is fsum's +0.0 times ``norm``, +0.0: the values are built with an imaginary part of 0.0 and
    the imaginary terms are not formed.
    """
    k_max, n_pairs = config.k_max, len(pairs)
    sines = {theta: math.sin(theta) for theta in {t for pair in pairs for t in pair}}
    ss = np.array([sines[a] * sines[b] for a, b in pairs])
    # saddle distances in (pair, k, parity) order, the order of _phases
    d = np.array([(a - b, a + b) for a, b in pairs])[:, None, :] - (2.0 * math.pi * np.arange(-k_max, k_max + 1))[:, None]
    neg_square = -np.fromiter(map(math.pow, d.ravel().tolist(), repeat(2.0)), float, d.size).reshape(d.shape)
    coupling = np.array([0.5 * lam * nu * (nu - 1.0) for lam in lambdas])[:, None]
    with np.errstate(all="ignore"):
        correction = np.where(coupling != 0.0, coupling / ss, 0.0)
        if not np.isfinite(correction).all():
            raise DomainError("path sum: a potential correction leaves the float range")
        potential = np.stack([-correction, correction], axis=-1)[:, :, None, :]
        exponent = (neg_square / np.array([2.0 * lam for lam in lambdas])[:, None, None, None] + potential).reshape(len(lambdas) * n_pairs, -1)
    rows, cols = np.nonzero(exponent > -_EXP_FLOOR)
    weights = np.fromiter(map(math.exp, exponent[rows, cols].tolist()), float, len(rows))
    phases = np.array(_phases(nu, k_max, config.prescription))[cols]
    re = (weights * phases.real).tolist()
    ends = np.bincount(rows, minlength=len(exponent)).cumsum().tolist()
    norms = [1.0 / math.sqrt(2.0 * math.pi * lam) for lam in lambdas for _ in range(n_pairs)]
    if not phases.imag.any():
        return [complex(norm * math.fsum(re[i:j]), 0.0) for norm, i, j in zip(norms, [0] + ends, ends)]
    im = (weights * phases.imag).tolist()
    return [complex(norm * math.fsum(re[i:j]), norm * math.fsum(im[i:j])) for norm, i, j in zip(norms, [0] + ends, ends)]


def _pathsum_chain(nu: float, pairs, lambdas, config: PathSumConfig | None) -> list[complex]:
    """The path-sum core: the value at every (theta, theta') of ``pairs`` and every lambda of
    ``lambdas``, lambda-major, from checked arguments (``verify.compare_methods``).  From
    ``_ARRAY_MIN_POINTS`` points up to ``_ARRAY_MAX_TERMS`` terms it is one array sum over the chain
    (:func:`_array_values`), otherwise lambda by lambda through :func:`_loop_values`.  The values
    are bitwise equal, and so are the refusals: where the array sum refuses a correction, the loop
    runs instead, and it refuses at the first (lambda, pair) it meets, as the scalar kernels do."""
    config = config or _DEFAULT_PATH
    points = len(pairs) * len(lambdas)
    if _ARRAY_MIN_POINTS <= points and points * (4 * config.k_max + 2) <= _ARRAY_MAX_TERMS:
        try:
            return _array_values(nu, pairs, lambdas, config)
        except DomainError:
            pass
    return [value for lam in lambdas for value in _loop_values(nu, pairs, lam, config)]


def _point_estimate(nu: float, method: str, theta: float, theta_p: float, lam: float, config: PathSumConfig | None) -> KernelEstimate:
    """The path sum at one point, as an estimate; ``terms_used`` is the nominal ``4 k_max + 2``.  One
    point is below ``_ARRAY_MIN_POINTS``, where :func:`_pathsum_chain` always takes the loop, so the
    arguments are checked here and go to :func:`_loop_values` directly."""
    config = config or _DEFAULT_PATH
    nu, theta, theta_p, lam = require_point(nu, theta, theta_p, lam)
    [value] = _loop_values(nu, [(theta, theta_p)], lam, config)
    near_boundary = min(theta, math.pi - theta, theta_p, math.pi - theta_p) < _BOUNDARY_MARGIN
    return KernelEstimate(value=value, method=method, terms_used=4 * config.k_max + 2, near_boundary=near_boundary)


def kernel_pathsum_general(
    nu: float,
    theta: float,
    theta_p: float,
    lam: float,
    config: PathSumConfig | None = None,
) -> KernelEstimate:
    """Phased reflection sum for arbitrary coupling; value is complex."""
    return _point_estimate(nu, "path_sum_general", theta, theta_p, lam, config)


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
    return _point_estimate(1.0, "path_sum_nu1", theta, theta_p, lam, config)


def kernel_pathsum_nu2(
    theta: float,
    theta_p: float,
    lam: float,
    config: PathSumConfig | None = None,
) -> KernelEstimate:
    """nu = 2 decomposition; both parities enter with coefficient +1."""
    return _point_estimate(2.0, "path_sum_nu2", theta, theta_p, lam, config)
