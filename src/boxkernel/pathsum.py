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
import operator
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

# Relative widening of the live window, in units of |sep| + reach: above the rounding of the window's ends
# and of the loop's exponent, which at a potential past ~1e13 is more than the 0.87 between the two floors.
_ROUNDING = 2.0 ** -48

# Fewest (pair, lambda) points for which :func:`_pathsum_chain` takes one array sum over the chain rather than
# the per-pair loop: the fewest at which the array sum wins on 4-lambda chains.  Loop time over array time at
# nu = 0.75, 1, 1.3 and 2.5, lambdas log-uniform in [0.01, 0.4], k_max = 8, on seeded pairs whose image rows do
# not repeat (x86_64, 2 vCPUs, numpy 2.4.6, interleaved timeit minima), at 1, 2 and 4 lambdas: 0.27-0.35,
# 0.32-0.39 and 0.35-0.44 at 4 points; 0.55-0.75, 0.74-1.00 and 0.88-1.01 at 20; 0.56-0.77, 0.79-0.97 and
# 0.97-1.10 at 24; 2 lambdas reach 0.96-1.29 at 48 points.  The benchmark's chains: 1.03-1.16 on a 3x3 grid's
# 6 distinct pairs x 4 lambdas (nu = 2.5, lambda 0.4 to 0.05), 0.81-0.86 on the decomposition suites' 3 x 4.
# The crossover follows the chain's length and its live and repeated rows, which the point count does not see.
_ARRAY_MIN_POINTS = 24

# Most terms, points x (4 k_max + 2), that one array sum takes: its arrays hold every term of the call at
# once (8 MB each at this size), where the loop holds one pair's live terms.
_ARRAY_MAX_TERMS = 1 << 20

PRESCRIPTIONS = ("A", "B")

# The parity names, indexed by the parity's offset in (k, parity) order.
_PARITIES = ("even", "odd")

_TWO_PI = 2.0 * math.pi


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
    try:
        k = operator.index(k)  # any integer type, numpy's too; a fraction, NaN or inf is refused, not rounded
    except TypeError:
        raise DomainError(f"winding k must be an integer, got {k!r}") from None
    nu = require_nu(nu)
    if parity not in _PARITIES:
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    if prescription not in PRESCRIPTIONS:
        raise DomainError(f"prescription must be 'A' or 'B', got {prescription!r}")
    try:
        return _phase(k, parity, nu, prescription)
    except OverflowError:  # the multiple 2 k nu or (2k - 1) nu, or twice it, is past the float range
        raise DomainError(f"reflection phase: the phase multiple is past the float range at k = {k}, parity {parity!r}, nu = {nu:g}") from None


def _phase(k: int, parity: str, nu: float, prescription: str) -> complex:
    """:func:`reflection_phase` on checked arguments."""
    if prescription == "A":
        return _unit_phase((2 * k if parity == "even" else 2 * k - 1) * nu)
    return _unit_phase(0.0 if parity == "even" else nu)


def _symmetric(nu: float, prescription: str) -> bool:
    """Whether the path sum at coupling ``nu`` is bitwise symmetric in (theta, theta'), as the kernel is.
    Swapping the angles negates the even saddle distance exactly, so the swapped sum takes the same
    exponents, the even ones at k -> -k, and fsum is exact in any order.  Only the even phases can change:
    1 under B; under A exp(2 k nu pi i), which k -> -k conjugates, +-1 exactly wherever 2 nu is an integer."""
    return prescription == "B" or (2.0 * nu).is_integer()


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
    :func:`kernel_pathsum_general` bit for bit: both take the geometry of
    :func:`_images` and the phases of ``_phase``.  The kernels exponentiate only
    the images within the reach of a saddle (:func:`_live_ks`), the only ones
    whose weight can be nonzero, with a phase table that reaches the largest
    such |k| and forms no imaginary sum where it is all real (:func:`_phases`);
    their ``terms_used`` is still the nominal ``4 k_max + 2``.  This list is the
    introspection view: it holds every image, also those of weight exactly 0.
    """
    nu, theta, theta_p, lam = require_point(nu, theta, theta_p, lam)
    config = config or _DEFAULT_PATH
    images = _images(nu, theta, theta_p, lam, config.k_max)
    return [
        ReflectionTerm(k, parity, _phase(k, parity, nu, config.prescription), -((sep - _TWO_PI * k) ** 2) / (2.0 * lam), potential)
        for k in range(-config.k_max, config.k_max + 1)
        for parity, (_, sep, potential, _) in zip(_PARITIES, images)
    ]


@functools.lru_cache(maxsize=64)
def _phases(nu: float, reach: int, prescription: str) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
    """The real and imaginary parts of the phases of the terms with |k| <= ``reach``, the term (k, parity)
    at ``2 (k + reach) + parity``; each is :func:`reflection_phase`'s body, whatever the reach, so the
    integer-coupling collapses stay exact.  The imaginary parts are ``None`` where all are 0, as at integer
    nu (``_unit_phase`` gives +-1+0j): each imaginary sum would be +0.0.  Callers ask for the largest live
    |k|, not for ``k_max``."""
    table = [_phase(k, parity, nu, prescription) for k in range(-reach, reach + 1) for parity in _PARITIES]
    im = tuple(phase.imag for phase in table)
    return tuple(phase.real for phase in table), im if any(im) else None


def _live_ks(sep: float, potential: float, lam: float, k_max: int) -> range:
    """The k in [-k_max, k_max] with |sep - 2 pi k| < reach = sqrt(2 lambda (_EXP_FLOOR + potential)).

    Those are the images whose exponent ``potential - (sep - 2 pi k)^2 / (2 lambda)`` is above
    -_EXP_FLOOR.  Every other k has an exponent at or below -_EXP_FLOOR, up to rounding, which is below
    the -745.13 where ``math.exp`` gives 0.0, so its weight is exactly 0.0.  The reach is widened by
    ``_ROUNDING`` (|sep| + reach), more than the rounding of the ends and of the loop's exponent, so no
    image that rounds to a nonzero weight is left out, however large the potential.  The ends are clipped
    to +-k_max before they are rounded inwards, so an infinite reach (lambda near the float maximum)
    keeps every winding.  A term that would overflow lies inside the range.
    """
    if not potential > -_EXP_FLOOR:
        return range(0)
    reach = math.sqrt(2.0 * lam * (_EXP_FLOOR + potential))
    reach += _ROUNDING * (abs(sep) + reach)
    lo = math.ceil(max(-k_max, (sep - reach) / _TWO_PI))
    hi = math.floor(min(k_max, (sep + reach) / _TWO_PI))
    return range(lo, hi + 1) if lo <= hi else range(0)


def _images(nu: float, theta: float, theta_p: float, lam: float, k_max: int) -> tuple[tuple[int, float, float, range], ...]:
    """(parity, saddle distance, potential correction, live windings :func:`_live_ks`) of each parity of one
    point, even (0) first; a correction past the float range raises ``DomainError`` (at nu = 1 it is 0)."""
    coupling, ss = 0.5 * lam * nu * (nu - 1.0), math.sin(theta) * math.sin(theta_p)
    if coupling and not (ss and math.isfinite(coupling / ss)):
        raise DomainError(f"path sum: the potential correction leaves the float range at nu = {nu:g}, theta = {theta:g}, theta' = {theta_p:g}")
    correction = coupling / ss if coupling else 0.0
    even, odd = theta - theta_p, theta + theta_p
    return (0, even, -correction, _live_ks(even, -correction, lam, k_max)), (1, odd, correction, _live_ks(odd, correction, lam, k_max))


def _loop_values(nu: float, pairs, lam: float, config: PathSumConfig) -> list[complex]:
    """The reference path-sum core, from checked arguments: the :func:`decompose` sum of each pair at
    one lambda, with exact (fsum) reduction, in one pass over the images that can contribute
    (:func:`_live_ks`), one ``math.exp`` each.  Each image left out has weight exactly 0, a +-0.0
    that fsum ignores, so the value is bitwise the full sum's.  The phases come from the table that
    reaches the pair's largest kept |k|; where it is all real (:func:`_phases`), the imaginary part
    is +0.0 and no imaginary sum is formed.  A weight past the float range raises ``math.exp``'s
    ``OverflowError``, not inf."""
    norm, two_lam = 1.0 / math.sqrt(_TWO_PI * lam), 2.0 * lam
    values = []
    for theta, theta_p in pairs:
        images = _images(nu, theta, theta_p, lam, config.k_max)
        (*_, even), (*_, odd) = images
        # the largest live |k|; an empty range is range(0), whose ends give at most 0
        reach = max(-even.start, even.stop - 1, -odd.start, odd.stop - 1)
        re_phases, im_phases = _phases(nu, reach, config.prescription)
        re, im = [], []
        for parity, sep, potential, ks in images:
            i = 2 * (ks.start + reach) + parity
            for k in ks:
                # bitwise exp(gauss_exponent + potential_correction) of decompose's term
                w = math.exp(potential - (sep - _TWO_PI * k) ** 2 / two_lam)
                re.append(re_phases[i] * w)
                if im_phases:
                    im.append(im_phases[i] * w)
                i += 2
        values.append(complex(norm * math.fsum(re), norm * math.fsum(im) if im_phases else 0.0))
    return values


def _array_values(nu: float, pairs, lambdas, config: PathSumConfig) -> list[complex]:
    """The values of :func:`_loop_values` at every lambda of ``lambdas``, lambda-major, as one
    array image sum.

    A pair's images are two rows, one per parity, of ``2 k_max + 1`` windings each.  A row is keyed
    by its bits: parity, saddle distance (theta - theta' or theta + theta') and sin theta sin theta',
    which enters only through the correction, so where every correction is 0 (nu = 1) the distance
    alone keys it.  Each distinct row is built once and shared by every pair that has it: repeated
    separations on a uniform grid, and under prescription A a pair and its mirror, which share their
    odd row.  The geometry is built once: the saddle distances of every row and their squares,
    taken with ``math.pow`` as the loop's ``**`` takes them (numpy's square is ``d * d``, which
    rounds differently).  Then one exponent array over the whole chain, masked at ``> -_EXP_FLOOR``:
    the entries outside the mask have weight exactly 0.0.  The mask keeps the images of
    :func:`_live_ks` but at the window's edge, where the two may differ by an image whose weight is
    0.0 either way.  Each live weight is a ``math.exp`` (numpy's exp differs by an ulp), taken
    once per (lambda, row), and every other step is elementwise, which rounds as Python does.  A
    pair's value is the fsum of its two rows' terms, the loop's terms, and fsum is exact in any
    order, so each value is bitwise the loop's.  A correction past the float range raises
    ``DomainError`` before any weight is taken, and :func:`_pathsum_chain` runs the loop instead.
    Once every correction is finite, a weight past the float range raises the loop's
    ``OverflowError``.  Numpy's floating-point warnings are off: a quotient past the float range is
    inf, as Python's is, and is refused or masked.

    The phases come from the table that reaches the chain's largest live |k| (:func:`_phases`);
    where it is all real, the values are built with an imaginary part of +0.0, as the loop's are,
    and the imaginary terms are not formed.
    """
    k_max = config.k_max
    sines = {theta: math.sin(theta) for theta in {t for pair in pairs for t in pair}}
    coupling = np.array([0.5 * lam * nu * (nu - 1.0) for lam in lambdas])[:, None]
    coupled = coupling.any()
    rows = {}  # (parity, saddle distance, sin product or 0.0 where it is not used) -> row, in first-appearance order
    pair_rows = []
    for a, b in pairs:
        ss = sines[a] * sines[b] if coupled else 0.0
        pair_rows.append((rows.setdefault((0, a - b, ss), len(rows)), rows.setdefault((1, a + b, ss), len(rows))))
    parity, sep, ss = (np.array(column) for column in zip(*rows))
    d = sep[:, None] - _TWO_PI * np.arange(-k_max, k_max + 1)
    neg_square = -np.fromiter(map(math.pow, d.ravel().tolist(), repeat(2.0)), float, d.size).reshape(d.shape)
    with np.errstate(all="ignore"):
        correction = np.where(coupling != 0.0, coupling / ss, 0.0)
        if not np.isfinite(correction).all():
            raise DomainError("path sum: a potential correction leaves the float range")
        potential = np.where(parity == 0, -correction, correction)[:, :, None]
        exponent = (neg_square / np.array([2.0 * lam for lam in lambdas])[:, None, None] + potential).reshape(-1, d.shape[1])
    live, cols = np.nonzero(exponent > -_EXP_FLOOR)
    weights = np.fromiter(map(math.exp, exponent[live, cols].tolist()), float, len(cols))
    # column k + k_max of a row of parity p is the term (k, p), at 2 (k + reach) + p of the phase table
    reach = int(max(k_max - cols.min(), cols.max() - k_max)) if len(cols) else 0
    re_phases, im_phases = _phases(nu, reach, config.prescription)
    index = 2 * (cols - k_max + reach) + parity[live % len(rows)]
    ends = np.bincount(live, minlength=len(exponent)).cumsum().tolist()
    starts = [0] + ends
    # the (lambda, row) entries of each (lambda, pair), lambda-major
    value_rows = [(base + even, base + odd) for base in range(0, len(exponent), len(rows)) for even, odd in pair_rows]

    def sums(phases) -> list[float]:
        """Per (lambda, pair), the fsum of its two rows' terms under ``phases``."""
        terms = (weights * np.array(phases)[index]).tolist()
        terms = [terms[i:j] for i, j in zip(starts, ends)]
        return [math.fsum(terms[even] + terms[odd]) for even, odd in value_rows]

    norms = [1.0 / math.sqrt(_TWO_PI * lam) for lam in lambdas for _ in pairs]
    if im_phases is None:
        return [complex(norm * re, 0.0) for norm, re in zip(norms, sums(re_phases))]
    return [complex(norm * re, norm * im) for norm, re, im in zip(norms, sums(re_phases), sums(im_phases))]


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
    """The path sum at one point, as an estimate; ``terms_used`` is the nominal ``4 k_max + 2``, although
    :func:`_loop_values` exponentiates only the images that can contribute.  One point is below
    ``_ARRAY_MIN_POINTS``, where :func:`_pathsum_chain` always takes the loop, so the arguments are
    checked here and go to :func:`_loop_values` directly."""
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
