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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PolicyUnresolvableError, require_angles, require_count, require_index, require_lambda, require_nu, require_theta
from .specfun import _gegenbauer_table

__all__ = [
    "TruncationPolicy",
    "KernelEstimate",
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

# Most products phi_n(a) phi_n(b) that one block of pairs holds in :func:`_mode_sums` (512 KB).
_BLOCK_PRODUCTS = 1 << 16

# The largest coupling whose eigenfunction norms are accurate to the cross-method checks (:func:`_log_norms`).
_MAX_NU = 1e4


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
        if self.n_terms is not None:
            require_count(self.n_terms, "n_terms", _MAX_TERMS)
        if not (0.0 < self.epsilon_tail < math.inf):
            raise DomainError(f"epsilon_tail must be finite and > 0, got {self.epsilon_tail}")
        require_count(self.n_cap, "n_cap", _MAX_TERMS)


# The policy of every call that passes none; frozen, so one instance serves them all.
_DEFAULT_POLICY = TruncationPolicy()


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


def _require_norm_range(nu: float) -> None:
    """``DomainError`` past ``_MAX_NU``, where the eigenfunction norms lose accuracy (:func:`_log_norms`)."""
    if nu > _MAX_NU:
        raise DomainError(f"eigenfunction table: the normalisation is accurate for nu <= {_MAX_NU:g} only, got nu = {nu:g}")


def _log_norms(nmax: int, nu: float) -> np.ndarray:
    """Log of the eigenfunction normalisation constants for n = 0..nmax.  ``lgamma(n+1) - lgamma(n+2nu)``
    is ``-lgamma(2nu) + sum_{j<n} log1p((1-2nu)/(j+2nu))``, a sum that does not cancel as the difference
    of the two ~3e4 log-gammas at n = 4096 does (to ~6e-12).

    The constant ``lgamma(nu) - lgamma(2nu) / 2`` still cancels, to about eps * lgamma(2nu): against
    mpmath (n <= 4096) the log error is at most 2.8e-11 for nu in [1e3, 1e4], then 3.3e-10 at nu = 1e5,
    2.4e-8 at 1e7 and 4.9 at 1e15, where a kernel value is off by orders of magnitude.  A log error
    is a relative error of each eigenfunction, so above ``_MAX_NU`` = 1e4, where it could pass the
    1e-10 of the cross-method checks, ``DomainError`` is raised for both mode sums (:func:`_require_norm_range`)."""
    _require_norm_range(nu)
    n = np.arange(nmax + 1, dtype=float)
    log_ratio = np.concatenate(([0.0], np.cumsum(np.log1p((1.0 - 2.0 * nu) / (n[:-1] + 2.0 * nu)))))
    return nu * math.log(2.0) + math.lgamma(nu) - 0.5 * (math.lgamma(2.0 * nu) + _LOG_2PI) + 0.5 * (np.log(n + nu) + log_ratio)


def eigenfunctions(nmax: int, nu: float, theta: float) -> np.ndarray:
    """The orthonormal eigenfunctions phi_0(theta) .. phi_nmax(theta), in one recurrence pass.

    The table is ``exp(log N_n + nu log sin theta) * C_n^nu(cos theta)``: the
    normalisation N_n and the sin^nu factor form one exponent, with log N_n a
    running sum over n (:func:`_log_norms`), and the Gegenbauer factor comes
    from its linear-space recurrence.  That factor grows up to
    C_n^nu(1) ~ n^(2 nu - 1) / Gamma(2 nu) near the walls and overflows at large
    n and nu; there a ``DomainError`` is raised.
    """
    nu = require_nu(nu)
    theta = require_theta(theta)
    nmax = require_index(nmax, 0, "nmax must be nonnegative")
    return _eigenfunction_matrix(_log_norms(nmax, nu), nu, theta)


def _eigenfunction_matrix(log_norms: np.ndarray, nu: float, thetas) -> np.ndarray:
    """phi_n(theta) for the n of ``log_norms`` (:func:`_log_norms`); rows are modes, columns follow ``thetas`` (a scalar gives a vector)."""
    nmax = len(log_norms) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        gegenbauer = _gegenbauer_table(nmax, nu, np.cos(thetas))
    # a value that leaves the float range stays inf or NaN up the recurrence, so the last row shows it
    if not np.isfinite(gegenbauer[-1]).all():
        raise DomainError(f"eigenfunction table: C_n^nu(cos theta) leaves the float range by n = {nmax} at nu = {nu:g}")
    log_amp = np.add.outer(log_norms, nu * np.log(np.sin(thetas)))
    return np.exp(log_amp) * gegenbauer


def _log_envelope(n: float, nu: float):
    """log A_n with |phi_n(theta)| <= A_n for every theta in (0, pi).

    Uses |C_n^nu(x)| <= C_n^nu(1) = Gamma(n+2nu) / (n! Gamma(2nu)) and
    sin^nu(theta) <= 1.
    """
    return (
        nu * math.log(2.0)
        + math.lgamma(nu)
        - math.lgamma(2.0 * nu)
        - 0.5 * _LOG_2PI
        + 0.5 * math.log(n + nu)
        + 0.5 * (math.lgamma(n + 2.0 * nu) - math.lgamma(n + 1.0))
    )


def truncation_tail_bound(nu: float, lam: float, n_start: int) -> float:
    """Upper bound on ``sum_{n >= n_start} exp(-lambda (n+nu)^2/2) |phi_n phi_n'|``.

    Valid uniformly in both angles.  The bound is the geometric majorant
    ``t_N / (1 - r_N)`` with ``t_n = exp(-lambda (n+nu)^2 / 2) A_n^2`` and
    ``r_N = t_{N+1} / t_N``; the ratio is decreasing in n, so the majorant is
    legitimate whenever ``r_N < 1`` (and +inf is returned otherwise, which the
    policy resolver treats as "keep adding terms").  ``DomainError`` where log t_N leaves the float range.
    """
    return _tail_bound(require_nu(nu), require_lambda(lam), require_index(n_start, 1, "tail bound needs n_start >= 1"))


def _tail_bound(nu: float, lam: float, n_start: int) -> float:
    """:func:`truncation_tail_bound` on checked arguments: the probe of :func:`_resolve`'s scan."""
    log_t = lambda n: -lam * (n + nu) ** 2 / 2.0 + 2.0 * _log_envelope(float(n), nu)
    try:
        t0 = log_t(n_start)
        ratio = math.exp(log_t(n_start + 1) - t0)
    except OverflowError:  # (n + nu)^2 or a log-gamma of the envelope
        t0 = math.nan
    if not math.isfinite(t0):
        raise DomainError(f"spectral sum: the mode weights leave the float range at nu = {nu:g}, lambda = {lam:g}")
    if ratio >= 1.0:
        return math.inf
    try:
        return math.exp(t0) / (1.0 - ratio)
    except OverflowError:  # t_N itself is past the float range: no bound yet, as for r_N >= 1
        return math.inf


def _mode_weights(nu: float, lam: float, policy: TruncationPolicy | None) -> tuple[np.ndarray, float]:
    """Weights exp(-lambda (n+nu)^2 / 2) of the modes n = 0..N-1 that ``policy`` keeps, and their tail bound.
    The array is built afresh on each call; only N and the bound are memoised (:func:`_resolve`)."""
    n_terms, tail = _resolve(nu, lam, policy or _DEFAULT_POLICY)
    n = np.arange(n_terms, dtype=float)
    return np.exp(-lam * (n + nu) ** 2 / 2.0), tail


@functools.lru_cache(maxsize=256)
def _resolve(nu: float, lam: float, policy: TruncationPolicy) -> tuple[int, float]:
    """The mode count N that ``policy`` keeps at (nu, lambda), and its tail bound: the first N of a
    linear scan over :func:`truncation_tail_bound`'s body.  A refusal raises and is not cached; past the
    norms' range it comes before any bound."""
    _require_norm_range(nu)
    if policy.n_terms is not None:
        return policy.n_terms, _tail_bound(nu, lam, policy.n_terms)
    for n_terms in range(1, policy.n_cap + 1):
        tail = _tail_bound(nu, lam, n_terms)
        if tail <= policy.epsilon_tail:
            return n_terms, tail
    raise PolicyUnresolvableError(
        f"spectral tail below {policy.epsilon_tail:g} needs more than "
        f"{policy.n_cap} modes at nu={nu:g}, lambda={lam:g}"
    )


def _mode_sums(weights: list[np.ndarray], nu: float, pairs) -> list[list[float]]:
    """Per weight row ``w`` of ``weights``, the fsum of ``w[n] phi_n(a) phi_n(b)``, n = 0..len(w)-1,
    per pair (a, b): the spectral kernel along a lambda chain, and the addition series.  One set of
    norms and one column per distinct angle, both at the longest row, on the scalar recurrence,
    which at a grid axis' few angles is 4-5x faster than the array one (and bitwise equal).  A
    shorter row sums over a prefix of the columns, bitwise what columns of its own length give:
    the norms are a running sum and every other step is elementwise.  Forming
    ``phi_n(a) phi_n(b)`` first makes each sum exactly symmetric in (a, b).

    The columns are stacked into one table, and the pairs are taken in blocks: a block's products
    are one indexed multiply, and each weight row one multiply, one ``tolist`` and one fsum per
    pair.  A block holds at most ``_BLOCK_PRODUCTS`` products, or one pair where the longest row
    is longer, so beyond the columns at most max(2^16, N) products and one weighted block of them
    are held at once.  One pair (the scalar kernels, the addition series) skips the table, whose
    stacking and indexing would add ~10 us to each of its calls."""
    n_max = max(map(len, weights))
    log_norms = _log_norms(n_max - 1, nu)
    columns = {theta: _eigenfunction_matrix(log_norms, nu, theta) for theta in {t for pair in pairs for t in pair}}
    if len(pairs) == 1:
        [(a, b)] = pairs
        product = columns[a] * columns[b]
        return [[math.fsum((w * product[:len(w)]).tolist())] for w in weights]
    index = {theta: row for row, theta in enumerate(columns)}
    table = np.array(list(columns.values()))
    rows_a, rows_b = (np.array([index[pair[side]] for pair in pairs]) for side in (0, 1))
    step = max(1, _BLOCK_PRODUCTS // n_max)
    sums = [[] for _ in weights]
    for start in range(0, len(pairs), step):
        products = table[rows_a[start:start + step]] * table[rows_b[start:start + step]]
        for row, w in zip(sums, weights):
            row += map(math.fsum, (w * products[:, :len(w)]).tolist())
    return sums


def _spectral_chain(nu: float, pairs, lambdas, policy: TruncationPolicy | None) -> list[tuple[int, float, list[float]]]:
    """The spectral core, from checked arguments: per lambda of ``lambdas``, the mode count N that ``policy``
    keeps, its tail bound, and the kernel at each of ``pairs``.  Each lambda is resolved on its own, in chain
    order; the norms and eigenfunction columns are built once, at the largest N (:func:`_mode_sums`)."""
    weights = [_mode_weights(nu, lam, policy) for lam in lambdas]
    sums = _mode_sums([w for w, _ in weights], nu, pairs)
    return [(len(w), tail, values) for (w, tail), values in zip(weights, sums)]


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
    nu, theta_a, theta_b = require_nu(nu), require_theta(theta_a, "theta_a"), require_theta(theta_b, "theta_b")
    [(n_terms, tail, [value])] = _spectral_chain(nu, [(theta_a, theta_b)], [require_lambda(lam)], policy)
    return KernelEstimate(value=complex(value, 0.0), method="spectral", terms_used=n_terms, tail_bound=tail)


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
    nu, theta_a, lam = require_nu(nu), require_theta(theta_a, "theta_a"), require_lambda(lam)
    return _spectral_profile(nu, theta_a, require_angles(thetas), lam, policy)


def _spectral_profile(nu: float, theta_a: float, thetas: np.ndarray, lam: float, policy: TruncationPolicy | None) -> np.ndarray:
    """:func:`kernel_spectral_profile` on checked arguments: the profiles of ``verify.check_semigroup``."""
    weights, _ = _mode_weights(nu, lam, policy)
    log_norms = _log_norms(len(weights) - 1, nu)
    fa = _eigenfunction_matrix(log_norms, nu, theta_a)
    return (weights * fa) @ _eigenfunction_matrix(log_norms, nu, thetas)
