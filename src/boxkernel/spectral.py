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
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import _MAX_TERMS, DomainError, PolicyUnresolvableError, require_angles, require_count, require_index, require_instance, require_lambda, require_nu, require_theta

__all__ = [
    "TruncationPolicy",
    "KernelEstimate",
    "eigenfunctions",
    "truncation_tail_bound",
    "kernel_spectral",
    "kernel_spectral_profile",
]

_LOG_2PI = math.log(2.0 * math.pi)


# Most products phi_n(a) phi_n(b) that one block of pairs holds in :func:`_mode_sums` (512 KB).
_BLOCK_PRODUCTS = 1 << 16

# The largest coupling whose eigenfunction norm N_0 is accurate to the cross-method checks (:func:`_eigenfunction_table`).
_MAX_NU = 1e4

# Fewest angles from which :func:`_eigenfunction_table` runs one array recurrence, not a scalar one per angle.  Scalar
# over array time from 21 to 471 modes (nu = 2.5; x86_64, 2 vCPUs, timeit minima): 0.52-0.37 at 8 angles, 0.90-1.02
# at 20, 0.93-1.06 at 21, 0.94-1.03 at 22, 1.10-1.17 at 24, 1.53-1.80 at 40, 4.9-6.1 at 160 (crossover ~21-23;
# 24 is kept, where the scalar form is ~10 % slower).
_ARRAY_MIN_ANGLES = 24


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
        if not (isinstance(self.epsilon_tail, numbers.Real) and 0.0 < self.epsilon_tail < math.inf):
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

    def __init__(self, value: complex, method: str, terms_used: int, tail_bound: float | None = None, near_boundary: bool = False) -> None:
        # the generated __init__ of a frozen dataclass sets each field by its own object.__setattr__
        # call; every scalar call builds one estimate, so the fields are set in one update
        self.__dict__.update(value=value, method=method, terms_used=terms_used, tail_bound=tail_bound, near_boundary=near_boundary)

    @property
    def real(self) -> float:
        return self.value.real


def _require_norm_range(nu: float) -> None:
    """``DomainError`` past ``_MAX_NU``, where the eigenfunction norms lose accuracy (:func:`_eigenfunction_table`)."""
    if nu > _MAX_NU:
        raise DomainError(f"eigenfunction table: the normalisation is accurate for nu <= {_MAX_NU:g} only, got nu = {nu:g}")


def eigenfunctions(nmax: int, nu: float, theta: float) -> np.ndarray:
    """The orthonormal eigenfunctions phi_0(theta) .. phi_nmax(theta), in one recurrence pass
    (:func:`_eigenfunction_table`).  Each |phi_n| is at most sqrt(n + nu) for nu >= 1/2 (Agmon's and, below
    nu = 1, Szego's inequality: docs/tail_bound.md), so no step leaves the float range; a row longer than
    ``_MAX_TERMS`` is refused."""
    nu = require_nu(nu)
    theta = require_theta(theta)
    nmax = require_index(nmax, 0, "nmax must be nonnegative", _MAX_TERMS - 1)
    [row] = _eigenfunction_table(nmax, nu, [theta])
    return row


def _eigenfunction_table(nmax: int, nu: float, thetas) -> np.ndarray:
    """phi_n(theta) for each angle of ``thetas`` (rows) and n = 0..nmax (columns), every eigenbasis of the package.

    The recurrence of the orthonormal Gegenbauer functions (DLMF 18.9.1) on phi_n itself: phi_0 = N_0 sin^nu theta
    and phi_{n+1} = (cos theta phi_n - a_n phi_{n-1}) / a_{n+1}, a_0 = 0, a_n = sqrt(n (n + 2nu - 1) / (4 (n + nu)
    (n + nu - 1))).  |phi_n| <= sqrt(n + nu) for nu >= 1/2 (docs/tail_bound.md), so no step overflows.  The
    coefficients 1 / a_{n+1} and a_n / a_{n+1} are built elementwise, so a shorter table is bitwise the prefix of a
    longer one.  Below ``_ARRAY_MIN_ANGLES`` angles each row is a scalar recurrence, else the rows are one array
    recurrence, bitwise equal, whose table is the transpose of the C-ordered (modes, angles) matrix the quadrature
    checks take.  A phi_0 below the normal floats takes :func:`_rescaled_row` in both forms.

    log N_0 cancels to about eps * lgamma(2nu): ~1e-11 relative for nu in [1e3, 1e4] against mpmath, 2.4e-8 at
    1e7.  Above ``_MAX_NU``, where it could pass the 1e-10 of the cross-method checks, both mode sums refuse."""
    _require_norm_range(nu)
    n = np.arange(1.0, nmax + 1.0)
    a = np.concatenate(([0.0], np.sqrt(n * (n + 2.0 * nu - 1.0) / (4.0 * (n + nu) * (n + nu - 1.0)))))
    steps = list(zip((1.0 / a[1:]).tolist(), (a[:-1] / a[1:]).tolist()))
    log_n0 = nu * math.log(2.0) + math.lgamma(nu) - 0.5 * (math.lgamma(2.0 * nu) + _LOG_2PI) + 0.5 * math.log(nu)
    xs, log_phi0 = np.cos(thetas), log_n0 + nu * np.log(np.sin(thetas))
    phi0 = np.exp(log_phi0)
    if len(xs) < _ARRAY_MIN_ANGLES:
        return np.array([
            _rescaled_row(x, log_cur, steps) if cur < sys.float_info.min else _recurrence(x, cur, steps)
            for x, cur, log_cur in zip(xs.tolist(), phi0.tolist(), log_phi0.tolist())
        ])
    table = np.array(_recurrence(xs, phi0, steps))
    for j in np.flatnonzero(phi0 < sys.float_info.min):
        table[:, j] = _rescaled_row(float(xs[j]), float(log_phi0[j]), steps)
    return table.T


def _recurrence(x, cur, steps: list[tuple[float, float]]) -> list:
    """:func:`_eigenfunction_table`'s recurrence from phi_0 = ``cur`` at cos theta = ``x``: phi_0 .. phi_N for one
    angle, with ``x`` and ``cur`` floats, or one array per n for a vector of angles, by the same float steps."""
    prev, row = 0.0, [cur]
    append = row.append
    for inv, ratio in steps:
        prev, cur = cur, inv * x * cur - ratio * prev
        append(cur)
    return row


def _rescaled_row(x: float, log_phi0: float, steps: list[tuple[float, float]]) -> list[float]:
    """:func:`_eigenfunction_table`'s recurrence where phi_0 = exp(``log_phi0``) is below the normal floats, on
    phi_n / 2^e from phi_0's mantissa, moving 2^512 into e as a value passes it: so the phi_n that grow back into
    the float range (~0.56 at n = 4095, nu = 1000, theta = 2.9, where phi_0 ~ 1e-622) are not left at 0."""
    e = math.floor(log_phi0 / math.log(2.0))
    prev, cur = 0.0, math.exp(log_phi0 - e * math.log(2.0))
    row = [math.ldexp(cur, e)]
    for inv, ratio in steps:
        prev, cur = cur, inv * x * cur - ratio * prev
        if abs(cur) > 2.0 ** 512:
            prev, cur, e = prev * 2.0 ** -512, cur * 2.0 ** -512, e + 512
        row.append(math.ldexp(cur, e))
    return row


def _log_coupling(nu: float) -> float:
    """The n-free part of log A_n (:func:`_log_envelope`), ``nu log 2 + lgamma(nu) - lgamma(2 nu) - log(2 pi) / 2``:
    three of the envelope's six libm calls, made once per search, not at every probe."""
    return nu * math.log(2.0) + math.lgamma(nu) - math.lgamma(2.0 * nu) - 0.5 * _LOG_2PI


def _log_envelope(n: float, nu: float, log_coupling: float) -> float:
    """log A_n with |phi_n(theta)| <= A_n for every theta in (0, pi).

    Uses |C_n^nu(x)| <= C_n^nu(1) = Gamma(n+2nu) / (n! Gamma(2nu)) and
    sin^nu(theta) <= 1.  log A_n is ``log_coupling``, the per-coupling constant of
    :func:`_log_coupling`, plus the per-n part ``log(n+nu) / 2 + (lgamma(n+2nu) - lgamma(n+1)) / 2``,
    added in the written-out sum's left-to-right order, so each log A_n has the bits of that sum.
    """
    return log_coupling + 0.5 * math.log(n + nu) + 0.5 * (math.lgamma(n + 2.0 * nu) - math.lgamma(n + 1.0))


def truncation_tail_bound(nu: float, lam: float, n_start: int) -> float:
    """Upper bound on ``sum_{n >= n_start} exp(-lambda (n+nu)^2/2) |phi_n phi_n'|``.

    Valid uniformly in both angles.  The bound is the geometric majorant
    ``t_N / (1 - r_N)`` with ``t_n = exp(-lambda (n+nu)^2 / 2) A_n^2`` and
    ``r_N = t_{N+1} / t_N``; the ratio is decreasing in n, so the majorant is
    legitimate whenever ``r_N < 1`` (and +inf is returned otherwise, which the
    policy resolver treats as "keep adding terms").  ``DomainError`` where log t_N leaves the float range.
    """
    nu, lam, n_start = require_nu(nu), require_lambda(lam), require_index(n_start, 1, "tail bound needs n_start >= 1")
    try:
        log_coupling = _log_coupling(nu)
    except OverflowError:  # a log-gamma past nu ~ 2.6e305, where (n + nu)^2 has left the float range too
        log_coupling = math.nan
    return _tail_bound(nu, lam, n_start, log_coupling)


def _tail_bound(nu: float, lam: float, n_start: int, log_coupling: float) -> float:
    """:func:`truncation_tail_bound` on checked arguments and the coupling's :func:`_log_coupling`: the probe
    of :func:`_resolve`'s scan."""
    log_t = lambda n: -lam * (n + nu) ** 2 / 2.0 + 2.0 * _log_envelope(float(n), nu, log_coupling)
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


def _mode_weights(nu: float, lambdas, policy: TruncationPolicy | None) -> list[tuple[np.ndarray, float]]:
    """Per lambda of ``lambdas``, the weights exp(-lambda (n+nu)^2 / 2) of the modes n = 0..N-1 that ``policy``
    keeps, and their tail bound.  Each lambda is resolved on its own, in chain order (:func:`_resolve`); the
    squares (n+nu)^2 are formed once, at the largest N, and each lambda's weights over its own prefix of
    them, bitwise those of squares of its own length: every step is elementwise.  A lambda-by-mode table
    would hold up to len(lambdas) x ``_MAX_TERMS`` floats where the weights need only the sum of the Ns.
    The weights are built on each call; only N and the bound are memoised."""
    resolved = [_resolve(nu, lam, policy or _DEFAULT_POLICY) for lam in lambdas]
    squares = (np.arange(max(n_terms for n_terms, _ in resolved), dtype=float) + nu) ** 2
    return [(np.exp(-lam * squares[:n_terms] / 2.0), tail) for lam, (n_terms, tail) in zip(lambdas, resolved)]


# 256 keys: the grid sweeps' few per pass hit.  point-eval's 400 distinct spectral keys per pass cycle through it
# with no hit; a memo of 400 or more would hit on every pass after the first only because that workload replays
# the same operations, and would hold more memory.
@functools.lru_cache(maxsize=256)
def _resolve(nu: float, lam: float, policy: TruncationPolicy) -> tuple[int, float]:
    """The mode count N that ``policy`` keeps at (nu, lambda), and its tail bound: the first N of a
    linear scan over :func:`truncation_tail_bound`'s body.  A refusal raises and is not cached; past the
    norms' range it comes before any bound."""
    _require_norm_range(nu)
    log_coupling = _log_coupling(nu)
    if policy.n_terms is not None:
        return policy.n_terms, _tail_bound(nu, lam, policy.n_terms, log_coupling)
    for n_terms in range(1, policy.n_cap + 1):
        tail = _tail_bound(nu, lam, n_terms, log_coupling)
        if tail <= policy.epsilon_tail:
            return n_terms, tail
    raise PolicyUnresolvableError(
        f"spectral tail below {policy.epsilon_tail:g} needs more than "
        f"{policy.n_cap} modes at nu={nu:g}, lambda={lam:g}"
    )


def _mode_sums(weights: list[np.ndarray], nu: float, pairs) -> list[list[float]]:
    """Per weight row ``w`` of ``weights``, the fsum of ``w[n] phi_n(a) phi_n(b)``, n = 0..len(w)-1,
    per pair (a, b): the spectral kernel along a lambda chain, and the addition series.  One
    eigenfunction table (:func:`_eigenfunction_table`) serves the call: a row per distinct angle,
    at the longest weight row.  A shorter weight row sums over a prefix of the columns, bitwise
    what a table of its own length gives.  Forming ``phi_n(a) phi_n(b)`` first makes each sum exactly
    symmetric in (a, b).

    The pairs are taken in blocks: a block's products are one indexed multiply, and each weight
    row one multiply, one ``tolist`` and one fsum per pair.  A block holds at most
    ``_BLOCK_PRODUCTS`` products, or one pair where the longest row is longer, so beyond the table
    at most max(2^16, N) products and one weighted block of them are held at once.  One pair (the
    scalar kernels, the addition series) multiplies the table's first and last row, its two
    angles, or its one angle twice, without the index arrays."""
    n_max = max(map(len, weights))
    index = {theta: row for row, theta in enumerate(dict.fromkeys(t for pair in pairs for t in pair))}
    table = _eigenfunction_table(n_max - 1, nu, list(index))
    if len(pairs) == 1:
        product = table[0] * table[-1]
        return [[math.fsum((w * product[:len(w)]).tolist())] for w in weights]
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
    order; the squares of the weights (:func:`_mode_weights`) and the eigenfunction table
    (:func:`_mode_sums`) are each built once, at the largest N."""
    weights = _mode_weights(nu, lambdas, policy)
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
    lam, policy = require_lambda(lam), require_instance(policy, TruncationPolicy, "policy", _DEFAULT_POLICY)
    [(n_terms, tail, [value])] = _spectral_chain(nu, [(theta_a, theta_b)], [lam], policy)
    return KernelEstimate(value=complex(value, 0.0), method="spectral", terms_used=n_terms, tail_bound=tail)


def kernel_spectral_profile(
    nu: float,
    theta_a: float,
    thetas: np.ndarray,
    lam: float,
    policy: TruncationPolicy | None = None,
) -> np.ndarray:
    """Spectral kernel from ``theta_a`` to each angle of ``thetas`` at once.

    One eigenfunction table, the source angle's row and then one per angle of ``thetas``,
    serves the whole profile; the semigroup check builds its profiles through the same
    core, :func:`_spectral_profiles`.
    """
    nu, theta_a, lam = require_nu(nu), require_theta(theta_a, "theta_a"), require_lambda(lam)
    thetas, policy = require_angles(thetas), require_instance(policy, TruncationPolicy, "policy", _DEFAULT_POLICY)
    [profile] = _spectral_profiles(nu, [(theta_a, lam)], thetas, policy)
    return profile


def _spectral_profiles(nu: float, legs, thetas: np.ndarray, policy: TruncationPolicy | None) -> list[np.ndarray]:
    """:func:`kernel_spectral_profile` on checked arguments, per (theta_a, lambda) of ``legs``: the profiles
    of ``verify.check_semigroup``.  One table at the longest leg's N holds the legs' source rows, then the node
    rows; each leg takes its prefix of them, bitwise a table of the leg's own length.  The legs are resolved in
    order before the table is built, which cannot refuse, so a refusal is the first refusing leg's."""
    weights = [w for w, _ in _mode_weights(nu, [lam for _, lam in legs], policy)]
    n_max = max(map(len, weights))
    table = _eigenfunction_table(n_max - 1, nu, [theta_a for theta_a, _ in legs] + np.atleast_1d(thetas).tolist())
    nodes = np.ascontiguousarray(table[len(legs):].T).reshape((n_max,) + thetas.shape)
    return [(w * fa[:len(w)]) @ nodes[:len(w)] for w, fa in zip(weights, table)]
