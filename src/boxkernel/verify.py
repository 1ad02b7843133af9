"""Quadrature, cross-method comparison harness, and consistency checks.

Three independent routes compute the same kernel: the spectral sum, the
closed Bessel form, and the reflection decompositions.  This module owns the
machinery that plays them against each other: Gauss-Legendre quadrature on
(0, pi) for orthonormality and semigroup integrals, the Gaussian-Bessel
asymptotic link, ``compare_methods``, which produces the deviation reports
consumed by the CLI and the acceptance suite, and ``run_suites``, the named
invariant suites (``SUITES``) that ``boxkernel verify`` prints.

All evaluation is deterministic (fixed grid order, exact summation in the
scalar kernels), so every report is reproducible bit for bit from its inputs.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .closedform import _closed_chain, addition_formula_lhs, addition_formula_rhs, kernel_closed
from .errors import DomainError, PolicyUnresolvableError, _floats, require_angles, require_index, require_instance, require_lambda, require_nu, require_theta
from .pathsum import PRESCRIPTIONS, PathSumConfig, _DEFAULT_PATH, _pathsum_chain, _point_estimate, _symmetric, reflection_phase
from .spectral import (
    KernelEstimate,
    TruncationPolicy,
    kernel_spectral,
    _DEFAULT_POLICY,
    _eigenfunction_table,
    _spectral_chain,
    _spectral_profiles,
)
from .specfun import bessel_i_scaled

__all__ = [
    "QuadratureRule",
    "EvalConfig",
    "ComparisonReport",
    "METHODS",
    "SUITES",
    "gauss_legendre_on_0_pi",
    "check_orthonormality",
    "check_gaussian_bessel_link",
    "check_semigroup",
    "evaluate_method",
    "compare_methods",
    "run_suites",
]

METHODS = ("spectral", "closed_form", "path_sum_nu1", "path_sum_nu2", "path_sum_general")
_FIXED_COUPLING = {"path_sum_nu1": 1.0, "path_sum_nu2": 2.0}
_REFUSALS = (DomainError, PolicyUnresolvableError, OverflowError)

# The largest side of a square that a check builds: the gram of ``check_orthonormality``, (nmax + 1)^2
# floats, and the matrix of npoints^2 that ``leggauss`` builds for a rule.  Each takes 128 MB at this
# size, as the largest profile table that ``_MAX_TERMS`` allows does.
_MAX_SQUARE = 4096

SUITES = (
    "orthonormality",
    "addition",
    "bessel-link",
    "nu1-exact",
    "phases",
    "nu2-decomposition",
    "general-decomposition",
    "semigroup",
    "closed-form-order",
)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on (0, pi), checked when the rule is built.

    The nodes are a nonempty vector of angles strictly inside (0, pi), the
    weights finite numbers of the nodes' shape; both are kept as read-only
    float copies, so a rule can be shared and the checks take it on trust.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes, weights = _floats(self.nodes, "quadrature nodes"), _floats(self.weights, "quadrature weights")
        if nodes.ndim != 1 or not nodes.size:
            raise DomainError(f"quadrature nodes must be a nonempty vector, got shape {nodes.shape}")
        require_angles(nodes)
        if weights.shape != nodes.shape or not np.isfinite(weights).all():
            raise DomainError(f"quadrature weights must be finite, one per node, got shape {weights.shape} for {nodes.size} nodes")
        for name, values in (("nodes", nodes), ("weights", weights)):
            values = values.copy()
            values.flags.writeable = False
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class EvalConfig:
    """Everything needed to evaluate any method: spectral truncation policy
    plus reflection-sum truncation and phase prescription, each checked when
    the config is built."""

    policy: TruncationPolicy = _DEFAULT_POLICY
    path: PathSumConfig = _DEFAULT_PATH

    def __post_init__(self):
        require_instance(self.policy, TruncationPolicy, "policy")
        require_instance(self.path, PathSumConfig, "path")


# The config of every call that passes none; frozen, so one instance serves them all.
_DEFAULT_CONFIG = EvalConfig()


@dataclass(frozen=True)
class ComparisonReport:
    """Per-point deviations between two kernel methods over a grid.

    Deviations are taken between real parts (the spectral reference is real);
    ``im_over_re`` records |Im/Re| for whichever method produces genuinely
    complex values, and is absent otherwise.  ``per_lambda`` holds one
    (lambda, max abs_dev, max rel_dev) triple per chain entry, in chain order;
    ``per_lambda_ratios`` are the prev/cur ratios of its max rel_dev column
    (inf where cur is 0); ``convergence_ratios`` repeats them only for a
    halving chain.  A NaN deviation propagates into every maximum covering it.
    """

    method_a: str
    method_b: str
    grid: tuple  # of (theta, theta_p, lambda)
    value_a: tuple  # of complex
    value_b: tuple  # of complex
    abs_dev: tuple
    rel_dev: tuple
    max_abs_dev: float
    max_rel_dev: float
    per_lambda: tuple  # of (lambda, max abs_dev, max rel_dev)
    convergence_ratios: tuple | None = None
    im_over_re: tuple | None = None

    @property
    def per_lambda_ratios(self) -> tuple:
        return _ratios([r for _, _, r in self.per_lambda])


def _ratios(rel) -> tuple:
    """The prev/cur ratios of the max rel_dev column ``rel``, inf where cur is 0."""
    return tuple(prev / cur if cur != 0.0 else math.inf for prev, cur in zip(rel, rel[1:]))


@functools.lru_cache(maxsize=16)
def gauss_legendre_on_0_pi(npoints: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped affinely from (-1, 1) to (0, pi), built once per size and shared;
    at most ``_MAX_SQUARE`` points (``leggauss`` builds an npoints^2 matrix)."""
    npoints = require_index(npoints, 2, "quadrature needs npoints >= 2", _MAX_SQUARE)
    x, w = np.polynomial.legendre.leggauss(npoints)
    return QuadratureRule(nodes=(x + 1.0) * (math.pi / 2.0), weights=w * (math.pi / 2.0))


def check_orthonormality(nu: float, nmax: int, rule: QuadratureRule) -> float:
    """Max |<phi_n, phi_m> - delta_nm| over 0 <= n, m <= nmax.

    The integrands are products of degree <= 2 nmax polynomials in cos(theta)
    times sin^{2 nu}(theta); 2 nmax + 30 points resolve them for nu <= 10 only,
    and the rule must grow with nu beyond that (validated by the doubling
    certificate in the test suite, not trusted a priori).  The rule is
    checked when it is built (:class:`QuadratureRule`), not here.  The gram
    has (nmax + 1)^2 entries, so nmax + 1 is at most ``_MAX_SQUARE``.
    """
    nu = require_nu(nu)
    nmax = require_index(nmax, 0, "nmax must be nonnegative", _MAX_SQUARE - 1)
    require_instance(rule, QuadratureRule, "rule")
    F = np.ascontiguousarray(_eigenfunction_table(nmax, nu, rule.nodes).T)  # the gram's bits follow its layout
    gram = (F * rule.weights) @ F.T
    return float(np.max(np.abs(gram - np.eye(nmax + 1))))


def check_gaussian_bessel_link(n: int, nu: float, lam: float) -> float:
    """Relative deviation of exp(-lambda (n+nu)^2/2) from its Bessel asymptotic form.

    The link replaces the Gaussian mode weight by
    sqrt(2 pi / lambda) I_{nu+n}(1/lambda) exp(-1/lambda - lambda/8); in
    scaled-Bessel arithmetic the exp(-1/lambda) factors cancel analytically.
    The deviation behaves like (4 (n+nu)^2 - 1) lambda^2 / 16 for small
    lambda, so it grows with the order and shrinks quadratically in lambda.
    The ratio is formed in log space: +inf when it overflows, ``DomainError``
    where the scaled Bessel value underflows and the ratio is unknown.
    """
    nu = require_nu(nu)
    lam = require_lambda(lam)
    n = require_index(n, 0, "mode index must be nonnegative")
    bessel = bessel_i_scaled(nu + n, 1.0 / lam)
    if bessel == 0.0:
        raise DomainError(f"exp(-z) I_{nu + n:g}(z) underflows at z = 1/lambda = {1.0 / lam:g}")
    log_ratio = 0.5 * math.log(2.0 * math.pi / lam) + math.log(bessel) - lam / 8.0 + lam * (n + nu) ** 2 / 2.0
    try:
        return abs(math.exp(log_ratio) - 1.0)
    except OverflowError:
        return math.inf


def check_semigroup(
    nu: float,
    lambda1: float,
    lambda2: float,
    theta_a: float,
    theta_b: float,
    rule: QuadratureRule,
    policy: TruncationPolicy | None = None,
) -> float:
    """Relative deviation of the quadrature composition from the direct kernel.

    The evolution kernels compose exactly:
    int K(a, t; l1) K(t, b; l2) dt = K(a, b; l1 + l2), so any measured
    deviation is pure quadrature plus truncation error.  Raises
    ``DomainError`` where the direct kernel underflows to 0.  The rule is
    checked when it is built (:class:`QuadratureRule`), not here.
    """
    lambda1, lambda2 = require_lambda(lambda1, "lambda1"), require_lambda(lambda2, "lambda2")
    nu, theta_a, theta_b = require_nu(nu), require_theta(theta_a, "theta_a"), require_theta(theta_b, "theta_b")
    require_instance(rule, QuadratureRule, "rule")
    policy = require_instance(policy, TruncationPolicy, "policy", _DEFAULT_POLICY)
    ka, kb = _spectral_profiles(nu, ((theta_a, lambda1), (theta_b, lambda2)), rule.nodes, policy)
    composed = float(np.sum(rule.weights * ka * kb))
    [(_, _, [direct])] = _spectral_chain(nu, [(theta_a, theta_b)], [lambda1 + lambda2], policy)
    if direct == 0.0:
        raise DomainError(f"K(theta_a, theta_b; lambda1 + lambda2) underflows to 0 at nu = {nu:g}")
    return abs(composed - direct) / abs(direct)


def evaluate_method(
    method: str,
    nu: float,
    theta: float,
    theta_p: float,
    lam: float,
    config: EvalConfig | None = None,
) -> KernelEstimate:
    """Dispatch a kernel evaluation by method tag to the method's scalar kernel."""
    config = require_instance(config, EvalConfig, "config", _DEFAULT_CONFIG)
    if not isinstance(method, str):  # refused before it is compared: a numpy array compares elementwise
        raise _unknown_method(method)
    if method == "spectral":
        return kernel_spectral(nu, theta, theta_p, lam, config.policy)
    if method == "closed_form":
        return kernel_closed(nu, theta, theta_p, lam)
    return _point_estimate(_path_coupling(method, nu), method, theta, theta_p, lam, config.path)


def _unknown_method(method) -> DomainError:
    """The refusal of a method tag that is not one of ``METHODS``."""
    return DomainError(f"unknown method {method!r}; expected one of {METHODS}")


def _path_coupling(method: str, nu: float) -> float:
    """The coupling of the path sum ``method``, a ``str``: ``nu``, or a fixed coupling, which refuses any other ``nu``."""
    if method not in ("path_sum_nu1", "path_sum_nu2", "path_sum_general"):  # compared, not looked up: a list is refused too
        raise _unknown_method(method)
    if method in _FIXED_COUPLING and nu != _FIXED_COUPLING[method]:
        raise DomainError(f"{method} is defined at nu = {_FIXED_COUPLING[method]:g} only")
    return _FIXED_COUPLING.get(method, nu)


def _mirrored(method: str, nu: float, config: EvalConfig) -> bool:
    """Whether the values of ``method`` are bitwise symmetric in (theta, theta'), as the kernel is; a tag that
    is not one of ``METHODS`` is refused here, where the comparison meets it.  The symmetric routes are the
    spectral sum (it forms ``phi_n(a) phi_n(b)`` first), the closed form (it takes ``|theta - theta'|``) and a
    path sum where ``pathsum._symmetric`` holds at its coupling: under prescription B, and under A wherever
    2 nu is an integer; elsewhere A's even phases exp(2 k nu pi i) leave the imaginary part asymmetric."""
    if not isinstance(method, str):  # refused before it is compared: a numpy array compares elementwise
        raise _unknown_method(method)
    return method in ("spectral", "closed_form") or _symmetric(_path_coupling(method, nu), config.path.prescription)


def _dedupe(pairs, mirrored: bool) -> tuple[list, list[int]]:
    """The distinct pairs of ``pairs``, each in the orientation where it first appears, and each pair's slot
    among them; with ``mirrored`` a pair and its mirror are one.  Each refusal of a route is as symmetric as
    its values, so the first refusing distinct pair and its message are the ones met point by point."""
    slots = {}  # each key's (slot, first pair), in first-appearance order
    order = [
        slots.setdefault(((a, b) if a <= b else (b, a)) if mirrored else (a, b), (len(slots), (a, b)))[0]
        for a, b in pairs
    ]
    return [pair for _, pair in slots.values()], order


def _evaluate_chain(method: str, nu: float, pairs, lambdas, config: EvalConfig) -> np.ndarray:
    """The values of ``method`` at every (theta, theta_p) of ``pairs`` and every lambda of ``lambdas``,
    lambda-major, from checked arguments, as one complex array (:func:`compare_methods` gives it each
    distinct pair once)."""
    return np.array(_chain_values(method, nu, pairs, lambdas, config), dtype=complex)


def _chain_values(method: str, nu: float, pairs, lambdas, config: EvalConfig) -> list:
    """:func:`_evaluate_chain`'s values as the method's chain core gives them: floats, or complex."""
    if method == "spectral":
        return [value for _, _, values in _spectral_chain(nu, pairs, lambdas, config.policy) for value in values]
    if method == "closed_form":
        return _closed_chain(nu, pairs, lambdas)
    return _pathsum_chain(_path_coupling(method, nu), pairs, lambdas, config.path)


def _collection(values, name: str, of: str) -> tuple:
    """``values`` taken once, as a tuple (a generator is read here and not again); ``DomainError`` for a
    string, which would be read character by character, and for a value that is not iterable."""
    if isinstance(values, str):
        raise DomainError(f"{name} must be a collection of {of}, got the string {values!r}")
    try:
        return tuple(values)
    except TypeError:
        raise DomainError(f"{name} must be an iterable of {of}, got {values!r}") from None


def _chain(lambda_chain) -> list[float]:
    """The checked lambdas of a comparison chain; ``DomainError`` for a chain that is not a collection of numbers."""
    return [require_lambda(lam) for lam in _collection(lambda_chain, "lambda chain", "numbers")]


def _grid(theta_grid) -> list[tuple[float, float]]:
    """The checked (theta, theta_p) pairs of a comparison grid; ``DomainError`` for a grid that is not a
    collection of pairs of numbers.  A string of two characters is not a pair."""
    pairs = []
    for pair in _collection(theta_grid, "theta grid", "(theta, theta_p) pairs"):
        try:
            theta, theta_p = () if isinstance(pair, str) else pair
            pairs.append((require_theta(theta), require_theta(theta_p, "theta_p")))
        except DomainError:  # an angle that is not a number in (0, pi); a DomainError is a ValueError
            raise
        except (TypeError, ValueError):  # a pair that does not unpack into two angles
            raise DomainError(f"theta grid entries must be (theta, theta_p) pairs of numbers, got {pair!r}") from None
    return pairs


def _is_halving_chain(lambdas) -> bool:
    return len(lambdas) >= 2 and all(
        abs(lambdas[i + 1] - 0.5 * lambdas[i]) <= 1e-9 * lambdas[i] for i in range(len(lambdas) - 1)
    )


def _decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def compare_methods(
    nu: float,
    theta_grid,
    lambda_chain,
    method_a: str,
    method_b: str,
    config: EvalConfig | None = None,
) -> ComparisonReport:
    """Evaluate two methods over (theta, theta') pairs along a lambda chain.

    ``theta_grid`` is a sequence of (theta, theta_p) pairs; the report rows
    run through the chain in the given order, grid-major within each lambda.
    Real parts are compared; |Im/Re| is recorded per point when one of the
    methods is genuinely complex-valued.

    ``nu``, every lambda and every angle are checked before any evaluation,
    and a grid or chain that is not a collection of pairs or of numbers is
    refused with ``DomainError``.  Each method then evaluates each distinct
    pair once through its chain core (:func:`_evaluate_chain`), over the whole
    chain, ``method_a`` before ``method_b``: one plan of distinct pairs per
    symmetry class (:func:`_mirrored`, :func:`_dedupe`), built when the first
    method of the class runs.  The values are bitwise those of the scalar
    kernels, which are the same cores at one point, and one index expands
    them to the report's rows.

    Of the refusals met in evaluation, the one raised is the one met first
    point by point: lambda by lambda in chain order, ``method_a`` over the
    whole grid and then ``method_b``, each pair in order.  At one lambda each
    core refuses as its scalar kernel does at the first refusing pair, so on
    any refusal the cores are run again one lambda at a time, in that order.
    """
    nu = require_nu(nu)
    lambda_chain = _chain(lambda_chain)
    pairs = _grid(theta_grid)
    if not pairs or not lambda_chain:
        raise DomainError("comparison needs a nonempty grid and lambda chain")
    if not _decreasing(lambda_chain):
        raise DomainError("lambda chain must be strictly decreasing")
    config = require_instance(config, EvalConfig, "config", _DEFAULT_CONFIG)

    plans = {}  # per symmetry class, (distinct pairs, each pair's slot among them)

    def evaluate(method: str, lambdas) -> tuple:
        mirrored = _mirrored(method, nu, config)
        if mirrored not in plans:
            plans[mirrored] = _dedupe(pairs, mirrored)
        distinct, order = plans[mirrored]
        return _evaluate_chain(method, nu, distinct, lambdas, config), order

    try:
        evaluated = [evaluate(method, lambda_chain) for method in (method_a, method_b)]
    except _REFUSALS:
        for lam in lambda_chain:
            for method in (method_a, method_b):
                evaluate(method, [lam])
        raise
    # each method's values, lambda-major over its distinct pairs, expanded to the rows by one index
    values_a, values_b = (np.reshape(values, (len(lambda_chain), -1))[:, order].ravel() for values, order in evaluated)
    grid = tuple([(theta, theta_p, lam) for lam in lambda_chain for theta, theta_p in pairs])
    # Each step is elementwise, so each deviation is bitwise the scalar expression on its row: |Re a - Re b|,
    # over the builtin max(|Re a|, |Re b|) where that is > 0 (max keeps |Re a| when |Re b| is NaN), else 0.0.
    # Numpy's warnings are off: inf - inf is NaN and a difference past the float range inf, as in Python.
    with np.errstate(all="ignore"):
        abs_a, abs_b = np.abs(values_a.real), np.abs(values_b.real)
        denom = np.where(abs_b > abs_a, abs_b, abs_a)
        abs_dev = np.abs(values_a.real - values_b.real)
        rel_dev = np.where(denom > 0.0, abs_dev / denom, 0.0)
        im_over_re = None
        if "path_sum_general" in (method_a, method_b):
            values = values_a if method_a == "path_sum_general" else values_b
            im_over_re = tuple(np.where(values.real != 0.0, np.abs(values.imag) / np.abs(values.real), math.inf).tolist())
    # rows are lambda-major blocks; numpy's max, unlike the builtin, keeps a NaN
    block_abs = abs_dev.reshape(len(lambda_chain), -1).max(axis=1)
    block_rel = rel_dev.reshape(len(lambda_chain), -1).max(axis=1)
    rel = block_rel.tolist()
    return ComparisonReport(
        method_a=method_a,
        method_b=method_b,
        grid=grid,
        value_a=tuple(values_a.tolist()),
        value_b=tuple(values_b.tolist()),
        abs_dev=tuple(abs_dev.tolist()),
        rel_dev=tuple(rel_dev.tolist()),
        max_abs_dev=float(block_abs.max()),
        max_rel_dev=float(block_rel.max()),
        per_lambda=tuple(zip(lambda_chain, block_abs.tolist(), rel)),
        convergence_ratios=_ratios(rel) if _is_halving_chain(lambda_chain) else None,
        im_over_re=im_over_re,
    )


def _chain_devs(method, nu, points, chain, config):
    """Per (theta, theta') of ``points``, the values of ``method`` along a lambda chain and
    |Re v - s| / |s| against the spectral s, from one comparison over all the points."""
    report = compare_methods(nu, points, chain, "spectral", method, config)
    devs = [d / abs(s.real) for d, s in zip(report.abs_dev, report.value_a)]
    # the rows are lambda-major, so one point's chain is every len(points)-th row
    return [(report.value_b[i::len(points)], devs[i::len(points)]) for i in range(len(points))]


def run_suites(suites, nu: float, config: EvalConfig | None = None):
    """Run the named invariant suites, in ``SUITES`` order; yield
    (suite, check, measured, tolerance, passed).

    ``nu`` parameterises the orthonormality, bessel-link and semigroup suites;
    the others fix their own couplings.  A tolerance of ``math.inf`` marks a
    structural check, decided by ``passed`` alone.
    """
    suites = _collection(suites, "suites", "suite names")
    if not all(isinstance(name, str) and name in SUITES for name in suites):  # compared, not hashed: a list name is unknown too
        raise DomainError(f"unknown suite in {suites}; expected names from {', '.join(SUITES)}")
    nu = require_nu(nu)
    config = require_instance(config, EvalConfig, "config", _DEFAULT_CONFIG)
    canonical_points = ((1.0, 1.0), (0.7, 0.9), (2.0, 1.4))
    chain = (0.4, 0.2, 0.1, 0.05)
    if "orthonormality" in suites:
        # sin^{2 nu} sharpens the integrands: two more nodes per unit of nu over 10 keep the gram
        # deviation <= 3.7e-12 up to the measured nu = 1000; the O(n^3) rule is not extrapolated
        if nu > 1000.0:
            raise DomainError(f"the orthonormality suite is measured for nu <= 1000 only, got nu = {nu:g}")
        npoints = 2 * 40 + 30 + max(0, 2 * math.ceil(nu) - 20)
        dev = check_orthonormality(nu, 40, gauss_legendre_on_0_pi(npoints))
        yield ("orthonormality", f"gram nmax=40 nu={nu:g}", dev, 1e-10, dev <= 1e-10)
    if "addition" in suites:
        rng = np.random.default_rng(20240)
        worst = 0.0
        for _ in range(40):
            snu = rng.uniform(0.5, 4.0)
            lam = 1.0 / rng.uniform(0.5, 100.0)
            ta = rng.uniform(0.2, math.pi - 0.2)
            delta = rng.uniform(-1.0, 1.0) * min(1.0, 3.0 * math.sqrt(lam))
            tb = min(max(ta + delta, 0.1), math.pi - 0.1)
            lhs = addition_formula_lhs(snu, ta, tb, lam)
            rhs = addition_formula_rhs(snu, ta, tb, lam)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        yield ("addition", "lhs vs rhs, 40 samples", worst, 1e-8, worst <= 1e-8)
    if "bessel-link" in suites:
        dev0 = check_gaussian_bessel_link(0, 0.5, 0.01)
        yield ("bessel-link", "n=0 nu=1/2 lambda=0.01", dev0, 1e-3, dev0 <= 1e-3)
        devs = [check_gaussian_bessel_link(0, nu, lam) for lam in (0.1, 0.05, 0.025)]
        yield ("bessel-link", f"decreasing in lambda at nu={nu:g}", devs[-1], math.inf, _decreasing(devs))
    if "nu1-exact" in suites:
        grid = [(math.pi * i / 10.0, math.pi * j / 10.0) for i in range(1, 10) for j in range(1, 10)]
        worst = compare_methods(1.0, grid, (2.0, 0.5, 0.1), "spectral", "path_sum_nu1", config).max_abs_dev
        yield ("nu1-exact", "max |spectral - images|, 9x9 grid", worst, 1e-10, worst <= 1e-10)
    if "phases" in suites:
        exact = all(
            reflection_phase(k, "even", float(inu), presc) == 1.0
            and reflection_phase(k, "odd", float(inu), presc) == (-1.0 if inu % 2 else 1.0)
            for inu in (1, 2, 3, 4, 5)
            for presc in PRESCRIPTIONS
            for k in range(-3, 4)
        )
        yield ("phases", "integer-nu collapse, both prescriptions", 0.0 if exact else 1.0, 0.0, exact)
    if "nu2-decomposition" in suites:
        runs = _chain_devs("path_sum_nu2", 2.0, canonical_points, chain, config)
        general = [evaluate_method("path_sum_general", 2.0, ta, tb, chain[2], config).value for ta, tb in canonical_points]
        ok = all(_decreasing(devs) and g == values[2] for (values, devs), g in zip(runs, general))
        yield ("nu2-decomposition", "monotone + exact nu2==general", max(devs[-1] for _, devs in runs), math.inf, ok)
    if "general-decomposition" in suites:
        runs = [run for gnu in (0.75, 1.3, 2.5) for run in _chain_devs("path_sum_general", gnu, canonical_points, chain, config)]
        ok = all(_decreasing(devs) and _decreasing([abs(v.imag) / abs(v.real) for v in values]) for values, devs in runs)
        yield ("general-decomposition", "Re dev and |Im/Re| decreasing", 0.0 if ok else 1.0, math.inf, ok)
    if "semigroup" in suites:
        rule = gauss_legendre_on_0_pi(160)
        worst = max(check_semigroup(nu, l1, l2, 1.1, 2.0, rule, config.policy) for l1, l2 in ((0.5, 0.5), (0.3, 0.7)))
        yield ("semigroup", f"composition nu={nu:g}", worst, 1e-8, worst <= 1e-8)
    if "closed-form-order" in suites:
        ratios = []
        for cnu, th, cchain in ((1.0, 0.7, chain), (2.0, 1.2, chain), (3.0, 1.2, (0.2, 0.1, 0.05, 0.025))):
            [(_, devs)] = _chain_devs("closed_form", cnu, [(th, th)], cchain, config)
            ratios += [a / b for a, b in zip(devs, devs[1:])]
        yield ("closed-form-order", "halving ratios in [2, 8]", min(ratios), math.inf, all(2.0 <= r <= 8.0 for r in ratios))
