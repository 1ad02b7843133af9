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
from dataclasses import dataclass, replace

import numpy as np

from .closedform import _closed_chain, addition_formula_lhs, addition_formula_rhs, kernel_closed
from .errors import DomainError, PolicyUnresolvableError, require_angles, require_index, require_lambda, require_nu, require_theta
from .pathsum import PRESCRIPTIONS, PathSumConfig, _DEFAULT_PATH, _pathsum_chain, _point_estimate, reflection_phase
from .spectral import (
    KernelEstimate,
    TruncationPolicy,
    kernel_spectral,
    _DEFAULT_POLICY,
    _eigenfunction_matrix,
    _log_norms,
    _spectral_chain,
    _spectral_profile,
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
    """Nodes and weights on (0, pi)."""

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class EvalConfig:
    """Everything needed to evaluate any method: spectral truncation policy
    plus reflection-sum truncation and phase prescription."""

    policy: TruncationPolicy = _DEFAULT_POLICY
    path: PathSumConfig = _DEFAULT_PATH


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
        rel = [r for _, _, r in self.per_lambda]
        return tuple(prev / cur if cur != 0.0 else math.inf for prev, cur in zip(rel, rel[1:]))


@functools.lru_cache(maxsize=16)
def gauss_legendre_on_0_pi(npoints: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped affinely from (-1, 1) to (0, pi).

    Built once per size and shared, so its node and weight arrays are read-only.
    """
    npoints = require_index(npoints, 2, "quadrature needs npoints >= 2")
    x, w = np.polynomial.legendre.leggauss(npoints)
    rule = QuadratureRule(nodes=(x + 1.0) * (math.pi / 2.0), weights=w * (math.pi / 2.0))
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def check_orthonormality(nu: float, nmax: int, rule: QuadratureRule) -> float:
    """Max |<phi_n, phi_m> - delta_nm| over 0 <= n, m <= nmax.

    The integrands are products of degree <= 2 nmax polynomials in cos(theta)
    times sin^{2 nu}(theta); 2 nmax + 30 points resolve them for nu <= 10 only,
    and the rule must grow with nu beyond that (validated by the doubling
    certificate in the test suite, not trusted a priori).
    """
    nu = require_nu(nu)
    nmax = require_index(nmax, 0, "nmax must be nonnegative")
    F = _eigenfunction_matrix(_log_norms(nmax, nu), nu, rule.nodes)
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
    ``DomainError`` where the direct kernel underflows to 0.
    """
    lambda1, lambda2 = require_lambda(lambda1, "lambda1"), require_lambda(lambda2, "lambda2")
    nu, theta_a, nodes = require_nu(nu), require_theta(theta_a, "theta_a"), require_angles(rule.nodes)
    theta_b = require_theta(theta_b, "theta_b")
    ka = _spectral_profile(nu, theta_a, nodes, lambda1, policy)
    kb = _spectral_profile(nu, theta_b, nodes, lambda2, policy)
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
    config = config or _DEFAULT_CONFIG
    if method == "spectral":
        return kernel_spectral(nu, theta, theta_p, lam, config.policy)
    if method == "closed_form":
        return kernel_closed(nu, theta, theta_p, lam)
    return _point_estimate(_path_coupling(method, nu), method, theta, theta_p, lam, config.path)


def _path_coupling(method: str, nu: float) -> float:
    """The coupling of the path sum ``method``: ``nu``, or a fixed coupling, which refuses any other ``nu``."""
    if method in _FIXED_COUPLING and nu != _FIXED_COUPLING[method]:
        raise DomainError(f"{method} is defined at nu = {_FIXED_COUPLING[method]:g} only")
    if method not in _FIXED_COUPLING and method != "path_sum_general":
        raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")
    return _FIXED_COUPLING.get(method, nu)


def _evaluate_chain(method: str, nu: float, pairs, lambdas, config: EvalConfig) -> list[complex]:
    """The values of ``method`` at every (theta, theta_p) of ``pairs`` and every lambda of ``lambdas``,
    lambda-major, through the method's chain core, from checked arguments (:func:`compare_methods`)."""
    if method == "spectral":
        return [complex(value, 0.0) for _, _, values in _spectral_chain(nu, pairs, lambdas, config.policy) for value in values]
    if method == "closed_form":
        return [complex(value, 0.0) for value in _closed_chain(nu, pairs, lambdas)]
    return _pathsum_chain(_path_coupling(method, nu), pairs, lambdas, config.path)


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

    ``nu``, every lambda and every angle are checked before any evaluation.
    Each method's chain core (:func:`_evaluate_chain`) then takes the checked
    grid and chain at once, ``method_a``'s before ``method_b``'s, and returns
    plain values, bitwise those of the scalar kernels, which are the same
    cores at one point.

    Of the refusals met in evaluation, the one raised is the one met first
    point by point: lambda by lambda in chain order, ``method_a`` over the
    whole grid and then ``method_b``, each pair in order.  At one lambda each
    core refuses as its scalar kernel does at the first refusing pair, so on
    any refusal the cores are run again one lambda at a time, in that order.
    """
    nu = require_nu(nu)
    lambda_chain = [require_lambda(l) for l in lambda_chain]
    pairs = [(require_theta(theta), require_theta(theta_p, "theta_p")) for theta, theta_p in theta_grid]
    if not pairs or not lambda_chain:
        raise DomainError("comparison needs a nonempty grid and lambda chain")
    if not _decreasing(lambda_chain):
        raise DomainError("lambda chain must be strictly decreasing")
    config = config or _DEFAULT_CONFIG

    grid = tuple((theta, theta_p, lam) for lam in lambda_chain for theta, theta_p in pairs)
    try:
        value_a, value_b = (tuple(_evaluate_chain(m, nu, pairs, lambda_chain, config)) for m in (method_a, method_b))
    except _REFUSALS:
        for lam in lambda_chain:
            for method in (method_a, method_b):
                _evaluate_chain(method, nu, pairs, [lam], config)
        raise
    # Each step is elementwise, so each deviation is bitwise the scalar expression on its row: |Re a - Re b|,
    # over the builtin max(|Re a|, |Re b|) where that is > 0 (max keeps |Re a| when |Re b| is NaN), else 0.0.
    # Numpy's warnings are off: inf - inf is NaN and a difference past the float range inf, as in Python.
    values_a, values_b = np.array(value_a), np.array(value_b)
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
    report = ComparisonReport(
        method_a=method_a,
        method_b=method_b,
        grid=grid,
        value_a=value_a,
        value_b=value_b,
        abs_dev=tuple(abs_dev.tolist()),
        rel_dev=tuple(rel_dev.tolist()),
        max_abs_dev=float(block_abs.max()),
        max_rel_dev=float(block_rel.max()),
        per_lambda=tuple(zip(lambda_chain, block_abs.tolist(), block_rel.tolist())),
        im_over_re=im_over_re,
    )
    return replace(report, convergence_ratios=report.per_lambda_ratios) if _is_halving_chain(lambda_chain) else report


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
    if not set(suites) <= set(SUITES):
        raise DomainError(f"unknown suite in {tuple(suites)}; expected names from {', '.join(SUITES)}")
    nu = require_nu(nu)
    config = config or _DEFAULT_CONFIG
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
