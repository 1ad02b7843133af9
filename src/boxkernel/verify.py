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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .closedform import addition_formula_lhs, addition_formula_rhs, kernel_closed
from .errors import DomainError, require_lambda, require_nu
from .pathsum import PRESCRIPTIONS, PathSumConfig, kernel_pathsum_general, kernel_pathsum_nu1, kernel_pathsum_nu2, reflection_phase
from .spectral import (
    KernelEstimate,
    TruncationPolicy,
    kernel_spectral,
    kernel_spectral_profile,
    _eigenfunction_matrix,
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

    npoints: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class EvalConfig:
    """Everything needed to evaluate any method: spectral truncation policy
    plus reflection-sum truncation and phase prescription."""

    policy: TruncationPolicy = field(default_factory=TruncationPolicy)
    path: PathSumConfig = field(default_factory=PathSumConfig)


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


def gauss_legendre_on_0_pi(npoints: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped affinely from (-1, 1) to (0, pi)."""
    if npoints < 2:
        raise DomainError("quadrature needs npoints >= 2")
    x, w = np.polynomial.legendre.leggauss(npoints)
    return QuadratureRule(npoints=npoints, nodes=(x + 1.0) * (math.pi / 2.0), weights=w * (math.pi / 2.0))


def check_orthonormality(nu: float, nmax: int, rule: QuadratureRule) -> float:
    """Max |<phi_n, phi_m> - delta_nm| over 0 <= n, m <= nmax.

    The integrands are products of degree <= 2 nmax polynomials in cos(theta)
    times sin^{2 nu}(theta); 2 nmax + 30 points resolve them for nu <= 10 only,
    and the rule must grow with nu beyond that (validated by the doubling
    certificate in the test suite, not trusted a priori).
    """
    nu = require_nu(nu)
    F = _eigenfunction_matrix(nmax, nu, rule.nodes)
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
    if n < 0:
        raise DomainError(f"mode index must be nonnegative, got {n}")
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
    lambda1 = require_lambda(lambda1, "lambda1")
    lambda2 = require_lambda(lambda2, "lambda2")
    ka = kernel_spectral_profile(nu, theta_a, rule.nodes, lambda1, policy)
    kb = kernel_spectral_profile(nu, theta_b, rule.nodes, lambda2, policy)
    composed = float(np.sum(rule.weights * ka * kb))
    direct = kernel_spectral(nu, theta_a, theta_b, lambda1 + lambda2, policy).real
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
    """Dispatch a kernel evaluation by method tag."""
    config = config or EvalConfig()
    if method == "spectral":
        return kernel_spectral(nu, theta, theta_p, lam, config.policy)
    if method == "closed_form":
        return kernel_closed(nu, theta, theta_p, lam)
    if method == "path_sum_nu1":
        if nu != 1.0:
            raise DomainError("path_sum_nu1 is defined at nu = 1 only")
        return kernel_pathsum_nu1(theta, theta_p, lam, config.path)
    if method == "path_sum_nu2":
        if nu != 2.0:
            raise DomainError("path_sum_nu2 is defined at nu = 2 only")
        return kernel_pathsum_nu2(theta, theta_p, lam, config.path)
    if method == "path_sum_general":
        return kernel_pathsum_general(nu, theta, theta_p, lam, config.path)
    raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")


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
    """
    nu = require_nu(nu)
    lambda_chain = [require_lambda(l) for l in lambda_chain]
    if not len(theta_grid) or not lambda_chain:
        raise DomainError("comparison needs a nonempty grid and lambda chain")
    if not _decreasing(lambda_chain):
        raise DomainError("lambda chain must be strictly decreasing")
    config = config or EvalConfig()

    grid = tuple((theta, theta_p, lam) for lam in lambda_chain for theta, theta_p in theta_grid)
    value_a, value_b = zip(*[
        (evaluate_method(method_a, nu, *row, config).value, evaluate_method(method_b, nu, *row, config).value)
        for row in grid
    ])
    abs_dev = tuple(abs(a.real - b.real) for a, b in zip(value_a, value_b))
    denoms = [max(abs(a.real), abs(b.real)) for a, b in zip(value_a, value_b)]
    rel_dev = tuple(d / m if m > 0.0 else 0.0 for d, m in zip(abs_dev, denoms))
    # rows are lambda-major blocks; numpy's max, unlike the builtin, keeps a NaN
    block_abs = np.reshape(abs_dev, (len(lambda_chain), -1)).max(axis=1)
    block_rel = np.reshape(rel_dev, (len(lambda_chain), -1)).max(axis=1)
    im_over_re = None
    if "path_sum_general" in (method_a, method_b):
        values = value_a if method_a == "path_sum_general" else value_b
        im_over_re = tuple(abs(v.imag) / abs(v.real) if v.real != 0.0 else math.inf for v in values)
    report = ComparisonReport(
        method_a=method_a,
        method_b=method_b,
        grid=grid,
        value_a=value_a,
        value_b=value_b,
        abs_dev=abs_dev,
        rel_dev=rel_dev,
        max_abs_dev=float(block_abs.max()),
        max_rel_dev=float(block_rel.max()),
        per_lambda=tuple(zip(lambda_chain, block_abs.tolist(), block_rel.tolist())),
        im_over_re=im_over_re,
    )
    return replace(report, convergence_ratios=report.per_lambda_ratios) if _is_halving_chain(lambda_chain) else report


def _chain_devs(method, nu, theta, theta_p, chain, config):
    """Values of ``method`` along a lambda chain, and |Re v - s| / |s| against the spectral s."""
    report = compare_methods(nu, [(theta, theta_p)], chain, "spectral", method, config)
    return report.value_b, [d / abs(s.real) for d, s in zip(report.abs_dev, report.value_a)]


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
    config = config or EvalConfig()
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
        runs = [_chain_devs("path_sum_nu2", 2.0, ta, tb, chain, config) for ta, tb in canonical_points]
        general = [evaluate_method("path_sum_general", 2.0, ta, tb, chain[2], config).value for ta, tb in canonical_points]
        ok = all(_decreasing(devs) and g == values[2] for (values, devs), g in zip(runs, general))
        yield ("nu2-decomposition", "monotone + exact nu2==general", max(devs[-1] for _, devs in runs), math.inf, ok)
    if "general-decomposition" in suites:
        runs = [_chain_devs("path_sum_general", gnu, ta, tb, chain, config)
                for gnu in (0.75, 1.3, 2.5) for ta, tb in canonical_points]
        ok = all(_decreasing(devs) and _decreasing([abs(v.imag) / abs(v.real) for v in values]) for values, devs in runs)
        yield ("general-decomposition", "Re dev and |Im/Re| decreasing", 0.0 if ok else 1.0, math.inf, ok)
    if "semigroup" in suites:
        rule = gauss_legendre_on_0_pi(160)
        worst = max(check_semigroup(nu, l1, l2, 1.1, 2.0, rule, config.policy) for l1, l2 in ((0.5, 0.5), (0.3, 0.7)))
        yield ("semigroup", f"composition nu={nu:g}", worst, 1e-8, worst <= 1e-8)
    if "closed-form-order" in suites:
        ratios = []
        for cnu, th, cchain in ((1.0, 0.7, chain), (2.0, 1.2, chain), (3.0, 1.2, (0.2, 0.1, 0.05, 0.025))):
            _, devs = _chain_devs("closed_form", cnu, th, th, cchain, config)
            ratios += [a / b for a, b in zip(devs, devs[1:])]
        yield ("closed-form-order", "halving ratios in [2, 8]", min(ratios), math.inf, all(2.0 <= r <= 8.0 for r in ratios))
