"""Quadrature, cross-method comparison harness, and consistency checks.

Three independent routes compute the same kernel: the spectral sum, the
closed Bessel form, and the reflection decompositions.  This module owns the
machinery that plays them against each other: Gauss-Legendre quadrature on
(0, pi) for orthonormality and semigroup integrals, the Gaussian-Bessel
asymptotic link, and ``compare_methods``, which produces the deviation
reports consumed by the CLI and the acceptance suite.

All evaluation is deterministic (fixed grid order, exact summation in the
scalar kernels), so every report is reproducible bit for bit from its inputs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .closedform import kernel_closed
from .errors import DomainError, require_lambda, require_nu
from .pathsum import PathSumConfig, kernel_pathsum_general, kernel_pathsum_nu1, kernel_pathsum_nu2
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
    "gauss_legendre_on_0_pi",
    "check_orthonormality",
    "check_gaussian_bessel_link",
    "check_semigroup",
    "evaluate_method",
    "compare_methods",
]

METHODS = ("spectral", "closed_form", "path_sum_nu1", "path_sum_nu2", "path_sum_general")


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
    complex values, and is absent otherwise.  ``convergence_ratios`` holds the
    per-halving ratios of the grid-max relative deviation and is present only
    when the lambda chain is a halving chain.
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
    convergence_ratios: tuple | None = None
    im_over_re: tuple | None = None


def gauss_legendre_on_0_pi(npoints: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped affinely from (-1, 1) to (0, pi)."""
    if npoints < 2:
        raise DomainError("quadrature needs npoints >= 2")
    x, w = np.polynomial.legendre.leggauss(npoints)
    return QuadratureRule(npoints=npoints, nodes=(x + 1.0) * (math.pi / 2.0), weights=w * (math.pi / 2.0))


def check_orthonormality(nu: float, nmax: int, rule: QuadratureRule) -> float:
    """Max |<phi_n, phi_m> - delta_nm| over 0 <= n, m <= nmax.

    The integrands are products of degree <= 2 nmax polynomials in cos(theta)
    times sin^{2 nu}(theta); npoints >= 2 nmax + 30 resolves them (validated
    by the doubling certificate in the test suite, not trusted a priori).
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
    deviation is pure quadrature plus truncation error.
    """
    lambda1 = require_lambda(lambda1, "lambda1")
    lambda2 = require_lambda(lambda2, "lambda2")
    ka = kernel_spectral_profile(nu, theta_a, rule.nodes, lambda1, policy)
    kb = kernel_spectral_profile(nu, theta_b, rule.nodes, lambda2, policy)
    composed = float(np.sum(rule.weights * ka * kb))
    direct = kernel_spectral(nu, theta_a, theta_b, lambda1 + lambda2, policy).real
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
    if not (len(lambda_chain) == 1 or all(
        lambda_chain[i + 1] < lambda_chain[i] for i in range(len(lambda_chain) - 1)
    )):
        raise DomainError("lambda chain must be strictly decreasing")
    config = config or EvalConfig()
    complex_methods = {m for m in (method_a, method_b) if m == "path_sum_general"}

    grid_rows, va, vb, abs_dev, rel_dev, im_over_re = [], [], [], [], [], []
    per_lambda_max = []
    for lam in lambda_chain:
        lam_max = 0.0
        for theta, theta_p in theta_grid:
            ea = evaluate_method(method_a, nu, theta, theta_p, lam, config)
            eb = evaluate_method(method_b, nu, theta, theta_p, lam, config)
            ra, rb = ea.value.real, eb.value.real
            ad = abs(ra - rb)
            denom = max(abs(ra), abs(rb))
            rd = ad / denom if denom > 0.0 else 0.0
            grid_rows.append((theta, theta_p, lam))
            va.append(ea.value)
            vb.append(eb.value)
            abs_dev.append(ad)
            rel_dev.append(rd)
            if complex_methods:
                v = ea.value if method_a in complex_methods else eb.value
                im_over_re.append(abs(v.imag) / abs(v.real) if v.real != 0.0 else math.inf)
            lam_max = max(lam_max, rd)
        per_lambda_max.append(lam_max)

    ratios = None
    if _is_halving_chain(lambda_chain):
        ratios = tuple(
            per_lambda_max[i] / per_lambda_max[i + 1] if per_lambda_max[i + 1] > 0.0 else math.inf
            for i in range(len(per_lambda_max) - 1)
        )
    return ComparisonReport(
        method_a=method_a,
        method_b=method_b,
        grid=tuple(grid_rows),
        value_a=tuple(va),
        value_b=tuple(vb),
        abs_dev=tuple(abs_dev),
        rel_dev=tuple(rel_dev),
        max_abs_dev=max(abs_dev),
        max_rel_dev=max(rel_dev),
        convergence_ratios=ratios,
        im_over_re=tuple(im_over_re) if im_over_re else None,
    )
