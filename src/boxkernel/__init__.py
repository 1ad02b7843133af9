"""Euclidean kernels for a particle in a box with an inverse-sine-squared potential.

Three independent computations of the same kernel, built to be played
against each other:

* :mod:`boxkernel.spectral`  -- eigenfunction expansion with a proven tail bound
* :mod:`boxkernel.closedform` -- closed Bessel short-time form and the
  Gegenbauer-Bessel addition identity behind it
* :mod:`boxkernel.pathsum`   -- reflection-path decompositions, including the
  coupling-dependent boundary phase

plus :mod:`boxkernel.specfun` (the special functions underneath) and
:mod:`boxkernel.verify` (quadrature, comparison harness, invariant suites).
"""

from .closedform import (
    addition_formula_lhs,
    addition_formula_rhs,
    addition_formula_terms,
    kernel_closed,
)
from .errors import DomainError, PolicyUnresolvableError
from .pathsum import (
    PathSumConfig,
    ReflectionTerm,
    decompose,
    kernel_pathsum_general,
    kernel_pathsum_nu1,
    kernel_pathsum_nu2,
    reflection_phase,
)
from .specfun import (
    bessel_asymptotic_leading,
    bessel_i_scaled,
    gegenbauer_sequence,
    log_gamma,
)
from .spectral import (
    KernelEstimate,
    TruncationPolicy,
    eigenfunction,
    eigenfunctions,
    eigenvalue_exponent,
    kernel_spectral,
    truncation_tail_bound,
)
from .verify import (
    ComparisonReport,
    EvalConfig,
    METHODS,
    QuadratureRule,
    SUITES,
    check_gaussian_bessel_link,
    check_orthonormality,
    check_semigroup,
    compare_methods,
    evaluate_method,
    gauss_legendre_on_0_pi,
    run_suites,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PolicyUnresolvableError",
    "log_gamma",
    "gegenbauer_sequence",
    "bessel_i_scaled",
    "bessel_asymptotic_leading",
    "TruncationPolicy",
    "KernelEstimate",
    "eigenvalue_exponent",
    "eigenfunction",
    "eigenfunctions",
    "truncation_tail_bound",
    "kernel_spectral",
    "kernel_closed",
    "addition_formula_lhs",
    "addition_formula_rhs",
    "addition_formula_terms",
    "PathSumConfig",
    "ReflectionTerm",
    "reflection_phase",
    "decompose",
    "kernel_pathsum_nu1",
    "kernel_pathsum_nu2",
    "kernel_pathsum_general",
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
    "__version__",
]
