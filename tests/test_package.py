"""Package root: every public name comes from exactly one module's ``__all__``."""

import boxkernel
from boxkernel import closedform, errors, pathsum, specfun, spectral, verify

MODULES = (errors, specfun, spectral, closedform, pathsum, verify)

# The root's names before it re-exported the module lists; none may go missing.
EARLIER_ROOT_NAMES = (
    "DomainError", "PolicyUnresolvableError",
    "log_gamma", "gegenbauer_sequence", "bessel_i_scaled", "bessel_asymptotic_leading",
    "TruncationPolicy", "KernelEstimate", "eigenvalue_exponent", "eigenfunction", "eigenfunctions",
    "truncation_tail_bound", "kernel_spectral",
    "kernel_closed", "addition_formula_lhs", "addition_formula_rhs", "addition_formula_terms",
    "PathSumConfig", "ReflectionTerm", "reflection_phase", "decompose",
    "kernel_pathsum_nu1", "kernel_pathsum_nu2", "kernel_pathsum_general",
    "QuadratureRule", "EvalConfig", "ComparisonReport", "METHODS", "SUITES",
    "gauss_legendre_on_0_pi", "check_orthonormality", "check_gaussian_bessel_link", "check_semigroup",
    "evaluate_method", "compare_methods", "run_suites",
    "__version__",
)


def test_root_all_is_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert boxkernel.__all__ == names + ["__version__"]
    assert len(set(boxkernel.__all__)) == len(boxkernel.__all__)


def test_every_module_name_is_the_same_object_at_the_root():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(boxkernel, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_earlier_names_stay_and_two_are_added():
    assert set(boxkernel.__all__) - set(EARLIER_ROOT_NAMES) == {"kernel_spectral_profile", "gegenbauer_table"}
    assert set(EARLIER_ROOT_NAMES) <= set(boxkernel.__all__)


def test_validators_stay_internal():
    assert errors.__all__ == ["DomainError", "PolicyUnresolvableError"]
    assert not any(name.startswith("require_") for name in boxkernel.__all__)
    assert "PRESCRIPTIONS" not in boxkernel.__all__
