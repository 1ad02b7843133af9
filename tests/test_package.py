"""Package root: every public name comes from exactly one module's ``__all__``."""

import dataclasses

import boxkernel
from boxkernel import closedform, errors, pathsum, specfun, spectral, verify

MODULES = (errors, specfun, spectral, closedform, pathsum, verify)

# The root's names before it re-exported the module lists; none may go missing.
EARLIER_ROOT_NAMES = (
    "DomainError", "PolicyUnresolvableError",
    "bessel_i_scaled", "bessel_asymptotic_leading",
    "TruncationPolicy", "KernelEstimate", "eigenfunction", "eigenfunctions",
    "truncation_tail_bound", "kernel_spectral",
    "kernel_closed", "addition_formula_lhs", "addition_formula_rhs", "addition_formula_terms",
    "PathSumConfig", "ReflectionTerm", "reflection_phase", "decompose",
    "kernel_pathsum_nu1", "kernel_pathsum_nu2", "kernel_pathsum_general",
    "QuadratureRule", "EvalConfig", "ComparisonReport", "METHODS", "SUITES",
    "gauss_legendre_on_0_pi", "check_orthonormality", "check_gaussian_bessel_link", "check_semigroup",
    "evaluate_method", "compare_methods", "run_suites",
    "__version__",
)

# Earlier root names that only restated another entry point: eigenfunction(n, nu, theta) is eigenfunctions(n, nu, theta)[n].
REMOVED_ROOT_NAMES = {"eigenfunction"}


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
    assert set(EARLIER_ROOT_NAMES) - set(boxkernel.__all__) == REMOVED_ROOT_NAMES
    assert not REMOVED_ROOT_NAMES & set(dir(boxkernel))


def test_one_way_in_per_object():
    # a policy is built by its constructor, a rule's size is len(rule.nodes), and the default config
    # is made of the routes' own shared defaults
    assert not hasattr(spectral.TruncationPolicy, "fixed") and not hasattr(spectral.TruncationPolicy, "to_tail")
    assert "npoints" not in {field.name for field in dataclasses.fields(verify.QuadratureRule)}
    config = verify.EvalConfig()
    assert config.policy is spectral._DEFAULT_POLICY and config.path is pathsum._DEFAULT_PATH


def test_validators_stay_internal():
    assert errors.__all__ == ["DomainError", "PolicyUnresolvableError"]
    assert not any(name.startswith("require_") for name in boxkernel.__all__)
    assert "PRESCRIPTIONS" not in boxkernel.__all__
