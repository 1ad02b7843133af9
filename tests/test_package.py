"""Package root: every public name comes from exactly one module's ``__all__``, and each
public entry point checks each of its arguments once."""

import dataclasses

import numpy as np
import pytest

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


# A point (nu, theta, theta', lambda) and the checks of its four arguments.
POINT = (2.5, 1.0, 1.2, 0.1)
POINT_CHECKS = {"require_nu": 1, "require_theta": 2, "require_lambda": 1}
RULE = verify.gauss_legendre_on_0_pi(40)

ENTRY_POINTS = [
    (pathsum.kernel_pathsum_nu1, POINT[1:], POINT_CHECKS),
    (pathsum.kernel_pathsum_nu2, POINT[1:], POINT_CHECKS),
    (pathsum.kernel_pathsum_general, POINT, POINT_CHECKS),
    (pathsum.decompose, POINT, POINT_CHECKS),
    (pathsum.reflection_phase, (1, "odd", 2.5, "B"), {"require_nu": 1}),
    (spectral.kernel_spectral, POINT, POINT_CHECKS),
    (spectral.kernel_spectral_profile, (2.5, 1.0, np.array([1.2, 2.0]), 0.1),
     {"require_nu": 1, "require_theta": 1, "require_lambda": 1, "require_angles": 1}),
    (spectral.eigenfunctions, (5, 2.5, 1.0), {"require_nu": 1, "require_theta": 1, "require_index": 1}),
    (spectral.truncation_tail_bound, (2.5, 0.1, 3), {"require_nu": 1, "require_lambda": 1, "require_index": 1}),
    (closedform.kernel_closed, POINT, POINT_CHECKS),
    (closedform.addition_formula_lhs, POINT, POINT_CHECKS),
    (closedform.addition_formula_lhs, POINT + (10,), {**POINT_CHECKS, "require_count": 1}),
    (closedform.addition_formula_rhs, POINT, POINT_CHECKS),
    (closedform.addition_formula_terms, (0.1,), {"require_lambda": 1}),
    (specfun.gegenbauer_table, (5, 2.5, 0.5), {"require_index": 1}),
    *((verify.evaluate_method, (method,) + POINT, POINT_CHECKS) for method in ("spectral", "closed_form", "path_sum_general")),
    (verify.evaluate_method, ("path_sum_nu1", 1.0) + POINT[1:], POINT_CHECKS),
    (verify.check_orthonormality, (2.5, 5, RULE), {"require_nu": 1, "require_index": 1}),
    (verify.check_gaussian_bessel_link, (2, 2.5, 0.1), {"require_nu": 1, "require_lambda": 1, "require_index": 1}),
    (verify.check_semigroup, (2.5, 0.3, 0.7, 1.1, 2.0, RULE),
     {"require_nu": 1, "require_theta": 2, "require_lambda": 2, "require_angles": 1}),
]


@pytest.mark.parametrize("entry, args, checks", ENTRY_POINTS, ids=[f"{entry.__name__}-{i}" for i, (entry, _, _) in enumerate(ENTRY_POINTS)])
def test_each_argument_is_checked_once(entry, args, checks, check_calls):
    # the private cores behind an entry point check nothing; the phase table is cleared, so that a
    # path sum's table miss is counted.  require_point is the three checks of a point, counted one by one.
    pathsum._phases.cache_clear()
    entry(*args)
    assert {name: n for name, n in check_calls.items() if name != "require_point"} == checks
