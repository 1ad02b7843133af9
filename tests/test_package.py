"""Package root: every public name comes from exactly one module's ``__all__``, and each
public entry point checks each of its arguments once."""

import dataclasses
import inspect
import typing

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

# Earlier root names that went: eigenfunction(n, nu, theta) only restated eigenfunctions(n, nu, theta)[n], and
# nothing in the library called bessel_asymptotic_leading; its exact half-integer cases are bessel_i_scaled's.
REMOVED_ROOT_NAMES = {"eigenfunction", "bessel_asymptotic_leading"}


def test_root_all_is_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert boxkernel.__all__ == names + ["__version__"]
    assert len(set(boxkernel.__all__)) == len(boxkernel.__all__)


def test_every_module_name_is_the_same_object_at_the_root():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(boxkernel, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_earlier_names_stay_and_two_are_added():
    # of the two names added since the earlier list, gegenbauer_table went again: nothing in the library
    # called it once the eigenbasis recurred on the orthonormal functions themselves
    assert set(boxkernel.__all__) - set(EARLIER_ROOT_NAMES) == {"kernel_spectral_profile"}
    assert set(EARLIER_ROOT_NAMES) - set(boxkernel.__all__) == REMOVED_ROOT_NAMES
    assert not REMOVED_ROOT_NAMES & set(dir(boxkernel))
    assert not hasattr(boxkernel, "gegenbauer_table") and not hasattr(specfun, "gegenbauer_table")


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


# A point (nu, theta, theta', lambda) and the checks of its four arguments; a value object's door checks its type.
POINT = (2.5, 1.0, 1.2, 0.1)
POINT_CHECKS = {"require_nu": 1, "require_theta": 2, "require_lambda": 1}
OBJECT_CHECK = {"require_instance": 1}
RULE = verify.gauss_legendre_on_0_pi(40)

ENTRY_POINTS = [
    (pathsum.kernel_pathsum_nu1, POINT[1:], {**POINT_CHECKS, **OBJECT_CHECK}),
    (pathsum.kernel_pathsum_nu2, POINT[1:], {**POINT_CHECKS, **OBJECT_CHECK}),
    (pathsum.kernel_pathsum_general, POINT, {**POINT_CHECKS, **OBJECT_CHECK}),
    (pathsum.decompose, POINT, {**POINT_CHECKS, **OBJECT_CHECK}),
    (pathsum.reflection_phase, (1, "odd", 2.5, "B"), {"require_nu": 1}),
    (spectral.kernel_spectral, POINT, {**POINT_CHECKS, **OBJECT_CHECK}),
    (spectral.kernel_spectral_profile, (2.5, 1.0, np.array([1.2, 2.0]), 0.1),
     {"require_nu": 1, "require_theta": 1, "require_lambda": 1, "require_angles": 1, **OBJECT_CHECK}),
    (spectral.eigenfunctions, (5, 2.5, 1.0), {"require_nu": 1, "require_theta": 1, "require_index": 1}),
    (spectral.truncation_tail_bound, (2.5, 0.1, 3), {"require_nu": 1, "require_lambda": 1, "require_index": 1}),
    (closedform.kernel_closed, POINT, POINT_CHECKS),
    (closedform.addition_formula_lhs, POINT, POINT_CHECKS),
    (closedform.addition_formula_lhs, POINT + (10,), {**POINT_CHECKS, "require_count": 1}),
    (closedform.addition_formula_rhs, POINT, POINT_CHECKS),
    (closedform.addition_formula_terms, (0.1,), {"require_lambda": 1}),
    (spectral.TruncationPolicy, (10, 1e-12, 4096), {"require_count": 2}),
    # the config at evaluate_method's door, and for the spectral tag its policy again at kernel_spectral's
    *((verify.evaluate_method, (method,) + POINT, {**POINT_CHECKS, "require_instance": objects})
      for method, objects in (("spectral", 2), ("closed_form", 1), ("path_sum_general", 1))),
    (verify.evaluate_method, ("path_sum_nu1", 1.0) + POINT[1:], {**POINT_CHECKS, **OBJECT_CHECK}),
    (verify.check_orthonormality, (2.5, 5, RULE), {"require_nu": 1, "require_index": 1, **OBJECT_CHECK}),
    (verify.check_gaussian_bessel_link, (2, 2.5, 0.1), {"require_nu": 1, "require_lambda": 1, "require_index": 1}),
    (verify.check_semigroup, (2.5, 0.3, 0.7, 1.1, 2.0, RULE), {"require_nu": 1, "require_theta": 2, "require_lambda": 2, "require_instance": 2}),
    (verify.QuadratureRule, (RULE.nodes, RULE.weights), {"require_angles": 1}),
]


@pytest.mark.parametrize("entry, args, checks", ENTRY_POINTS, ids=[f"{entry.__name__}-{i}" for i, (entry, _, _) in enumerate(ENTRY_POINTS)])
def test_each_argument_is_checked_once(entry, args, checks, check_calls):
    # the private cores behind an entry point check nothing; the phase table is cleared, so that a
    # path sum's table miss is counted.  require_point is the three checks of a point, counted one by one.
    pathsum._phases.cache_clear()
    entry(*args)
    assert {name: n for name, n in check_calls.items() if name != "require_point"} == checks


# Every public entry point that takes a number, as a function of plain numbers, with the kind of each
# argument: "f" a float, "i" an integer.  A vector, a grid or a chain carries its number as an entry.
DOORS = [
    ("bessel_i_scaled", specfun.bessel_i_scaled, (1.5, 10.0), "ff"),
    ("TruncationPolicy", spectral.TruncationPolicy, (10, 1e-12, 4096), "ifi"),
    ("eigenfunctions", spectral.eigenfunctions, (5, 2.5, 1.0), "iff"),
    ("truncation_tail_bound", spectral.truncation_tail_bound, (2.5, 0.1, 3), "ffi"),
    ("kernel_spectral", spectral.kernel_spectral, POINT, "ffff"),
    ("kernel_spectral_profile", lambda nu, theta_a, theta, lam: spectral.kernel_spectral_profile(nu, theta_a, [1.2, theta], lam),
     POINT, "ffff"),
    ("kernel_closed", closedform.kernel_closed, POINT, "ffff"),
    ("addition_formula_lhs", closedform.addition_formula_lhs, POINT + (10,), "ffffi"),
    ("addition_formula_rhs", closedform.addition_formula_rhs, POINT, "ffff"),
    ("addition_formula_terms", closedform.addition_formula_terms, (0.1,), "f"),
    ("PathSumConfig", pathsum.PathSumConfig, (8,), "i"),
    ("reflection_phase", lambda k, nu: pathsum.reflection_phase(k, "odd", nu, "B"), (1, 2.5), "if"),
    ("decompose", pathsum.decompose, POINT, "ffff"),
    ("kernel_pathsum_nu1", pathsum.kernel_pathsum_nu1, POINT[1:], "fff"),
    ("kernel_pathsum_nu2", pathsum.kernel_pathsum_nu2, POINT[1:], "fff"),
    ("kernel_pathsum_general", pathsum.kernel_pathsum_general, POINT, "ffff"),
    ("QuadratureRule", lambda node, weight: verify.QuadratureRule([0.5, node], [1.0, weight]), (1.0, 1.0), "ff"),
    ("gauss_legendre_on_0_pi", verify.gauss_legendre_on_0_pi, (4,), "i"),
    ("check_orthonormality", lambda nu, nmax: verify.check_orthonormality(nu, nmax, RULE), (2.5, 5), "fi"),
    ("check_gaussian_bessel_link", verify.check_gaussian_bessel_link, (2, 2.5, 0.1), "iff"),
    ("check_semigroup", lambda *args: verify.check_semigroup(*args, RULE), (2.5, 0.3, 0.7, 1.1, 2.0), "fffff"),
    *((f"evaluate_method-{method}", lambda *point, method=method: verify.evaluate_method(method, *point), point, "f" * len(point))
      for method, point in (("spectral", POINT), ("closed_form", POINT), ("path_sum_nu1", (1.0,) + POINT[1:]),
                            ("path_sum_nu2", (2.0,) + POINT[1:]), ("path_sum_general", POINT))),
    ("compare_methods", lambda nu, theta, theta_p, lam1, lam2: verify.compare_methods(
        nu, [(theta, theta_p)], [lam1, lam2], "spectral", "path_sum_general"), POINT + (0.05,), "fffff"),
    ("run_suites", lambda nu: list(verify.run_suites(("phases",), nu)), (2.5,), "f"),
]
BAD_VALUES = {"f": (np.nan, np.inf, -np.inf, None, "x", [2.5]), "i": (2.5, np.nan)}
# Public callables that take no number: the errors, the result records and the config of configs.
NUMBERLESS = {"DomainError", "PolicyUnresolvableError", "KernelEstimate", "ReflectionTerm", "ComparisonReport", "EvalConfig"}


def test_the_audit_covers_every_door():
    doors = {name for name in boxkernel.__all__ if callable(getattr(boxkernel, name))} - NUMBERLESS
    assert doors == {door[0].split("-")[0] for door in DOORS}


@pytest.mark.parametrize("entry, args, kinds", [door[1:] for door in DOORS], ids=[door[0] for door in DOORS])
def test_no_door_lets_nan_inf_or_a_fraction_through(entry, args, kinds):
    # each float argument in turn is NaN, +-inf or not a number (None, "x", [2.5]: float() raised TypeError or
    # ValueError), each integer argument 2.5 or NaN: every call refuses with one of the library's errors,
    # neither returning (a NaN, say) nor raising any other exception
    entry(*args)
    let_through = []
    for i, kind in enumerate(kinds):
        for bad in BAD_VALUES[kind]:
            try:
                outcome = entry(*args[:i], bad, *args[i + 1:])
            except (errors.DomainError, errors.PolicyUnresolvableError):
                continue
            except Exception as exc:
                outcome = exc
            let_through.append((i, bad, repr(outcome)[:80]))
    assert let_through == []


def test_a_value_that_is_not_a_number_is_refused_by_its_name():
    # the validators turn float()'s TypeError or ValueError into a DomainError that names the argument
    refusals = [
        (lambda: spectral.kernel_spectral(2.5, None, 1.2, 0.1), "theta_a must be a number, got None"),
        (lambda: verify.evaluate_method("closed_form", 2.5, 1.0, "x", 0.1), "theta_p must be a number, got 'x'"),
        (lambda: list(verify.run_suites(["phases"], None)), "coupling nu must be a number, got None"),
        (lambda: pathsum.kernel_pathsum_general([2.5], 1.0, 1.2, 0.1), "coupling nu must be a number, got [2.5]"),
        (lambda: closedform.addition_formula_terms("x"), "lambda must be a number, got 'x'"),
        (lambda: verify.compare_methods(1.0, [(1.0, 1.2)], [0.2, "x"], "spectral", "closed_form"), "lambda must be a number, got 'x'"),
    ]
    for call, message in refusals:
        with pytest.raises(errors.DomainError) as refusal:
            call()
        assert str(refusal.value) == message


# Every public door that takes a method tag or suite names, as a function of that one argument.
TAG_DOORS = [
    ("evaluate_method", lambda tag: verify.evaluate_method(tag, *POINT)),
    ("compare_methods-a", lambda tag: verify.compare_methods(2.5, [(1.0, 1.2)], [0.1], tag, "spectral")),
    ("compare_methods-b", lambda tag: verify.compare_methods(2.5, [(1.0, 1.2)], [0.1], "spectral", tag)),
    ("run_suites", lambda suites: list(verify.run_suites(suites, 2.5))),
    ("run_suites-name", lambda name: list(verify.run_suites(["phases", name], 2.5))),
]


# A comparison's grid and chain: each malformed one is refused with DomainError.  A string chain was read
# character by character ("21" as lambdas 2.0 and 1.0, "0.1" refused as "got 0.0"); a grid of a 1-tuple
# raised a raw ValueError, a grid of 5 a raw TypeError.
SHAPE_DOORS = [
    ("compare_methods-grid", lambda grid: verify.compare_methods(1.0, grid, [0.2, 0.1], "spectral", "closed_form"), [(1.0, 1.2)],
     (5, None, "ab", [(1.0,)], [(1.0, 1.2, 1.3)], ["12"], [5], [(None, 1.0)], [("x", 1.0)], [[1.0, [1.2]]])),
    ("compare_methods-chain", lambda chain: verify.compare_methods(1.0, [(1.0, 1.2)], chain, "spectral", "closed_form"), [0.2, 0.1],
     ("21", "0.1", 5, None, np.array(0.1), [None], [[0.1]], ["x"])),
]


@pytest.mark.parametrize("entry, good, malformed", [door[1:] for door in SHAPE_DOORS], ids=[door[0] for door in SHAPE_DOORS])
def test_no_door_reads_a_malformed_grid_or_chain(entry, good, malformed):
    entry(good)
    let_through = []
    for bad in malformed:
        try:
            outcome = entry(bad)
        except errors.DomainError:
            continue
        except Exception as exc:
            outcome = exc
        let_through.append((repr(bad), repr(outcome)[:80]))
    assert let_through == []


@pytest.mark.parametrize("entry", [door[1] for door in TAG_DOORS], ids=[door[0] for door in TAG_DOORS])
def test_no_door_lets_a_tag_or_a_suite_list_of_another_type_through(entry):
    # a method tag must be a str and the suites an iterable of str names: anything else is refused with
    # DomainError, not numpy's ambiguous truth value or a TypeError
    let_through = []
    for bad in (None, 5, 2.5, np.nan, ["spectral"], np.array(["spectral", "x"]), np.array("phases"), {"x": 1}):
        try:
            outcome = entry(bad)
        except errors.DomainError:
            continue
        except Exception as exc:
            outcome = exc
        let_through.append((repr(bad), repr(outcome)[:80]))
    assert let_through == []


# Every parameter of a public door that takes a value object, as a function of that one object, with the
# object's class and whether None stands for the default there.  An object of another type raised a raw
# AttributeError where a field was first read, or passed through a falsy test: EvalConfig(path=None) was
# refused by compare_methods but read as the default by evaluate_method.
OBJECT_DOORS = [
    ("kernel_spectral-policy", lambda policy: spectral.kernel_spectral(*POINT, policy), spectral.TruncationPolicy, True),
    ("kernel_spectral_profile-policy", lambda policy: spectral.kernel_spectral_profile(2.5, 1.0, [1.2, 2.0], 0.1, policy),
     spectral.TruncationPolicy, True),
    ("decompose-config", lambda config: pathsum.decompose(*POINT, config), pathsum.PathSumConfig, True),
    ("kernel_pathsum_nu1-config", lambda config: pathsum.kernel_pathsum_nu1(*POINT[1:], config), pathsum.PathSumConfig, True),
    ("kernel_pathsum_nu2-config", lambda config: pathsum.kernel_pathsum_nu2(*POINT[1:], config), pathsum.PathSumConfig, True),
    ("kernel_pathsum_general-config", lambda config: pathsum.kernel_pathsum_general(*POINT, config), pathsum.PathSumConfig, True),
    ("check_orthonormality-rule", lambda rule: verify.check_orthonormality(2.5, 5, rule), verify.QuadratureRule, False),
    ("check_semigroup-rule", lambda rule: verify.check_semigroup(2.5, 0.3, 0.7, 1.1, 2.0, rule), verify.QuadratureRule, False),
    ("check_semigroup-policy", lambda policy: verify.check_semigroup(2.5, 0.3, 0.7, 1.1, 2.0, RULE, policy),
     spectral.TruncationPolicy, True),
    *((f"evaluate_method-config-{method}", lambda config, method=method: verify.evaluate_method(method, *POINT, config),
       verify.EvalConfig, True) for method in ("spectral", "closed_form", "path_sum_general")),
    ("compare_methods-config", lambda config: verify.compare_methods(2.5, [(1.0, 1.2)], [0.1], "spectral", "path_sum_general", config),
     verify.EvalConfig, True),
    ("run_suites-config", lambda config: list(verify.run_suites(("phases",), 2.5, config)), verify.EvalConfig, True),
    ("EvalConfig-policy", lambda policy: verify.EvalConfig(policy=policy), spectral.TruncationPolicy, False),
    ("EvalConfig-path", lambda path: verify.EvalConfig(path=path), pathsum.PathSumConfig, False),
]
VALUE_OBJECTS = {spectral.TruncationPolicy: spectral.TruncationPolicy(), pathsum.PathSumConfig: pathsum.PathSumConfig(),
                 verify.QuadratureRule: RULE, verify.EvalConfig: verify.EvalConfig()}


def test_the_object_audit_covers_every_door():
    takes = set()
    for name in boxkernel.__all__:
        member = getattr(boxkernel, name)
        if callable(member) and not (isinstance(member, type) and issubclass(member, Exception)):
            for parameter in inspect.signature(member).parameters.values():
                if set(typing.get_args(parameter.annotation) or (parameter.annotation,)) & set(VALUE_OBJECTS):
                    takes.add(f"{name}-{parameter.name}")
    assert takes == {"-".join(door[0].split("-")[:2]) for door in OBJECT_DOORS}


@pytest.mark.parametrize("entry, kind, optional", [door[1:] for door in OBJECT_DOORS], ids=[door[0] for door in OBJECT_DOORS])
def test_no_door_lets_an_object_of_another_type_through(entry, kind, optional):
    # the door takes its own object, and None where that is the default; every other value, the other value
    # objects included, is refused with a DomainError that names the parameter and the class
    entry(VALUE_OBJECTS[kind])
    if optional:
        entry(None)
    bad_objects = [5, "A", (RULE.nodes, RULE.weights), {"n_terms": 5}, *(obj for cls, obj in VALUE_OBJECTS.items() if cls is not kind)]
    let_through = []
    for bad in bad_objects + ([] if optional else [None]):
        try:
            outcome = entry(bad)
        except errors.DomainError as refusal:
            if f" must be a {kind.__name__}" in str(refusal):
                continue
            outcome = refusal
        except Exception as exc:
            outcome = exc
        let_through.append((repr(bad)[:40], repr(outcome)[:80]))
    assert let_through == []

