"""Quadrature and the comparison harness."""

import itertools
import math
import re

import numpy as np
import pytest

from boxkernel import (
    DomainError,
    EvalConfig,
    METHODS,
    PathSumConfig,
    PolicyUnresolvableError,
    QuadratureRule,
    TruncationPolicy,
    check_gaussian_bessel_link,
    check_orthonormality,
    check_semigroup,
    compare_methods,
    evaluate_method,
    gauss_legendre_on_0_pi,
    kernel_closed,
    kernel_pathsum_general,
    kernel_pathsum_nu1,
    kernel_pathsum_nu2,
    kernel_spectral,
    kernel_spectral_profile,
    run_suites,
)
from boxkernel import pathsum, spectral, verify
from boxkernel.spectral import _mode_weights

# each method's public scalar kernel, called one point at a time
SCALAR_KERNELS = {
    "spectral": lambda nu, a, b, lam, cfg: kernel_spectral(nu, a, b, lam, cfg.policy),
    "closed_form": lambda nu, a, b, lam, cfg: kernel_closed(nu, a, b, lam),
    "path_sum_nu1": lambda nu, a, b, lam, cfg: kernel_pathsum_nu1(a, b, lam, cfg.path),
    "path_sum_nu2": lambda nu, a, b, lam, cfg: kernel_pathsum_nu2(a, b, lam, cfg.path),
    "path_sum_general": lambda nu, a, b, lam, cfg: kernel_pathsum_general(nu, a, b, lam, cfg.path),
}


class TestQuadrature:
    def test_integrates_sine(self):
        rule = gauss_legendre_on_0_pi(20)
        assert float(np.sum(rule.weights * np.sin(rule.nodes))) == pytest.approx(2.0, abs=1e-13)

    def test_integrates_sine_squared(self):
        rule = gauss_legendre_on_0_pi(40)
        val = float(np.sum(rule.weights * np.sin(3.0 * rule.nodes) ** 2))
        assert val == pytest.approx(math.pi / 2.0, abs=1e-13)

    def test_weights_sum_to_pi_and_nodes_interior(self):
        for npts in (2, 11, 64):
            rule = gauss_legendre_on_0_pi(npts)
            assert float(np.sum(rule.weights)) == pytest.approx(math.pi, abs=1e-12)
            assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < math.pi)

    def test_too_few_points_rejected(self):
        for npoints in (1, 2.5):  # 2.5 met numpy's raw TypeError
            with pytest.raises(DomainError, match="quadrature needs npoints >= 2"):
                gauss_legendre_on_0_pi(npoints)

    def test_a_rule_past_the_square_cap_is_refused_before_it_is_built(self):
        # leggauss builds an npoints^2 matrix: 4,096 points take 128 MB, and more are refused
        for npoints in (verify._MAX_SQUARE + 1, 10**6):
            with pytest.raises(DomainError, match=rf"^quadrature needs npoints >= 2 and at most {verify._MAX_SQUARE}, got {npoints}$"):
                gauss_legendre_on_0_pi(npoints)

    def test_rule_is_built_once_and_read_only(self):
        rule = gauss_legendre_on_0_pi(33)
        assert gauss_legendre_on_0_pi(33) is rule
        x, w = np.polynomial.legendre.leggauss(33)
        assert np.array_equal(rule.nodes, (x + 1.0) * (math.pi / 2.0)) and np.array_equal(rule.weights, w * (math.pi / 2.0))
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_rule_checks_itself_when_built(self):
        # nodes off (0, pi) or not a nonempty vector, and weights too many or not finite: none reaches a check
        for nodes, weights, message in (
            ([0.5, 4.0], [1.0, 1.0], r"^profile angles must lie strictly inside \(0, pi\)$"),
            ([0.5, math.nan], [1.0, 1.0], r"^profile angles must lie strictly inside \(0, pi\)$"),
            ([[0.5, 1.0]], [[1.0, 1.0]], r"^quadrature nodes must be a nonempty vector, got shape \(1, 2\)$"),
            ([], [], r"^quadrature nodes must be a nonempty vector, got shape \(0,\)$"),
            (1.0, 1.0, r"^quadrature nodes must be a nonempty vector, got shape \(\)$"),
            ([0.5, 1.0], [1.0, 1.0, 1.0], r"^quadrature weights must be finite, one per node, got shape \(3,\) for 2 nodes$"),
            ([0.5, 1.0], [1.0, math.nan], r"^quadrature weights must be finite, one per node, got shape \(2,\) for 2 nodes$"),
            ([0.5, 1.0], [1.0, -math.inf], r"^quadrature weights must be finite, one per node, got shape \(2,\) for 2 nodes$"),
        ):
            with pytest.raises(DomainError, match=message):
                QuadratureRule(nodes=np.array(nodes), weights=np.array(weights))

    def test_rule_keeps_read_only_float_copies(self):
        nodes, weights = np.array([1, 2]), [0.5, 0.5]
        rule = QuadratureRule(nodes=nodes, weights=weights)
        nodes[0] = 0
        assert rule.nodes.tolist() == [1.0, 2.0] and rule.nodes.dtype == float and rule.weights.dtype == float
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable


class TestOrthonormality:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.7])
    def test_gram_matrix_close_to_identity(self, nu):
        rule = gauss_legendre_on_0_pi(2 * 40 + 30)
        assert check_orthonormality(nu, 40, rule) <= 1e-10

    def test_refinement_certificate(self):
        # doubling the rule must not change the verdict, and the two Gram
        # deviations must agree within the claimed tolerance
        coarse = check_orthonormality(1.5, 25, gauss_legendre_on_0_pi(80))
        fine = check_orthonormality(1.5, 25, gauss_legendre_on_0_pi(160))
        assert coarse <= 1e-10 and fine <= 1e-10
        assert abs(coarse - fine) <= 1e-10

    @pytest.mark.parametrize("npoints", [spectral._ARRAY_MIN_ANGLES - 1, spectral._ARRAY_MIN_ANGLES, 110])
    def test_the_gram_follows_the_c_ordered_node_matrix_by_repr(self, npoints):
        # BLAS sums the gram's products in an order that follows the layout: whichever recurrence form builds
        # the nodes, the gram must be the one of the (modes, nodes) matrix in C order, filled node by node
        rng = np.random.default_rng(npoints)
        rule = gauss_legendre_on_0_pi(npoints)
        for _ in range(20):
            nu, nmax = float(rng.uniform(0.5, 6.0)), int(rng.integers(1, 45))
            F = np.empty((nmax + 1, npoints))
            for j, node in enumerate(rule.nodes):
                F[:, j] = spectral.eigenfunctions(nmax, nu, node)
            gram = (F * rule.weights) @ F.T
            assert repr(check_orthonormality(nu, nmax, rule)) == repr(float(np.max(np.abs(gram - np.eye(nmax + 1)))))

    def test_nmax_not_an_integer_rejected(self):
        # 2.5 met numpy's raw TypeError
        with pytest.raises(DomainError, match=r"^nmax must be nonnegative \(an integer\), got 2.5$"):
            check_orthonormality(2.0, 2.5, gauss_legendre_on_0_pi(20))

    def test_a_gram_past_the_square_cap_is_refused_before_it_is_built(self):
        # the gram holds (nmax + 1)^2 floats: nmax + 1 is at most 4,096, 128 MB
        for nmax in (verify._MAX_SQUARE, 10**9):
            with pytest.raises(DomainError, match=rf"^nmax must be nonnegative and at most {verify._MAX_SQUARE - 1}, got {nmax}$"):
                check_orthonormality(2.0, nmax, gauss_legendre_on_0_pi(20))

    def test_overflowing_table_is_domain_error(self):
        # C_n^nu(cos theta) leaves the float range at the outer nodes of the rule; the recurrence on phi_n
        # stays finite (an inf or NaN in the table would reach the gram's maximum).  200 nodes resolve the
        # first ~25 modes at nu = 150 (the rule must grow with nu), so the table's first 20 rows, bitwise its
        # prefix, meet the gram tolerance; the rest is aliased
        rule = gauss_legendre_on_0_pi(200)
        assert math.isfinite(check_orthonormality(150.0, 3000, rule))
        assert check_orthonormality(150.0, 19, rule) <= 1e-10


class TestGaussianBesselLink:
    def test_reference_point(self):
        assert check_gaussian_bessel_link(0, 0.5, 0.01) < 1e-3

    def test_decreasing_in_lambda(self):
        for n, nu in ((0, 1.0), (3, 2.0)):
            devs = [check_gaussian_bessel_link(n, nu, lam) for lam in (0.1, 0.05, 0.025)]
            assert devs[0] > devs[1] > devs[2]

    def test_growing_with_mode_index(self):
        devs = [check_gaussian_bessel_link(n, 1.0, 0.02) for n in range(11)]
        assert all(devs[i] < devs[i + 1] for i in range(len(devs) - 1))

    def test_axis_sweeps_stay_within_tolerance(self):
        # the link criterion holds along each axis of its (n, nu) domain;
        # the joint corner exceeds it (see the acceptance suite)
        for n in range(6):
            assert check_gaussian_bessel_link(n, 0.5, 0.01) <= 1e-3
        for nu in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            assert check_gaussian_bessel_link(0, nu, 0.01) <= 1e-3

    def test_underflowing_gaussian_weight(self):
        # exp(-lambda (n+nu)^2/2) = exp(-1984.5) underflows; the ratio of the
        # two sides overflows instead of dividing by zero
        assert check_gaussian_bessel_link(60, 3.0, 1.0) == math.inf

    def test_negative_mode_index_rejected(self):
        for n in (-1, 2.5):  # 2.5 returned 0.0252
            with pytest.raises(DomainError, match="mode index must be nonnegative"):
                check_gaussian_bessel_link(n, 1.5, 0.1)

    def test_underflowing_bessel_value_is_a_domain_error(self):
        # exp(-z) I_5001(z) at z = 1e4 underflows while the true ratio is O(1)
        with pytest.raises(DomainError):
            check_gaussian_bessel_link(5000, 1.0, 1e-4)


class TestSemigroup:
    def test_legs_share_one_node_table(self, monkeypatch):
        # the legs resolve N = 14 and 8 modes (nu = 2.7, lambda 0.3 and 0.7): one table at the longer N, the
        # legs' source rows and then the node rows, serves both, and each leg's profile is bitwise the one it
        # gets on its own
        rule = gauss_legendre_on_0_pi(160)
        legs = [(1.1, 0.3), (2.0, 0.7)]
        alone = [kernel_spectral_profile(2.7, theta, rule.nodes, lam) for theta, lam in legs]
        tables = []  # (modes, angles) of each table built
        table = spectral._eigenfunction_table
        monkeypatch.setattr(spectral, "_eigenfunction_table", lambda nmax, nu, thetas: tables.append((nmax + 1, len(thetas))) or table(nmax, nu, thetas))
        shared = spectral._spectral_profiles(2.7, legs, rule.nodes, None)
        assert [list(map(repr, profile)) for profile in shared] == [list(map(repr, profile)) for profile in alone]
        lengths = [len(_mode_weights(2.7, [lam], None)[0][0]) for _, lam in legs]
        # one table at the longer leg's N, over the 2 source angles and the 160 nodes
        assert tables == [(max(lengths), 162)]
        assert len(set(lengths)) == 2
        direct = kernel_spectral(2.7, 1.1, 2.0, 0.3 + 0.7).real
        composed = float(np.sum(rule.weights * alone[0] * alone[1]))
        assert check_semigroup(2.7, 0.3, 0.7, 1.1, 2.0, rule) == abs(composed - direct) / abs(direct)

    def test_two_tables_per_check(self, monkeypatch):
        # one table for both legs' profiles and one for the direct kernel; each leg built its own source row besides
        tables = []
        table = spectral._eigenfunction_table
        monkeypatch.setattr(spectral, "_eigenfunction_table", lambda nmax, nu, thetas: tables.append(len(thetas)) or table(nmax, nu, thetas))
        check_semigroup(2.7, 0.3, 0.7, 1.1, 2.0, gauss_legendre_on_0_pi(160))
        assert tables == [162, 2]

    @pytest.mark.parametrize("lambda2", [3e-4, 1e-4])
    def test_a_refusal_is_the_first_refusing_legs(self, lambda2):
        # at nu = 150 a cap of 1000 modes refuses each leg on its own (lambda 1e-3 needs 1073 modes), and
        # the legs are resolved in order before any table is built: the refusal raised is the first leg's,
        # in either order
        rule, policy = gauss_legendre_on_0_pi(160), TruncationPolicy(n_cap=1000)
        for lam in (1e-3, lambda2):
            with pytest.raises(PolicyUnresolvableError, match=rf"^spectral tail below 1e-12 needs more than 1000 modes at nu=150, lambda={lam:g}$"):
                kernel_spectral_profile(150.0, 1.1, rule.nodes, lam, policy)
        for first, second in ((1e-3, lambda2), (lambda2, 1e-3)):
            with pytest.raises(PolicyUnresolvableError, match=rf"^spectral tail below 1e-12 needs more than 1000 modes at nu=150, lambda={first:g}$"):
                check_semigroup(150.0, first, second, 1.1, 2.0, rule, policy)

    def test_reference_compositions(self):
        rule = gauss_legendre_on_0_pi(160)
        assert check_semigroup(1.0, 0.5, 0.5, 1.1, 2.0, rule) <= 1e-8
        assert check_semigroup(2.5, 0.3, 0.7, 1.1, 2.0, rule) <= 1e-8

    def test_degenerate_short_leg(self):
        rule = gauss_legendre_on_0_pi(400)
        assert check_semigroup(1.0, 0.01, 0.99, 1.1, 2.0, rule) <= 1e-6

    def test_underflowed_direct_kernel_is_a_domain_error(self):
        assert kernel_spectral(40.0, 1.1, 2.0, 1.0).real == 0.0
        with pytest.raises(DomainError, match="underflows"):
            check_semigroup(40.0, 0.5, 0.5, 1.1, 2.0, gauss_legendre_on_0_pi(160))

    def test_value_is_the_public_kernels_composition(self):
        rule, policy = gauss_legendre_on_0_pi(160), TruncationPolicy(n_terms=60)
        for nu, l1, l2 in ((1.0, 0.5, 0.5), (2.5, 0.3, 0.7)):
            ka = kernel_spectral_profile(nu, 1.1, rule.nodes, l1, policy)
            kb = kernel_spectral_profile(nu, 2.0, rule.nodes, l2, policy)
            direct = kernel_spectral(nu, 1.1, 2.0, l1 + l2, policy).real
            composed = float(np.sum(rule.weights * ka * kb))
            assert check_semigroup(nu, l1, l2, 1.1, 2.0, rule, policy) == abs(composed - direct) / abs(direct)

    def test_each_refusal_names_its_argument(self):
        rule = gauss_legendre_on_0_pi(40)
        for args, message in (
            ((0.2, 0.5, 0.5, 1.1, 2.0), "coupling nu must satisfy nu >= 1/2, got 0.2"),
            ((2.5, 0.0, 0.5, 1.1, 2.0), "lambda1 must be positive and finite, got 0.0"),
            ((2.5, 0.5, math.inf, 1.1, 2.0), "lambda2 must be positive and finite, got inf"),
            ((2.5, 0.5, 0.5, 0.0, 2.0), r"theta_a must lie strictly inside \(0, pi\), got 0.0"),
            ((2.5, 0.5, 0.5, 1.1, 4.0), r"theta_b must lie strictly inside \(0, pi\), got 4.0"),
        ):
            with pytest.raises(DomainError, match=f"^{message}$"):
                check_semigroup(*args, rule)
        with pytest.raises(DomainError, match=r"^profile angles must lie strictly inside \(0, pi\)$"):
            check_semigroup(2.5, 0.5, 0.5, 1.1, 2.0, QuadratureRule(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0])))


class TestEvaluateMethod:
    def test_dispatch_matches_direct_calls(self):
        cfg = EvalConfig()
        s = evaluate_method("spectral", 1.5, 1.0, 2.0, 0.3, cfg)
        assert s.method == "spectral"
        c = evaluate_method("closed_form", 1.5, 1.0, 2.0, 0.3, cfg)
        assert c.method == "closed_form"

    @pytest.mark.parametrize("method", METHODS)
    def test_default_config_builds_no_config(self, method, monkeypatch):
        # a call without a config takes the shared defaults: no config object is built per call
        nu = {"path_sum_nu1": 1.0, "path_sum_nu2": 2.0}.get(method, 2.5)
        explicit = evaluate_method(method, nu, 0.7, 1.9, 0.05, EvalConfig())
        built = []
        for cls in (EvalConfig, PathSumConfig, TruncationPolicy):
            init = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init, **k: built.append(type(self)) or init(self, *a, **k))
        default = evaluate_method(method, nu, 0.7, 1.9, 0.05)
        assert built == []
        assert repr(default) == repr(explicit)

    def test_specialised_methods_guard_nu(self):
        with pytest.raises(DomainError):
            evaluate_method("path_sum_nu1", 2.0, 1.0, 2.0, 0.3)
        with pytest.raises(DomainError):
            evaluate_method("path_sum_nu2", 1.0, 1.0, 2.0, 0.3)
        for methods in (("path_sum_nu1", "spectral"), ("spectral", "path_sum_nu1")):
            with pytest.raises(DomainError, match="path_sum_nu1 is defined at nu = 1 only"):
                compare_methods(2.0, [(1.0, 2.0)], [0.3], *methods)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            evaluate_method("telepathy", 1.0, 1.0, 2.0, 0.3)

    def test_an_unhashable_method_tag_is_refused_as_unknown(self):
        # the tag is compared with the path-sum tags, not looked up: a list is refused as None is, not with TypeError
        for method in (["spectral"], None):
            with pytest.raises(DomainError, match=r"^unknown method"):
                evaluate_method(method, 2.5, 1.0, 1.2, 0.1)
        with pytest.raises(DomainError, match=r"^unknown method \['x'\]"):
            compare_methods(2.5, [(1.0, 1.2)], [0.1], "spectral", ["x"])

    def test_a_tag_that_is_not_a_str_is_refused_before_it_is_compared(self):
        # a numpy array compares elementwise, so its truth value raised numpy's ValueError; a 0-d array
        # equal to a tag is refused too, while a str subclass (numpy's str_) is a tag
        for method in (np.array(["spectral", "x"]), np.array("spectral")):
            with pytest.raises(DomainError, match=r"^unknown method array\("):
                evaluate_method(method, 2.5, 1.0, 1.2, 0.1)
            for methods in ((method, "spectral"), ("spectral", method)):
                with pytest.raises(DomainError, match=r"^unknown method array\("):
                    compare_methods(2.5, [(1.0, 1.2)], [0.1], *methods)
        assert repr(evaluate_method(np.str_("spectral"), 2.5, 1.0, 1.2, 0.1)) == repr(evaluate_method("spectral", 2.5, 1.0, 1.2, 0.1))


class TestCompareMethods:
    def test_report_shape_and_rows(self):
        grid = [(1.0, 1.3), (0.8, 2.0)]
        chain = [0.4, 0.2, 0.1]
        rep = compare_methods(1.0, grid, chain, "spectral", "path_sum_nu1")
        assert rep.method_a == "spectral" and rep.method_b == "path_sum_nu1"
        assert len(rep.grid) == len(grid) * len(chain)
        assert len(rep.abs_dev) == len(rep.rel_dev) == len(rep.grid)
        assert rep.max_rel_dev == max(rep.rel_dev)
        assert rep.max_abs_dev == max(rep.abs_dev)
        assert rep.im_over_re is None

    def test_exact_identity_pair(self):
        # relative agreement holds wherever the kernel is not exponentially
        # small; pairs separated by more than ~1.5 at lambda = 0.1 sit at the
        # cancellation floor and are covered by the absolute form instead
        grid = [(a, b) for a in (1.0, 1.6, 2.2) for b in (1.0, 1.6, 2.2)]
        rep = compare_methods(1.0, grid, [0.4, 0.2, 0.1], "spectral", "path_sum_nu1")
        assert rep.max_rel_dev <= 1e-10
        assert rep.max_abs_dev <= 1e-12

    def test_closed_form_ratios_at_least_two(self):
        rep = compare_methods(2.0, [(1.2, 1.2)], [0.4, 0.2, 0.1, 0.05], "spectral", "closed_form")
        assert all(r >= 2.0 for r in rep.convergence_ratios)

    def test_im_over_re_decreases_along_chain(self):
        rep = compare_methods(1.3, [(1.0, 1.0)], [0.4, 0.2, 0.1, 0.05], "spectral", "path_sum_general")
        seq = rep.im_over_re
        assert all(seq[i] > seq[i + 1] for i in range(len(seq) - 1))

    def test_halving_chain_produces_ratios(self):
        rep = compare_methods(2.0, [(1.0, 1.0)], [0.4, 0.2, 0.1, 0.05], "spectral", "path_sum_nu2")
        assert rep.convergence_ratios is not None
        assert len(rep.convergence_ratios) == 3

    def test_non_halving_chain_has_no_ratios(self):
        rep = compare_methods(2.0, [(1.0, 1.0)], [0.4, 0.3, 0.1], "spectral", "path_sum_nu2")
        assert rep.convergence_ratios is None

    def test_im_over_re_present_for_complex_method(self):
        rep = compare_methods(1.3, [(1.0, 1.0)], [0.2, 0.1], "spectral", "path_sum_general")
        assert rep.im_over_re is not None
        assert len(rep.im_over_re) == len(rep.grid)

    def test_reports_are_reproducible_bit_for_bit(self):
        grid = [(1.0, 1.3), (0.8, 2.0)]
        a = compare_methods(1.3, grid, [0.2, 0.1], "spectral", "path_sum_general")
        b = compare_methods(1.3, grid, [0.2, 0.1], "spectral", "path_sum_general")
        assert a == b

    def test_input_validation(self):
        with pytest.raises(DomainError):
            compare_methods(1.0, [], [0.2], "spectral", "path_sum_nu1")
        with pytest.raises(DomainError):
            compare_methods(1.0, [(1.0, 1.0)], [0.1, 0.2], "spectral", "path_sum_nu1")
        # a bad angle at pair 1 is refused before any evaluation, in either method order: behind a spectral
        # resolve refusal at pair 0 (lambda = 1e-7), and behind a path-sum overflow at pair 0 (lambda = 5)
        for grid, lam in (([(1, 1), (1, 0)], 1e-7), ([(0.01, 0.01), (1.0, 0.0)], 5.0)):
            for methods in (("spectral", "path_sum_general"), ("path_sum_general", "spectral")):
                with pytest.raises(DomainError, match=r"^theta_p must lie strictly inside \(0, pi\), got 0.0$"):
                    compare_methods(2.5, grid, [lam], *methods)

    @pytest.mark.parametrize("n_pairs", [1, 9])
    @pytest.mark.parametrize("methods", [("spectral", "path_sum_general"), ("path_sum_general", "closed_form"), ("closed_form", "spectral")])
    def test_each_argument_is_checked_once(self, methods, n_pairs, check_calls, array_sums):
        # nu, each lambda and angle and the config's type once, on the way in; the chain cores (the path sums'
        # loop at 1 pair and their array sum at the 6 distinct pairs of 9 x 4 lambdas) and the spectral resolve
        # check nothing
        axis = (0.5, 1.5, 2.5)
        grid = [(a, b) for a in axis for b in axis][:n_pairs]
        chain = [0.4, 0.2, 0.1, 0.05]
        compare_methods(2.5, grid, chain, *methods)
        assert check_calls == {"require_nu": 1, "require_lambda": len(chain), "require_theta": 2 * n_pairs, "require_instance": 1}
        assert array_sums == ([(6 * len(chain), None)] if n_pairs == 9 and "path_sum_general" in methods else [])
        assert 6 * len(chain) >= pathsum._ARRAY_MIN_POINTS

    @pytest.mark.parametrize("methods", [("closed_form", "path_sum_general"), ("path_sum_general", "closed_form")])
    def test_a_closed_form_refusal_is_the_scalar_kernels(self, methods):
        # at lambda = 1e-320 the Bessel argument sin theta sin theta' / lambda is inf
        with pytest.raises(DomainError) as scalar:
            kernel_closed(2.5, 1.0, 1.2, 1e-320)
        with pytest.raises(DomainError, match=f"^{re.escape(str(scalar.value))}$"):
            compare_methods(2.5, [(1.0, 1.2), (0.5, 2.0)], [0.4, 1e-320], *methods)

    def test_custom_config_is_honoured(self):
        cfg = EvalConfig(policy=TruncationPolicy(n_terms=40), path=PathSumConfig(k_max=4))
        rep = compare_methods(1.0, [(1.0, 1.3)], [0.2], "spectral", "path_sum_nu1", cfg)
        assert rep.max_abs_dev <= 1e-12

    def test_per_lambda_is_the_block_maxima(self):
        grid = [(1.0, 1.3), (0.8, 2.0), (2.2, 0.6)]
        chain = [0.4, 0.2, 0.1, 0.05]
        rep = compare_methods(2.0, grid, chain, "spectral", "path_sum_nu2")
        n = len(grid)
        assert rep.per_lambda == tuple(
            (lam, max(rep.abs_dev[i * n:(i + 1) * n]), max(rep.rel_dev[i * n:(i + 1) * n]))
            for i, lam in enumerate(chain)
        )
        rels = [rel for _, _, rel in rep.per_lambda]
        assert rep.convergence_ratios == tuple(a / b for a, b in zip(rels, rels[1:]))
        assert rep.per_lambda_ratios == rep.convergence_ratios

    def test_non_halving_chain_still_has_per_lambda_ratios(self):
        rep = compare_methods(1.0, [(1.0, 1.3)], [0.4, 0.3], "spectral", "path_sum_nu1")
        assert rep.convergence_ratios is None
        assert rep.per_lambda_ratios == (rep.per_lambda[0][2] / rep.per_lambda[1][2],)

    @pytest.mark.parametrize("prescription", ["A", "B"])
    @pytest.mark.parametrize("nu", [1.0, 2.0, 2.5, 0.75])
    def test_values_are_the_scalar_kernels_by_repr(self, nu, prescription, array_sums):
        # the chain cores against the scalar entry points, on grid axes (repeated angles)
        # plus scattered pairs, at seeded margins, lambdas and truncations
        rng = np.random.default_rng(int(10 * nu) + ord(prescription))
        methods = ["spectral", "closed_form", "path_sum_general"]
        methods += {1.0: ["path_sum_nu1"], 2.0: ["path_sum_nu2"]}.get(nu, [])
        refusals = []

        def check(grid, chain, cfg, may_refuse=False):
            # every comparison must evaluate, except where ``may_refuse`` allows a refusal
            for method_a, method_b in zip(methods, methods[1:] + methods[:1]):
                try:
                    rep = compare_methods(nu, grid, chain, method_a, method_b, cfg)
                except (DomainError, OverflowError) as exc:
                    if not may_refuse:
                        raise
                    # the refusal the scalar kernels meet first: lambda by lambda, method_a's grid, then method_b's
                    refusals.append(type(exc))
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        for lam in chain:
                            for method in (method_a, method_b):
                                for a, b in grid:
                                    SCALAR_KERNELS[method](nu, a, b, lam, cfg)
                    continue
                for method, values in ((method_a, rep.value_a), (method_b, rep.value_b)):
                    scalar = tuple(SCALAR_KERNELS[method](nu, a, b, lam, cfg).value for a, b, lam in rep.grid)
                    assert repr(values) == repr(scalar), method
                    assert repr(scalar) == repr(tuple(evaluate_method(method, nu, a, b, lam, cfg).value for a, b, lam in rep.grid))

        for margin in rng.uniform(0.01, 1.2, size=3):
            axis = np.linspace(margin, math.pi - margin, 4).tolist()
            grid = [(a, b) for a in axis for b in axis] + [tuple(rng.uniform(0.01, math.pi - 0.01, 2)) for _ in range(4)]
            chain = sorted(10.0 ** rng.uniform(-2.5, 0.0, size=3), reverse=True)
            policy = TruncationPolicy() if margin < 0.6 else TruncationPolicy(n_terms=int(rng.integers(5, 60)))
            cfg = EvalConfig(policy=policy, path=PathSumConfig(k_max=int(rng.integers(1, 10)), prescription=prescription))
            check(grid, chain, cfg)
        # (pairs, lambdas) on both sides of the path sums' array threshold, with k_max 1 and 30:
        # one angle at a wall (at nu < 1 the even-parity potential is positive and widens the live window),
        # its chain scaled so that no correction passes 600 (math.exp overflows past 709.78), then lambdas
        # in [10, 100], where every image is live, at angles whose corrections stay below 400
        interior = lambda n, edge=0.1: [tuple(rng.uniform(edge, math.pi - edge, 2)) for _ in range(n)]

        def in_range(grid, chain):
            worst = 0.5 * abs(nu * (nu - 1.0)) * max(chain) / min(math.sin(a) * math.sin(b) for a, b in grid)
            return [lam * min(1.0, 600.0 / worst) for lam in chain] if worst else chain

        least = pathsum._ARRAY_MIN_POINTS
        shapes = [(1, least - 1), (1, least), (2, (least - 1) // 2), (2, least // 2 + 1), (least, 1)]
        for (n_pairs, n_lambdas), k_max in itertools.product(shapes, [1, 30]):
            cfg = EvalConfig(path=PathSumConfig(k_max=k_max, prescription=prescription))
            wall = rng.uniform(1e-3, 0.01)
            grid = [(wall if rng.random() < 0.5 else math.pi - wall, rng.uniform(0.3, math.pi - 0.3))] + interior(n_pairs - 1)
            array_sums.clear()
            check(grid, in_range(grid, sorted(10.0 ** rng.uniform(-3.0, 0.0, size=n_lambdas), reverse=True)), cfg)
            check(interior(n_pairs, 0.8), sorted(rng.uniform(10.0, 100.0, size=n_lambdas), reverse=True), cfg)
            # each path sum's chain, in two comparisons per check, takes the array sum from the threshold on
            points, path_sums = n_pairs * n_lambdas, len(methods) - 2
            assert array_sums == ([(points, None)] * 2 * 2 * path_sums if points >= least else [])
        # past the arrays' term cap (27 points x 40,002 terms), the loop again
        check(interior(9), [0.3, 0.2, 0.1], EvalConfig(path=PathSumConfig(k_max=10_000, prescription=prescription)))
        assert not refusals
        # the potential correction at (0.01, 0.01) overflows math.exp at lambda = 5, in the loop (1 pair) and
        # in the arrays (_ARRAY_MIN_POINTS pairs, every correction finite): every comparison with a path sum
        # refuses, unless nu = 1
        for grid in ([(0.01, 0.01)], [(0.01, 0.01)] + interior(least - 1)):
            array_sums.clear()
            check(grid, [5.0], EvalConfig(path=PathSumConfig(prescription=prescription)), may_refuse=True)
            assert {error for _, error in array_sums} == (set() if len(grid) < least else {None if nu == 1.0 else OverflowError})
        with_path_sum = sum("path_sum" in a + b for a, b in zip(methods, methods[1:] + methods[:1]))
        assert refusals == ([] if nu == 1.0 else [OverflowError] * 2 * with_path_sum)

    # at lambda = 5 the path sum overflows next to the walls; at 1e-7 the spectral sum needs more than
    # n_cap modes, and with n_cap = 1 at a 1e-100 tail already at lambda = 5
    WALL_GRID = [(a, b) for a in (0.01, math.pi / 2, math.pi - 0.01) for b in (0.01, math.pi / 2, math.pi - 0.01)]
    # one wall pair, which the path sums' loop takes, and the grid's 6 unordered pairs padded with interior
    # pairs to the array sum's threshold at one lambda, where the array sum's own math.exp overflows
    WALL_GRIDS = [WALL_GRID[:1], WALL_GRID + [(0.5 + 0.04 * i, 2.5 - 0.03 * i) for i in range(pathsum._ARRAY_MIN_POINTS - 6)]]

    @pytest.mark.parametrize("grid", WALL_GRIDS, ids=["one-pair", "array"])
    def test_an_earlier_lambda_refusal_wins(self, grid, array_sums):
        # method_b's refusal at the first lambda, not method_a's at the second
        with pytest.raises(OverflowError):
            compare_methods(2.5, grid, [5.0, 1e-7], "spectral", "path_sum_general")
        assert {error for _, error in array_sums} == (set() if len(grid) == 1 else {OverflowError})

    @pytest.mark.parametrize("grid", WALL_GRIDS, ids=["one-pair", "array"])
    def test_method_a_refusal_wins_within_a_lambda(self, grid, array_sums):
        cfg = EvalConfig(policy=TruncationPolicy(epsilon_tail=1e-100, n_cap=1))
        with pytest.raises(PolicyUnresolvableError):
            compare_methods(2.5, grid, [5.0], "spectral", "path_sum_general", cfg)
        with pytest.raises(OverflowError):
            compare_methods(2.5, grid, [5.0], "path_sum_general", "spectral", cfg)
        assert set(array_sums) == (set() if len(grid) == 1 else {(pathsum._ARRAY_MIN_POINTS, OverflowError)})

    @pytest.mark.parametrize("methods", [("spectral", "path_sum_general"), ("path_sum_general", "spectral")])
    def test_the_array_core_does_not_choose_the_refusal(self, methods, array_sums):
        # at lambda = 5 pair 1's odd weight overflows math.exp and pair 2's correction is inf: the array
        # sum (interior pairs pad the grid to its threshold) refuses pair 2 with DomainError, the per-point
        # order meets pair 1's overflow first
        grid = [(0.01, 0.01), (1e-300, 1e-10), (1.0, 1.2), (2.0, 0.7), (1.5, 1.5)]
        grid += [(0.6 + 0.04 * i, 2.4 - 0.03 * i) for i in range(pathsum._ARRAY_MIN_POINTS - len(grid))]
        with pytest.raises(OverflowError, match="^math range error$"):
            compare_methods(2.5, grid, [5.0], *methods)
        assert set(array_sums) == {(pathsum._ARRAY_MIN_POINTS, DomainError)}

    def test_nan_deviation_propagates(self, monkeypatch):
        from boxkernel import verify

        def fake(method, nu, pairs, lambdas, config):
            def value(theta, lam):
                nan_row = method == "closed_form" and theta == 2.0 and lam == 0.4
                scale = 1.5 if method == "closed_form" else 1.0
                return complex(math.nan if nan_row else scale * theta)

            return [value(theta, lam) for lam in lambdas for theta, _ in pairs]

        monkeypatch.setattr(verify, "_evaluate_chain", fake)
        # the NaN sits in the second row of the first block, where the builtin max drops it
        rep = verify.compare_methods(1.0, [(1.0, 1.0), (2.0, 1.0)], [0.4, 0.2], "spectral", "closed_form")
        assert math.isnan(rep.rel_dev[1])
        (_, abs0, rel0), (_, abs1, rel1) = rep.per_lambda
        assert math.isnan(abs0) and math.isnan(rel0) and (abs1, rel1) == (1.0, 1.0 / 3.0)
        assert math.isnan(rep.max_abs_dev) and math.isnan(rep.max_rel_dev)
        [ratio] = rep.convergence_ratios
        assert math.isnan(ratio)

    def test_deviations_are_the_builtin_expressions(self, monkeypatch):
        # per row: |Re a - Re b|, over the builtin max(|Re a|, |Re b|) where that is > 0 (max keeps its
        # first argument when the second is NaN), else 0.0; |Im/Re| of the general path sum, inf at Re 0
        from boxkernel import verify

        nan, inf = math.nan, math.inf
        rows = [
            (complex(nan, 0.0), complex(1.0, 0.5)), (complex(1.0, 0.0), complex(nan, 1.0)),
            (complex(nan, 0.0), complex(nan, nan)), (complex(0.0, 0.0), complex(0.0, 0.0)),
            (complex(-0.0, 0.0), complex(0.0, 2.0)), (complex(inf, 0.0), complex(1.0, -3.0)),
            (complex(1.0, 0.0), complex(inf, 1.0)), (complex(inf, 0.0), complex(inf, inf)),
            (complex(-inf, 0.0), complex(inf, 0.0)), (complex(1e308, 0.0), complex(-1e308, 1e308)),
            (complex(5e-324, 0.0), complex(0.0, -0.0)), (complex(2.0, 0.0), complex(5e-324, 1e308)),
        ]
        by_method = {"spectral": [a for a, _ in rows], "path_sum_general": [b for _, b in rows]}
        monkeypatch.setattr(verify, "_evaluate_chain", lambda method, nu, pairs, lambdas, config: by_method[method])
        grid = [(0.1 * (i + 1), 1.0) for i in range(6)]
        rep = verify.compare_methods(1.3, grid, [0.4, 0.2], "spectral", "path_sum_general")
        abs_dev = [abs(a.real - b.real) for a, b in rows]
        rel_dev = [d / m if m > 0.0 else 0.0 for d, m in zip(abs_dev, (max(abs(a.real), abs(b.real)) for a, b in rows))]
        im_over_re = [abs(b.imag) / abs(b.real) if b.real != 0.0 else math.inf for _, b in rows]
        assert list(map(repr, rep.abs_dev)) == list(map(repr, abs_dev))
        assert list(map(repr, rep.rel_dev)) == list(map(repr, rel_dev))
        assert list(map(repr, rep.im_over_re)) == list(map(repr, im_over_re))
        assert all(type(x) is float for x in rep.abs_dev + rep.rel_dev + rep.im_over_re)
        assert [repr(m) for _, m, _ in rep.per_lambda] == ["nan", "nan"]

    @pytest.mark.parametrize("prescription", ["A", "B"])
    @pytest.mark.parametrize("nu", [1.0, 1.3, 2.0, 2.5])
    def test_mirrors_and_repeats_are_the_scalar_kernels_by_repr(self, nu, prescription, monkeypatch):
        # pairs with their mirrors, repeats and a diagonal pair, at one lambda and along a chain, on both
        # sides of the path sums' array threshold; a mirrored route evaluates each unordered pair once,
        # the general path sum under A at nu = 1.3 (2 nu not an integer) each ordered pair once: 11 of the
        # long grid's 15, whose diagonal pair is its own mirror, and 2 of the short grid's 3
        from boxkernel import verify

        rng = np.random.default_rng(int(10 * nu) + ord(prescription))
        base = [tuple(rng.uniform(0.05, math.pi - 0.05, 2)) for _ in range(4)] + [(0.03, 1.1), (1.0, 1.0)]
        long = base + [(b, a) for a, b in base[::-1]] + base[1:3] + [(base[0][1], base[0][0])]
        short = [(0.7, 1.9), (1.9, 0.7), (0.7, 1.9)]
        cfg = EvalConfig(path=PathSumConfig(prescription=prescription))
        methods = ["spectral", "closed_form", "path_sum_general"] + {1.0: ["path_sum_nu1"], 2.0: ["path_sum_nu2"]}.get(nu, [])
        mirrored = set(methods) - ({"path_sum_general"} if prescription == "A" and nu == 1.3 else set())
        evaluated = []
        evaluate_chain = verify._evaluate_chain
        monkeypatch.setattr(verify, "_evaluate_chain", lambda method, nu, pairs, *args: evaluated.append((method, len(pairs))) or evaluate_chain(method, nu, pairs, *args))
        chains = ([0.3], [0.5, 0.2, 0.1, 0.05, 0.02])
        # the long grid along the long chain reaches the array sum, at one lambda it does not
        assert len(base) * len(chains[1]) >= pathsum._ARRAY_MIN_POINTS > 11 * len(chains[0])
        for grid, distinct, ordered in ((long, len(base), 11), (short, 1, 2)):
            for chain in chains:
                for method_a, method_b in zip(methods, methods[1:] + methods[:1]):
                    evaluated.clear()
                    rep = compare_methods(nu, grid, chain, method_a, method_b, cfg)
                    assert evaluated == [(m, distinct if m in mirrored else ordered) for m in (method_a, method_b)]
                    for method, values in ((method_a, rep.value_a), (method_b, rep.value_b)):
                        scalar = tuple(SCALAR_KERNELS[method](nu, a, b, lam, cfg).value for a, b, lam in rep.grid)
                        assert repr(values) == repr(scalar), method

    def test_one_dedupe_plan_per_symmetry_class_and_call(self, monkeypatch):
        # two methods of one symmetry class share one plan of distinct pairs; a method of the other class
        # builds its own when it runs, and no plan is kept from one comparison to the next
        plans = []
        dedupe = verify._dedupe
        monkeypatch.setattr(verify, "_dedupe", lambda pairs, mirrored: plans.append(mirrored) or dedupe(pairs, mirrored))
        grid = [(0.7, 1.9), (1.9, 0.7), (1.2, 1.2)]
        for methods, classes in (
            (("spectral", "closed_form"), [True]),
            (("spectral", "path_sum_general"), [True, False]),
            (("path_sum_general", "closed_form"), [False, True]),
        ):
            for _ in range(2):
                plans.clear()
                compare_methods(1.3, grid, [0.4, 0.2], *methods)
                assert plans == classes, methods
        # a bad tag is refused where it is met: after method_a has run on its plan
        plans.clear()
        with pytest.raises(DomainError, match="^unknown method 'x'"):
            compare_methods(1.3, grid, [0.4], "spectral", "x")
        assert plans == [True]

    @pytest.mark.parametrize("grid", [[(0.01, 1.0), (1.0, 0.01)], [(1.0, 0.01), (0.01, 1.0)]])
    def test_a_mirrored_refusal_names_the_pair_met_first(self, grid):
        # under prescription B the general path sum is mirrored: the pair is evaluated in the orientation
        # met first, so the correction's refusal names it, as the scalar kernel does at that pair
        cfg = EvalConfig(path=PathSumConfig(prescription="B"))
        with pytest.raises(DomainError) as scalar:
            kernel_pathsum_general(1e154, *grid[0], 0.1, cfg.path)
        theta, theta_p = grid[0]
        assert str(scalar.value).endswith(f"theta = {theta:g}, theta' = {theta_p:g}")
        with pytest.raises(DomainError, match=f"^{re.escape(str(scalar.value))}$"):
            compare_methods(1e154, grid, [0.1], "path_sum_general", "spectral", cfg)


class TestMirrorSymmetry:
    # seeded pairs, one angle of every other pair within 0.05 of a wall, at lambdas where none refuses
    LAMBDAS = (0.5, 0.1, 0.02, 0.004)

    @staticmethod
    def pairs(seed):
        rng = np.random.default_rng(seed)
        interior = lambda: float(rng.uniform(0.3, math.pi - 0.3))
        wall = lambda: float(rng.choice([1.0, -1.0]) * rng.uniform(0.005, 0.05) % math.pi)
        return [(wall() if i % 2 else interior(), interior()) for i in range(12)]

    @pytest.mark.parametrize("prescription", ["A", "B"])
    @pytest.mark.parametrize("nu", [1.0, 2.0, 0.75, 1.5, 2.5])
    def test_mirrored_routes_are_bitwise_symmetric(self, nu, prescription):
        cfg = EvalConfig(path=PathSumConfig(prescription=prescription))
        methods = ["spectral", "closed_form"] + {1.0: ["path_sum_nu1"], 2.0: ["path_sum_nu2"]}.get(nu, [])
        # under A the even phases exp(2 k nu pi i) are +-1 exactly wherever 2 nu is an integer
        methods += ["path_sum_general"] if prescription == "B" or (2 * nu).is_integer() else []
        for a, b in self.pairs(int(10 * nu)):
            for lam in self.LAMBDAS:
                for method in methods:
                    kernel = SCALAR_KERNELS[method]
                    assert repr(kernel(nu, b, a, lam, cfg).value) == repr(kernel(nu, a, b, lam, cfg).value), (method, a, b, lam)

    @pytest.mark.parametrize("nu", [0.75, 1.3, 2.7])
    def test_the_general_path_sum_under_a_is_not(self, nu):
        # k -> -k conjugates the even phases exp(2 k nu pi i), which are real only where 2 nu is an integer:
        # the real part stays symmetric, the imaginary does not
        values = [
            (kernel_pathsum_general(nu, a, b, lam).value, kernel_pathsum_general(nu, b, a, lam).value)
            for a, b in self.pairs(int(10 * nu))
            for lam in self.LAMBDAS
        ]
        assert all(repr(v.real) == repr(w.real) for v, w in values)
        assert any(v.imag != w.imag for v, w in values)


class TestRunSuites:
    def test_rows_follow_the_registry_order(self):
        rows = list(run_suites(("phases", "orthonormality"), 1.0))
        assert [r[0] for r in rows] == ["orthonormality", "phases"]
        assert all(passed for *_, passed in rows)

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError, match="suite"):
            list(run_suites(("orthonormality", "sorcery"), 1.0))

    def test_suites_are_taken_once(self):
        # a generator is read once, so its suites run and its unknown name is reported; a bare string is
        # refused by name rather than taken letter by letter, and an unhashable name as an unknown one
        assert list(run_suites((s for s in ["phases", "orthonormality"]), 1.0)) == list(run_suites(("phases", "orthonormality"), 1.0))
        with pytest.raises(DomainError, match=r"^unknown suite in \('bogus',\)"):
            list(run_suites((s for s in ["bogus"]), 1.0))
        with pytest.raises(DomainError, match=r"^unknown suite in \(\['phases'\],\)"):
            list(run_suites([["phases"]], 1.0))
        with pytest.raises(DomainError, match=r"got the string 'phases'$"):
            list(run_suites("phases", 1.0))

    @pytest.mark.parametrize("nu", [40.0, 300.0])
    def test_orthonormality_passes_at_large_nu(self, nu):
        [(_, _, measured, tol, passed)] = run_suites(("orthonormality",), nu)
        assert passed and measured <= tol

    def test_orthonormality_refuses_nu_past_the_measured_range(self, monkeypatch):
        from boxkernel import verify

        def no_rule(npoints):
            raise AssertionError(f"a {npoints}-point rule was built")

        monkeypatch.setattr(verify, "gauss_legendre_on_0_pi", no_rule)
        with pytest.raises(DomainError, match="nu <= 1000"):
            list(run_suites(("orthonormality",), 1e9))

    def test_decomposition_suites_compare_each_coupling_once(self, monkeypatch):
        # all three canonical points share one comparison per coupling; each point's chain is bitwise
        # the one its own comparison gives
        from boxkernel import verify

        couplings = []
        compare = verify.compare_methods
        monkeypatch.setattr(verify, "compare_methods", lambda nu, *args: couplings.append(nu) or compare(nu, *args))
        rows = list(run_suites(("nu2-decomposition", "general-decomposition"), 2.7))
        assert couplings == [2.0, 0.75, 1.3, 2.5] and all(passed for *_, passed in rows)
        points, chain, cfg = [(1.0, 1.0), (0.7, 0.9), (2.0, 1.4)], (0.4, 0.2, 0.1, 0.05), EvalConfig()
        for method, nu in (("path_sum_nu2", 2.0), ("path_sum_general", 0.75), ("path_sum_general", 2.5)):
            batched = verify._chain_devs(method, nu, points, chain, cfg)
            assert repr(batched) == repr([verify._chain_devs(method, nu, [p], chain, cfg)[0] for p in points])
