"""Quadrature and the comparison harness."""

import math

import numpy as np
import pytest

from boxkernel import (
    DomainError,
    EvalConfig,
    PathSumConfig,
    TruncationPolicy,
    check_gaussian_bessel_link,
    check_orthonormality,
    check_semigroup,
    compare_methods,
    evaluate_method,
    gauss_legendre_on_0_pi,
    kernel_spectral,
    run_suites,
)


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
        with pytest.raises(DomainError):
            gauss_legendre_on_0_pi(1)


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

    def test_overflowing_table_is_domain_error(self):
        # C_n^nu(cos theta) leaves the float range at the outer nodes of the rule
        with pytest.raises(DomainError, match="eigenfunction table"):
            check_orthonormality(150.0, 3000, gauss_legendre_on_0_pi(200))


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

    def test_underflowing_bessel_value_is_a_domain_error(self):
        # exp(-z) I_5001(z) at z = 1e4 underflows while the true ratio is O(1)
        with pytest.raises(DomainError):
            check_gaussian_bessel_link(5000, 1.0, 1e-4)


class TestSemigroup:
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


class TestEvaluateMethod:
    def test_dispatch_matches_direct_calls(self):
        cfg = EvalConfig()
        s = evaluate_method("spectral", 1.5, 1.0, 2.0, 0.3, cfg)
        assert s.method == "spectral"
        c = evaluate_method("closed_form", 1.5, 1.0, 2.0, 0.3, cfg)
        assert c.method == "closed_form"

    def test_specialised_methods_guard_nu(self):
        with pytest.raises(DomainError):
            evaluate_method("path_sum_nu1", 2.0, 1.0, 2.0, 0.3)
        with pytest.raises(DomainError):
            evaluate_method("path_sum_nu2", 1.0, 1.0, 2.0, 0.3)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            evaluate_method("telepathy", 1.0, 1.0, 2.0, 0.3)


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

    def test_custom_config_is_honoured(self):
        cfg = EvalConfig(policy=TruncationPolicy.fixed(40), path=PathSumConfig(k_max=4))
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

    def test_nan_deviation_propagates(self, monkeypatch):
        from boxkernel import verify
        from boxkernel.spectral import KernelEstimate

        def fake(method, nu, theta, theta_p, lam, config=None):
            nan_row = method == "closed_form" and theta == 2.0 and lam == 0.4
            scale = 1.5 if method == "closed_form" else 1.0
            return KernelEstimate(value=complex(math.nan if nan_row else scale * theta), method=method, terms_used=0)

        monkeypatch.setattr(verify, "evaluate_method", fake)
        # the NaN sits in the second row of the first block, where the builtin max drops it
        rep = verify.compare_methods(1.0, [(1.0, 1.0), (2.0, 1.0)], [0.4, 0.2], "spectral", "closed_form")
        assert math.isnan(rep.rel_dev[1])
        (_, abs0, rel0), (_, abs1, rel1) = rep.per_lambda
        assert math.isnan(abs0) and math.isnan(rel0) and (abs1, rel1) == (1.0, 1.0 / 3.0)
        assert math.isnan(rep.max_abs_dev) and math.isnan(rep.max_rel_dev)
        [ratio] = rep.convergence_ratios
        assert math.isnan(ratio)


class TestRunSuites:
    def test_rows_follow_the_registry_order(self):
        rows = list(run_suites(("phases", "orthonormality"), 1.0))
        assert [r[0] for r in rows] == ["orthonormality", "phases"]
        assert all(passed for *_, passed in rows)

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError, match="suite"):
            list(run_suites(("orthonormality", "sorcery"), 1.0))

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
