"""Spectral route: eigenbasis, tail bound, and the expansion kernel.

The nu = 1 sine series is the independent oracle throughout: at unit coupling
the eigenfunctions reduce to sqrt(2/pi) sin((n+1) theta) and the kernel to the
free-box Dirichlet series, both coded here from scratch.
"""

import math

import numpy as np
import pytest

from boxkernel import (
    DomainError,
    PolicyUnresolvableError,
    TruncationPolicy,
    eigenfunction,
    eigenfunctions,
    eigenvalue_exponent,
    kernel_spectral,
    truncation_tail_bound,
)
from boxkernel.spectral import kernel_spectral_profile


def sine_series_kernel(theta_a, theta_b, lam, n_terms=400):
    """Free-box (nu = 1) kernel straight from the sine eigenbasis."""
    return math.fsum(
        2.0 / math.pi * math.exp(-lam * (n + 1) ** 2 / 2.0)
        * math.sin((n + 1) * theta_a) * math.sin((n + 1) * theta_b)
        for n in range(n_terms)
    )


class TestEigenvalueExponent:
    def test_examples(self):
        assert eigenvalue_exponent(0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-15)
        assert eigenvalue_exponent(2, 0.5, 0.1) == pytest.approx(0.3125, rel=1e-15)
        assert eigenvalue_exponent(1, 2.0, 1.0) == pytest.approx(4.5, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            eigenvalue_exponent(-1, 1.0, 1.0)
        with pytest.raises(DomainError):
            eigenvalue_exponent(0, 0.4, 1.0)
        with pytest.raises(DomainError):
            eigenvalue_exponent(0, 1.0, 0.0)


class TestEigenfunction:
    def test_nu1_reduces_to_sine_basis(self):
        assert eigenfunction(0, 1.0, math.pi / 2) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)
        assert eigenfunction(1, 1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-13)
        for theta in np.linspace(0.1, math.pi - 0.1, 11):
            for n in (0, 3, 17):
                ref = math.sqrt(2.0 / math.pi) * math.sin((n + 1) * theta)
                assert eigenfunction(n, 1.0, theta) == pytest.approx(ref, abs=1e-13)

    def test_vanishes_like_sin_power_nu_at_the_wall(self):
        for nu in (0.5, 1.3, 2.7):
            r1 = eigenfunction(0, nu, 1e-3) / math.sin(1e-3) ** nu
            r2 = eigenfunction(0, nu, 1e-5) / math.sin(1e-5) ** nu
            assert r1 == pytest.approx(r2, rel=1e-6)

    def test_block_matches_scalar(self):
        block = eigenfunctions(25, 1.8, 1.1)
        for n in (0, 9, 25):
            assert block[n] == pytest.approx(eigenfunction(n, 1.8, 1.1), rel=1e-14)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            eigenfunction(0, 1.0, 0.0)
        with pytest.raises(DomainError):
            eigenfunction(0, 1.0, math.pi)


class TestTruncationTailBound:
    def test_nonincreasing_in_n(self):
        bounds = [truncation_tail_bound(1.0, 0.5, n) for n in range(2, 40)]
        assert all(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1))

    def test_goes_to_zero(self):
        assert truncation_tail_bound(1.3, 0.5, 200) < 1e-300

    def test_reference_point(self):
        assert truncation_tail_bound(1.0, 1.0, 30) < 1e-12

    def test_term_past_the_float_range_gives_inf(self):
        # exp(t_N) overflows here; +inf means "keep adding modes", like r_N >= 1
        assert truncation_tail_bound(168.28, 1.03e-4, 1642) == math.inf

    def test_bound_is_a_true_bound(self):
        # extending the truncated sum by 200 extra modes moves the value by
        # less than the reported bound
        for nu, lam in ((1.0, 0.3), (2.7, 0.8), (0.5, 0.15)):
            for ta, tb in ((1.0, 1.0), (0.4, 2.6)):
                short = kernel_spectral(nu, ta, tb, lam, TruncationPolicy.fixed(12))
                long = kernel_spectral(nu, ta, tb, lam, TruncationPolicy.fixed(212))
                assert abs(long.real - short.real) <= short.tail_bound


class TestKernelSpectral:
    def test_symmetry_exact(self):
        a = kernel_spectral(1.7, 0.9, 2.2, 0.4)
        b = kernel_spectral(1.7, 2.2, 0.9, 0.4)
        assert a.value == b.value

    def test_nu1_against_sine_series(self):
        for lam in (0.1, 0.5, 2.0):
            for ta, tb in ((1.1, 2.0), (0.3, 0.4), (2.8, 1.5)):
                mine = kernel_spectral(1.0, ta, tb, lam).real
                assert mine == pytest.approx(sine_series_kernel(ta, tb, lam), abs=1e-12)

    def test_ground_state_dominance_at_large_lambda(self):
        lam = 50.0
        for nu in (0.5, 1.0, 2.3):
            est = kernel_spectral(nu, 1.2, 1.9, lam)
            ground = (
                math.exp(-lam * nu**2 / 2.0)
                * eigenfunction(0, nu, 1.2)
                * eigenfunction(0, nu, 1.9)
            )
            assert est.real == pytest.approx(ground, rel=1e-10)

    def test_diagonal_positivity(self):
        for theta in np.linspace(0.2, math.pi - 0.2, 9):
            for lam in (0.1, 1.0, 5.0):
                est = kernel_spectral(1.4, theta, theta, lam)
                assert est.real > 0.0

    def test_estimate_invariants(self):
        est = kernel_spectral(2.0, 0.8, 2.6, 0.7)
        assert est.method == "spectral"
        assert est.value.imag == 0.0
        assert est.real >= -est.tail_bound
        assert est.terms_used >= 1

    def test_fixed_policy_uses_exactly_n_terms(self):
        est = kernel_spectral(1.0, 1.0, 1.0, 1.0, TruncationPolicy.fixed(7))
        assert est.terms_used == 7

    def test_n_terms_alone_fixes_the_policy(self):
        assert TruncationPolicy.fixed(3) == TruncationPolicy(n_terms=3)
        est = kernel_spectral(1.0, 1.0, 1.0, 1.0, TruncationPolicy(n_terms=3))
        assert est.terms_used == 3
        with pytest.raises(DomainError, match="epsilon_tail"):
            TruncationPolicy(n_terms=3, epsilon_tail=float("inf"))

    def test_term_counts_are_capped(self):
        # constructor calls only: nothing is evaluated at these sizes
        for n in (10**9, 100_001):
            with pytest.raises(DomainError, match="n_terms"):
                TruncationPolicy.fixed(n)
            with pytest.raises(DomainError, match="n_cap"):
                TruncationPolicy.to_tail(1e-12, n_cap=n)
        assert TruncationPolicy.fixed(100_000).n_terms == 100_000
        assert TruncationPolicy.to_tail(1e-12, n_cap=100_000).n_cap == 100_000

    def test_to_tail_takes_the_field_default_cap(self):
        assert TruncationPolicy.to_tail(1e-10).n_cap == TruncationPolicy().n_cap

    def test_target_policy_meets_tail(self):
        policy = TruncationPolicy.to_tail(1e-10)
        est = kernel_spectral(1.0, 1.0, 1.0, 0.2, policy)
        assert est.tail_bound <= 1e-10

    def test_non_finite_tail_target_rejected(self):
        with pytest.raises(DomainError):
            TruncationPolicy.to_tail(float("inf"))
        with pytest.raises(DomainError):
            TruncationPolicy.to_tail(float("nan"))

    def test_policy_unresolvable_signals_small_lambda(self):
        with pytest.raises(PolicyUnresolvableError):
            kernel_spectral(1.0, 1.5, 1.6, 1e-6, TruncationPolicy.to_tail(1e-12, n_cap=50))

    def test_overflowing_gegenbauer_factor_is_domain_error(self):
        # C_n^nu(cos theta) overflows by degree 3204 while the sin^nu amplitude underflows to 0,
        # which multiplied to a silent NaN
        with pytest.raises(DomainError, match="eigenfunction table"):
            kernel_spectral(90.733019776225, 1.1191147329250895e-08, 0.3725420803085231, 0.00012424117182030517)

    def test_overflowing_profile_table_is_domain_error(self):
        # the array recurrence overflows in numpy; the table check reports it, not a RuntimeWarning
        with pytest.raises(DomainError, match="eigenfunction table"):
            kernel_spectral_profile(150.0, 1.5, np.array([1e-3, 1.0]), 1e-4, TruncationPolicy.fixed(3001))

    def test_boundary_angles_rejected(self):
        with pytest.raises(DomainError):
            kernel_spectral(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            kernel_spectral(1.0, 1.0, math.pi, 1.0)

    def test_profile_matches_pointwise(self):
        thetas = np.linspace(0.3, 2.8, 7)
        prof = kernel_spectral_profile(1.6, 1.1, thetas, 0.6)
        for val, tb in zip(prof, thetas):
            assert val == pytest.approx(kernel_spectral(1.6, 1.1, float(tb), 0.6).real, rel=1e-12)
