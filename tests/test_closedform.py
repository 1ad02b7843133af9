"""Closed-form kernel and the addition identity.

The unit-coupling reduction is derived independently here from the sinh form
of the half-order Bessel function:

    K^(1)(theta, theta'; lambda)
      = e^{-lambda/8} / sqrt(2 pi lambda)
        * [ exp(-(1 - cos(theta-theta'))/lambda) - exp(-(1 - cos(theta+theta'))/lambda) ].

(The e^{-lambda/8} prefactor follows from the algebra; the printed source has
the opposite sign on that exponent, see the convergence notes.)
"""

import math

import mpmath
import numpy as np
import pytest

from boxkernel import (
    DomainError,
    kernel_spectral,
    addition_formula_lhs,
    addition_formula_rhs,
    addition_formula_terms,
    kernel_closed,
)

mpmath.mp.dps = 40


def closed_nu1_oracle(theta, theta_p, lam):
    """Unit-coupling closed kernel assembled from sinh, independent of the library."""
    return (
        math.exp(-lam / 8.0) / math.sqrt(2.0 * math.pi * lam)
        * (
            math.exp(-(1.0 - math.cos(theta - theta_p)) / lam)
            - math.exp(-(1.0 - math.cos(theta + theta_p)) / lam)
        )
    )


class TestKernelClosed:
    def test_nu1_sinh_reduction(self):
        for lam in (0.05, 0.3, 1.0):
            for ta, tb in ((1.0, 1.3), (0.5, 2.5), (2.0, 2.0)):
                mine = kernel_closed(1.0, ta, tb, lam).real
                assert mine == pytest.approx(closed_nu1_oracle(ta, tb, lam), rel=1e-12)

    def test_symmetry_to_the_last_bit(self):
        for nu in (0.5, 1.9, 3.4):
            a = kernel_closed(nu, 0.7, 2.3, 0.21)
            b = kernel_closed(nu, 2.3, 0.7, 0.21)
            assert a.value == b.value

    def test_real_and_positive(self):
        for nu in (0.5, 1.0, 2.6):
            est = kernel_closed(nu, 1.2, 1.9, 0.15)
            assert est.value.imag == 0.0
            assert est.value.real > 0.0
            assert est.method == "closed_form"

    def test_agreement_with_spectral_improves_monotonically(self):
        # short-time validity: at a fixed interior point the relative
        # deviation from the (exact) spectral kernel shrinks along the
        # halving chain for every coupling in the canonical set
        for nu in (0.75, 1.0, 1.5, 2.0, 3.0):
            devs = []
            for lam in (0.4, 0.2, 0.1, 0.05):
                s = kernel_spectral(nu, 0.7, 0.7, lam).real
                c = kernel_closed(nu, 0.7, 0.7, lam).real
                devs.append(abs(c - s) / abs(s))
            assert all(devs[i] > devs[i + 1] for i in range(len(devs) - 1)), (nu, devs)

    def test_diagonal_short_time_divergence(self):
        # on the diagonal the kernel grows like lambda^{-1/2}: successive
        # halvings approach the ratio sqrt(2) from within a few percent
        nu, theta = 1.7, 1.3
        lams = [2.0 ** (-k) for k in range(8, 12)]
        ratios = [
            kernel_closed(nu, theta, theta, lam / 2.0).real / kernel_closed(nu, theta, theta, lam).real
            for lam in lams
        ]
        gaps = [abs(r / math.sqrt(2.0) - 1.0) for r in ratios]
        assert gaps[0] < 0.01
        assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))


class TestAdditionFormula:
    def test_identity_at_reference_points(self):
        for nu, ta, tb, lam in (
            (1.0, 1.0, 1.4, 0.5),
            (2.3, 0.9, 1.1, 0.05),
            (4.0, 2.0, 2.2, 0.02),
            # large coupling: the normalisation must neither overflow nor lose its low bits
            (150.0, 1.0, 1.1, 0.01),
            (200.0, 1.0, 1.1, 0.1),
            (69.85101918954125, 0.6092189978534952, 0.46043301520215396, 0.006707087462415202),
        ):
            lhs = addition_formula_lhs(nu, ta, tb, lam)
            rhs = addition_formula_rhs(nu, ta, tb, lam)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_coincident_angles_need_no_special_casing(self):
        lhs = addition_formula_lhs(1.8, 1.234, 1.234, 0.1)
        rhs = addition_formula_rhs(1.8, 1.234, 1.234, 0.1)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_half_coupling_edge_gives_order_zero_bessel(self):
        # nu = 1/2 puts a zero-order Bessel on the product side; in-domain
        lhs = addition_formula_lhs(0.5, 1.1, 1.7, 0.2)
        rhs = addition_formula_rhs(0.5, 1.1, 1.7, 0.2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_brute_force_oracle(self):
        # naive 200-term evaluation with unscaled mpmath Bessel values
        nu, ta, tb, lam = 1.0, math.pi / 2.0, math.pi / 2.0, 1.0
        z = mpmath.mpf(1) / mpmath.mpf(lam)
        pref = (
            mpmath.mpf(2) ** (2 * nu) * mpmath.gamma(nu) ** 2
            / mpmath.sqrt(2 * mpmath.pi * lam)
            * (mpmath.sin(ta) * mpmath.sin(tb)) ** nu
            * mpmath.exp(-z)
        )
        total = mpmath.mpf(0)
        for n in range(200):
            coef = mpmath.factorial(n) * (nu + n) / mpmath.gamma(2 * nu + n)
            cn_a = mpmath.gegenbauer(n, nu, mpmath.cos(ta))
            cn_b = mpmath.gegenbauer(n, nu, mpmath.cos(tb))
            total += coef * mpmath.besseli(nu + n, z) * cn_a * cn_b
        oracle = float(pref * total)
        assert addition_formula_lhs(nu, ta, tb, lam) == pytest.approx(oracle, rel=1e-10)

    def test_monotone_term_convergence(self):
        # partial sums approach the product side monotonically for these
        # arguments (positive-term tail); stay above the saturation floor
        # the identity reaches near N ~ 16
        nu, ta, tb, lam = 1.5, 1.3, 1.3, 0.5
        rhs = addition_formula_rhs(nu, ta, tb, lam)
        gaps = [
            abs(addition_formula_lhs(nu, ta, tb, lam, n_terms=n) - rhs) for n in (2, 4, 6, 8, 10, 12)
        ]
        assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))

    def test_default_term_count_scales_with_z(self):
        assert addition_formula_terms(1.0) < addition_formula_terms(0.01)

    def test_overflowing_gegenbauer_factor_is_domain_error(self):
        # the series shares the spectral eigenbasis, and with it the table's float-range check
        with pytest.raises(DomainError, match="eigenfunction table"):
            addition_formula_lhs(174.88144506991665, 0.14212629477216182, 0.05, 0.0013802466885361611)

    def test_seeded_fuzz_agrees_or_refuses(self):
        # nu log-uniform in [0.5, 300], lambda = 10^U(-3, 0), theta' within a
        # few sqrt(lambda) of theta: each point matches the product side or is
        # refused with a DomainError, never an overflow or a silent mismatch
        rng = np.random.default_rng(7)
        refused = 0
        for _ in range(200):
            nu = math.exp(rng.uniform(math.log(0.5), math.log(300.0)))
            lam = 10.0 ** rng.uniform(-3.0, 0.0)
            theta = rng.uniform(0.05, math.pi - 0.05)
            theta_p = theta + rng.uniform(-1.0, 1.0) * min(1.0, 3.0 * math.sqrt(lam))
            theta_p = min(max(theta_p, 0.05), math.pi - 0.05)
            try:
                lhs = addition_formula_lhs(nu, theta, theta_p, lam)
            except DomainError:
                refused += 1
                continue
            rhs = addition_formula_rhs(nu, theta, theta_p, lam)
            assert abs(lhs - rhs) <= 1e-10 * rhs + 1e-300, (nu, theta, theta_p, lam, lhs, rhs)
        assert refused < 10
