"""Closed-form kernel and the addition identity.

The unit-coupling reduction is derived independently here from the sinh form
of the half-order Bessel function:

    K^(1)(theta, theta'; lambda)
      = e^{-lambda/8} / sqrt(2 pi lambda)
        * [ exp(-(1 - cos(theta-theta'))/lambda) - exp(-(1 - cos(theta+theta'))/lambda) ].

(The e^{-lambda/8} prefactor follows from the algebra; the printed source has
the opposite sign on that exponent, see the convergence notes.)
"""

import bisect
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest

from scipy.special import ive

from boxkernel import (
    DomainError,
    eigenfunctions,
    kernel_spectral,
    addition_formula_lhs,
    addition_formula_rhs,
    addition_formula_terms,
    kernel_closed,
)
from boxkernel.closedform import _LOG_SERIES_TAIL, _log_term_bounds, _series_cap, _series_length

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

    def test_lambda_outside_its_domain_rejected(self):
        for lam in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(DomainError, match="lambda must be positive and finite"):
                kernel_closed(1.5, 1.0, 1.2, lam)

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

    def test_term_count_must_be_a_positive_integer(self):
        for bad in (2.5, 0, -3):
            with pytest.raises(DomainError, match="n_terms"):
                addition_formula_lhs(1.0, 1.0, 1.2, 0.1, n_terms=bad)
        assert addition_formula_lhs(1.0, 1.0, 1.2, 0.1, n_terms=np.int64(3)) == addition_formula_lhs(1.0, 1.0, 1.2, 0.1, n_terms=3)

    def test_default_term_count_scales_with_z(self):
        assert addition_formula_terms(1.0) < addition_formula_terms(0.01)

    def test_overflowing_gegenbauer_factor_is_domain_error(self):
        # the series shares the spectral eigenbasis, whose Gegenbauer factor leaves the float range by
        # n = 1,086 here; the recurrence on the bounded phi_n meets the product side (2.8e-13 relative)
        args = (174.88144506991665, 0.14212629477216182, 0.05, 0.0013802466885361611)
        lhs, rhs = addition_formula_lhs(*args), addition_formula_rhs(*args)
        assert math.isfinite(lhs) and rhs > 0.0
        assert abs(lhs - rhs) <= 1e-8 * rhs

    def test_seeded_fuzz_agrees_or_refuses(self):
        # nu log-uniform in [0.5, 300], lambda = 10^U(-3, 0), theta' within a
        # few sqrt(lambda) of theta: each point matches the product side or is
        # refused with a DomainError, never an overflow or a silent mismatch;
        # with the eigenfunctions bounded, none of these is refused
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
        assert refused == 0

    def test_relative_accuracy_near_a_wall(self):
        # the series stops at 2^-60 of its first term's envelope, an absolute target; near a wall, at large
        # nu, the value is hundreds of orders below that envelope and still matches the product side to
        # ~1e-12 of itself (6.7e-13 at worst), only because the envelope C_n^nu(1) is loose there: with
        # (m + nu) in place of (A_m / A_0)^2 in the length bound, 59 of these 61 points failed (0.0 against
        # 6.4e-291 at nu = 186).  A sharper envelope needs a stopping rule relative to the value
        rng = np.random.default_rng(16)
        checked = 0
        for i in range(200):
            nu = math.exp(rng.uniform(math.log(20.0), math.log(1e4)))
            theta = math.exp(rng.uniform(math.log(1e-3), math.log(0.3)))
            theta_p = theta * math.exp(rng.uniform(-0.5, 0.5))
            if i % 2:
                theta, theta_p = math.pi - theta, math.pi - theta_p
            lam = math.exp(rng.uniform(math.log(5e-4), math.log(0.05)))
            rhs = addition_formula_rhs(nu, theta, theta_p, lam)
            if sys.float_info.min <= rhs < math.inf:
                lhs = addition_formula_lhs(nu, theta, theta_p, lam)
                assert abs(lhs - rhs) <= 1e-10 * rhs, (nu, theta, theta_p, lam, lhs, rhs)
                checked += 1
        assert checked >= 40


class TestAdditionSeriesLength:
    """The default length stops where a proven tail majorant is 2^-60 of the first term's envelope."""

    def test_amos_ratio_bound(self):
        # I_{m+1}(z) / I_m(z) <= exp(-asinh((m + 1/2) / z)), the step of the Bessel factor's majorant
        rng = np.random.default_rng(1974)
        for _ in range(60):
            m = mpmath.mpf(math.exp(rng.uniform(math.log(0.5), math.log(1e3))))
            z = mpmath.mpf(math.exp(rng.uniform(math.log(1e-2), math.log(1e5))))
            ratio = mpmath.besseli(m + 1, z) / mpmath.besseli(m, z)
            assert ratio <= mpmath.exp(-mpmath.asinh((m + 0.5) / z)), (m, z)

    def test_majorant_bounds_the_dropped_terms(self):
        # nu log-uniform in [0.5, 300], lambda in [5e-4, 30], any angles: the terms from N to the cap
        # sum to at most 2^-60 t_0, with t_0 = sqrt(2 pi / lambda) e^{-z} I_nu(z) A_0^2 the first term's envelope
        rng = np.random.default_rng(60)
        # every point is checked: the eigenfunction table stays finite up to the cap
        checked = 0
        for _ in range(40):
            nu = math.exp(rng.uniform(math.log(0.5), math.log(300.0)))
            lam = math.exp(rng.uniform(math.log(5e-4), math.log(30.0)))
            ta, tb = rng.uniform(1e-3, math.pi - 1e-3, 2)
            n, cap = _series_length(nu, lam), addition_formula_terms(lam)
            full = addition_formula_lhs(nu, ta, tb, lam, n_terms=cap)
            log_a0_sq = nu * math.log(4.0) + 2.0 * math.lgamma(nu) + math.log(nu) - math.log(2.0 * math.pi) - math.lgamma(2.0 * nu)
            bound = 2.0 ** -60 * math.sqrt(2.0 * math.pi / lam) * ive(nu, 1.0 / lam) * math.exp(log_a0_sq)
            terms = ive(nu + np.arange(n, cap), 1.0 / lam) * (eigenfunctions(cap - 1, nu, ta) * eigenfunctions(cap - 1, nu, tb))[n:]
            assert math.sqrt(2.0 * math.pi / lam) * math.fsum(np.abs(terms).tolist()) <= bound, (nu, ta, tb, lam)
            assert abs(addition_formula_lhs(nu, ta, tb, lam) - full) <= bound + math.ulp(full), (nu, ta, tb, lam)
            checked += 1
        assert checked == 40

    def test_benchmark_and_suite_inputs_are_bitwise_the_capped_series(self):
        # the 12 addition inputs of the crosscheck benchmark (seed 1) and the 40 of the verify addition suite
        rng = np.random.default_rng(1)
        inputs = []
        for lam in (0.1, 0.01, 0.002):
            for _ in range(4):
                ta = rng.uniform(0.2, math.pi - 0.2)
                tb = min(max(ta + rng.uniform(-1.0, 1.0) * min(1.0, 3.0 * math.sqrt(lam)), 0.1), math.pi - 0.1)
                inputs.append((2.7, ta, tb, lam))
        rng = np.random.default_rng(20240)
        for _ in range(40):
            nu, lam, ta = rng.uniform(0.5, 4.0), 1.0 / rng.uniform(0.5, 100.0), rng.uniform(0.2, math.pi - 0.2)
            tb = min(max(ta + rng.uniform(-1.0, 1.0) * min(1.0, 3.0 * math.sqrt(lam)), 0.1), math.pi - 0.1)
            inputs.append((nu, ta, tb, lam))
        for nu, ta, tb, lam in inputs:
            assert _series_length(nu, lam) < addition_formula_terms(lam)
            assert addition_formula_lhs(nu, ta, tb, lam) == addition_formula_lhs(nu, ta, tb, lam, n_terms=addition_formula_terms(lam))

    def test_bisection_finds_the_first_length_a_linear_scan_finds(self):
        # the bisection is right only if its predicate, once met, stays met up to the cap: on 500 seeded
        # points, nu log-uniform in [0.5, 1e4] and lambda in [1e-4, 30], it returns the first N in
        # [1, cap] a scan meets, or the cap where none does
        rng = np.random.default_rng(500)
        for _ in range(500):
            nu = math.exp(rng.uniform(math.log(0.5), math.log(1e4)))
            lam = math.exp(rng.uniform(math.log(1e-4), math.log(30.0)))
            z, cap = 1.0 / lam, addition_formula_terms(lam)
            log_term_bound = _log_term_bounds(nu, z)
            first, log_t = cap, log_term_bound(1)
            for n in range(1, cap + 1):
                log_next = log_term_bound(n + 1)
                log_r = log_next - log_t
                if log_r < 0.0 and log_t - math.log(-math.expm1(log_r)) <= _LOG_SERIES_TAIL:
                    first = n
                    break
                log_t = log_next
            assert _series_length(nu, lam) == first, (nu, lam)

    def test_the_search_constants_change_no_length(self):
        # the bound's terms at m = 0 and the envelope's constant are computed once per search: on 3,000 seeded points, nu log-uniform in
        # [0.5, 1e4] and lambda in [1e-4, 30], the length is the one of a search that forms them at every
        # probe, as each bound did, and so are the bounds, by repr
        def log_envelope(n, nu):  # log A_n as one expression, its constant formed at every call
            return (nu * math.log(2.0) + math.lgamma(nu) - math.lgamma(2.0 * nu) - 0.5 * math.log(2.0 * math.pi)
                    + 0.5 * math.log(n + nu) + 0.5 * (math.lgamma(n + 2.0 * nu) - math.lgamma(n + 1.0)))

        def log_term_bound(m, nu, z):
            a, b = nu, nu + m
            log_bessel = -(b * math.asinh(b / z) - a * math.asinh(a / z) - (b - a) * (b + a) / (math.hypot(b, z) + math.hypot(a, z)))
            return log_bessel + 2.0 * (log_envelope(float(m), nu) - log_envelope(0.0, nu))

        def series_length(nu, lam):
            z, cap = 1.0 / lam, _series_cap(lam)

            def meets(n):
                log_t = log_term_bound(n, nu, z)
                log_r = log_term_bound(n + 1, nu, z) - log_t
                return log_r < 0.0 and log_t - math.log(-math.expm1(log_r)) <= _LOG_SERIES_TAIL

            return min(cap, 1 + bisect.bisect_left(range(1, cap + 1), True, key=meets))

        rng = np.random.default_rng(3000)
        for _ in range(3000):
            nu = math.exp(rng.uniform(math.log(0.5), math.log(1e4)))
            lam = math.exp(rng.uniform(math.log(1e-4), math.log(30.0)))
            n = _series_length(nu, lam)
            assert n == series_length(nu, lam), (nu, lam)
            bound = _log_term_bounds(nu, 1.0 / lam)
            assert [repr(bound(m)) for m in (1, 2, n, n + 1)] == [repr(log_term_bound(m, nu, 1.0 / lam)) for m in (1, 2, n, n + 1)]

    def test_length_grows_like_inverse_sqrt_lambda(self):
        # a hundredfold smaller lambda: ~10x the terms (sqrt(z log(1/eps))), where the cap takes 43x
        assert _series_length(2.7, 1e-4) / _series_length(2.7, 1e-2) < 15.0
        assert addition_formula_terms(1e-4) / addition_formula_terms(1e-2) > 43.0

    def test_the_cap_is_kept_where_the_bound_is_not_met(self):
        # at nu = 1e5 the envelope C_n^nu(1) outgrows the Bessel factor's decay up to the cap
        assert _series_length(1e5, 1e-3) == addition_formula_terms(1e-3)

    def test_term_bound_past_the_float_range_is_domain_error(self):
        # below lambda ~ 1.08e-19 the cap is past sys.maxsize, which the length bisection cannot index:
        # that was an OverflowError relabelled as the term bound leaving the float range at nu
        for lam in (1e-20, 1e-310, 5e-324):
            with pytest.raises(DomainError, match=r"^addition series: at lambda = .* past the largest index"):
                addition_formula_lhs(2.5, 1.0, 1.0, lam)
            with pytest.raises(DomainError, match="addition series"):
                addition_formula_terms(lam)

    def test_series_longer_than_the_term_cap_is_refused_before_any_array(self, monkeypatch):
        # nu = 2.5 at lambda = 1e-14 resolves 170,811,661 terms, several float64 arrays of ~1.4 GB each;
        # both the resolved length and an explicit n_terms refuse above spectral._MAX_TERMS = 100,000
        from boxkernel import closedform

        def no_arrays(*args):
            raise AssertionError("an array builder ran")

        monkeypatch.setattr(closedform, "_bessel_i_scaled_orders", no_arrays)
        monkeypatch.setattr(closedform, "_mode_sums", no_arrays)
        assert _series_length(2.5, 1e-14) == 170_811_661
        with pytest.raises(DomainError, match=r"^addition series: 170811661 terms .* past the cap of 100000$"):
            addition_formula_lhs(2.5, 1.0, 1.0, 1e-14)
        with pytest.raises(DomainError, match=r"^n_terms must be an integer in \[1, 100000\], got 100001$"):
            addition_formula_lhs(2.5, 1.0, 1.0, 0.1, n_terms=100_001)

    def test_norms_past_float_precision_refuse_without_a_warning(self):
        # from nu ~ 1e16 a log1p ratio of the norms is -inf; the table check refuses, numpy stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="eigenfunction table"):
                addition_formula_lhs(1e17, 1.0, 1.0, 0.1)
