"""Special-function layer: checked against scipy and mpmath as independent oracles."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkernel import DomainError, bessel_i_scaled

mpmath.mp.dps = 40


class TestBesselIScaled:
    def test_half_integer_closed_forms(self):
        # I_{1/2}(z) = sqrt(2/(pi z)) sinh z, I_{3/2}(z) = sqrt(2/(pi z)) (cosh z - sinh z / z)
        for z in (0.05, 0.4, 3.0, 30.0, 250.0):
            ref_half = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z) * math.exp(-z)
            ref_3half = math.sqrt(2.0 / (math.pi * z)) * (math.cosh(z) - math.sinh(z) / z) * math.exp(-z)
            assert bessel_i_scaled(0.5, z) == pytest.approx(ref_half, rel=1e-12)
            assert bessel_i_scaled(1.5, z) == pytest.approx(ref_3half, rel=1e-12)

    def test_zero_order_small_argument_limit(self):
        # e^{-z} I_0(z) -> 1 as z -> 0+
        assert bessel_i_scaled(0.0, 1e-12) == pytest.approx(1.0, rel=1e-10)

    def test_against_scipy_over_validated_envelope(self):
        # orders <= 50, z up to 1e6; the reference is mpmath, since the code
        # under test is scipy's ive
        orders = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.7, 6.0, 10.0, 20.5, 35.0, 50.0]
        zs = [1e-2, 0.1, 1.0, 5.0, 20.0, 35.9, 36.0, 36.1, 50.0, 1e2, 4e2, 1e3,
              2.4e3, 2.5e3, 2.6e3, 1e4, 1e5, 1e6]
        for mu in orders:
            for z in zs:
                ref = float(mpmath.besseli(mu, z) * mpmath.exp(-z))
                assert bessel_i_scaled(mu, z) == pytest.approx(ref, rel=1e-10), (mu, z)

    def test_against_mpmath_beyond_scipy_habits(self):
        # high orders reached by the addition-formula sums, and a large order at
        # large argument inside the documented z <= 1e6 range
        for mu, z in ((80.0, 0.5), (120.0, 30.0), (260.0, 100.0), (400.0, 100.0), (1000.0, 9e5)):
            ref = float(mpmath.besseli(mu, z) * mpmath.exp(-z))
            mine = bessel_i_scaled(mu, z)
            if ref == 0.0:
                assert mine == 0.0
            else:
                assert mine == pytest.approx(ref, rel=1e-11)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        mu=st.floats(min_value=1.0, max_value=50.0),
        logz=st.floats(min_value=-2.0, max_value=6.0),
    )
    def test_recurrence_invariant(self, mu, logz):
        # I_{mu-1}(z) - I_{mu+1}(z) = (2 mu / z) I_mu(z), in scaled form.
        z = 10.0 ** logz
        lhs = bessel_i_scaled(mu - 1.0, z) - bessel_i_scaled(mu + 1.0, z)
        rhs = 2.0 * mu / z * bessel_i_scaled(mu, z)
        if rhs != 0.0:
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_recurrence_across_the_seam(self):
        for mu in (1.0, 2.5, 6.0, 20.5, 50.0):
            for z in (30.0, 36.0, 42.0, mu * mu * 0.98 + 1.0, mu * mu * 1.02 + 1.0):
                lhs = bessel_i_scaled(mu - 1.0, z) - bessel_i_scaled(mu + 1.0, z)
                rhs = 2.0 * mu / z * bessel_i_scaled(mu, z)
                assert lhs == pytest.approx(rhs, rel=1e-9), (mu, z)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_i_scaled(1.0, 0.0)
        with pytest.raises(DomainError):
            bessel_i_scaled(1.0, -2.0)
        with pytest.raises(DomainError):
            bessel_i_scaled(-0.5, 1.0)
        with pytest.raises(DomainError, match="not a number"):  # ive returns NaN past its order range
            bessel_i_scaled(1e16, 7.0)

