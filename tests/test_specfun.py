"""Special-function layer: checked against scipy and mpmath as independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from boxkernel import (
    DomainError,
    bessel_i_scaled,
    gegenbauer_table,
)
from boxkernel.errors import _MAX_TERMS

mpmath.mp.dps = 40


class TestGegenbauer:
    def test_degree_zero_and_one(self):
        for nu in (0.5, 1.0, 2.7):
            for x in (-1.0, -0.3, 0.0, 0.9, 1.0):
                seq = gegenbauer_table(1, nu, x)
                assert seq[0] == 1.0
                assert seq[1] == pytest.approx(2.0 * nu * x, rel=1e-15)

    def test_chebyshev_u_reduction_at_nu_1(self):
        # C_n^1(cos t) sin t = sin((n+1) t); at t = pi/3, n = 2 the value is 0.
        theta = math.pi / 3.0
        seq = gegenbauer_table(2, 1.0, math.cos(theta))
        assert seq[2] * math.sin(theta) == pytest.approx(0.0, abs=1e-14)
        for theta in np.linspace(0.05, math.pi - 0.05, 17):
            seq = gegenbauer_table(50, 1.0, math.cos(theta))
            for n in range(51):
                assert seq[n] * math.sin(theta) == pytest.approx(
                    math.sin((n + 1) * theta), abs=1e-12
                )

    def test_value_at_unit_argument(self):
        # C_n^nu(1) = Gamma(n + 2 nu) / (n! Gamma(2 nu)); this is the envelope
        # the spectral truncation bound relies on.
        for nu in (0.5, 1.0, 1.6, 2.7):
            seq = gegenbauer_table(40, nu, 1.0)
            for n in (0, 1, 7, 23, 40):
                expected = math.exp(math.lgamma(n + 2.0 * nu) - math.lgamma(n + 1.0) - math.lgamma(2.0 * nu))
                assert seq[n] == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        nu=st.floats(min_value=0.5, max_value=5.0),
        x=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_recurrence_matches_scipy(self, nu, x):
        # the oracle is mpmath: next to a zero crossing scipy's eval_gegenbauer is the less accurate
        # of the two (at nu = 3.782, x = -0.798, n = 22 it is off by 9.1e-12, the recurrence by 2.3e-12);
        # zeroprec lets mpmath return the exact zeros of the odd degrees at x = 0
        seq = gegenbauer_table(30, nu, x)
        ref = np.array([float(mpmath.gegenbauer(n, nu, x, zeroprec=400)) for n in range(31)])
        assert_allclose(seq, ref, rtol=5e-12, atol=1e-12)

    def test_table_matches_sequence(self):
        # the array recurrence (the spectral profile's) against the scalar-x one (the mode sums' columns)
        xs = np.linspace(-1.0, 1.0, 9)
        table = gegenbauer_table(12, 1.7, xs)
        for j, x in enumerate(xs):
            assert_allclose(table[:, j], gegenbauer_table(12, 1.7, float(x)), rtol=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gegenbauer_table(3, 1.0, 1.2)
        with pytest.raises(DomainError):
            gegenbauer_table(-1, 1.0, 0.5)

    def test_degree_count_is_an_integer(self):
        # a float count is refused by name, not by numpy's TypeError; a numpy integer is a count
        for nmax in (2.5, -1):
            with pytest.raises(DomainError, match=rf"^nmax must be nonnegative \(an integer\), got {nmax}$"):
                gegenbauer_table(nmax, 1.0, 0.5)
        assert gegenbauer_table(np.int64(3), 1.7, 0.5).tolist() == gegenbauer_table(3, 1.7, 0.5).tolist()

    def test_a_row_past_the_term_cap_is_refused_before_it_is_built(self):
        # nmax = 10**9 grew memory until the process was killed; a row holds at most _MAX_TERMS degrees
        for nmax in (_MAX_TERMS, 10**9):
            with pytest.raises(DomainError, match=rf"^nmax must be nonnegative and at most {_MAX_TERMS - 1}, got {nmax}$"):
                gegenbauer_table(nmax, 1.0, 0.5)
        assert len(gegenbauer_table(_MAX_TERMS - 1, 1.0, 0.5)) == _MAX_TERMS

    def test_coupling_and_argument_are_checked(self):
        # nu = NaN and nu = 0.1 returned values, an x of NaN a column of NaNs
        for nu in (math.nan, 0.1):
            with pytest.raises(DomainError, match=rf"^coupling nu must satisfy nu >= 1/2, got {nu}$"):
                gegenbauer_table(3, nu, 0.5)
        with pytest.raises(DomainError, match=r"^Gegenbauer argument must lie in \[-1, 1\]$"):
            gegenbauer_table(3, 2.5, np.array([0.5, math.nan]))


def per_step_rows(nmax, nu, x):
    """The recurrence written out step by step: the reference for ``gegenbauer_table``, which must give the
    same floats."""
    rows = [1.0 + 0.0 * x]
    if nmax >= 1:
        rows.append(2.0 * nu * x)
    for n in range(1, nmax):
        rows.append((2.0 * (n + nu) * x * rows[n] - (n + 2.0 * nu - 1.0) * rows[n - 1]) / (n + 1.0))
    return rows


class TestCoefficientList:
    # each row of the table, for a float x and for an array x alike, is by repr the recurrence written
    # out step by step

    @staticmethod
    def cases():
        rng = np.random.default_rng(26)
        cases = [(nmax, nu) for nmax in (0, 1, 2) for nu in (0.5, 1.0, 2.7)]
        return cases + [(int(rng.integers(0, 401)), float(rng.uniform(0.5, 20.0))) for _ in range(40)]

    def test_float_rows(self):
        rng = np.random.default_rng(260)
        for nmax, nu in self.cases():
            for x in rng.uniform(-1.0, 1.0, 3).tolist():
                rows = gegenbauer_table(nmax, nu, x)
                assert list(map(repr, rows.tolist())) == list(map(repr, per_step_rows(nmax, nu, x))), (nmax, nu)

    def test_array_rows(self):
        rng = np.random.default_rng(261)
        for nmax, nu in self.cases():
            x = rng.uniform(-1.0, 1.0, 5)
            with np.errstate(over="ignore", invalid="ignore"):  # a large nu leaves the float range, in both
                rows = gegenbauer_table(nmax, nu, x)
                reference = per_step_rows(nmax, nu, x)
            assert rows.shape == (nmax + 1, 5)
            assert [repr(row.tolist()) for row in rows] == [repr(row.tolist()) for row in reference], (nmax, nu)


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

