"""Spectral route: eigenbasis, tail bound, and the expansion kernel.

The nu = 1 sine series is the independent oracle throughout: at unit coupling
the eigenfunctions reduce to sqrt(2/pi) sin((n+1) theta) and the kernel to the
free-box Dirichlet series, both coded here from scratch.
"""

import dataclasses
import inspect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxkernel import (
    DomainError,
    PolicyUnresolvableError,
    TruncationPolicy,
    addition_formula_lhs,
    eigenfunctions,
    kernel_spectral,
    truncation_tail_bound,
)
from boxkernel import closedform, spectral
from boxkernel.spectral import _ARRAY_MIN_ANGLES, _mode_weights, _resolve, _spectral_chain, kernel_spectral_profile


def sine_series_kernel(theta_a, theta_b, lam, n_terms=400):
    """Free-box (nu = 1) kernel straight from the sine eigenbasis."""
    return math.fsum(
        2.0 / math.pi * math.exp(-lam * (n + 1) ** 2 / 2.0)
        * math.sin((n + 1) * theta_a) * math.sin((n + 1) * theta_b)
        for n in range(n_terms)
    )


def mp_phi(n, nu, theta):
    """phi_n(theta) from its closed form, Gegenbauer polynomial and norm at mpmath's working precision."""
    nu, theta = mpmath.mpf(nu), mpmath.mpf(theta)
    log_norm = nu * mpmath.log(2) + mpmath.loggamma(nu) + (
        mpmath.log(n + nu) + mpmath.loggamma(n + 1) - mpmath.loggamma(n + 2 * nu) - mpmath.log(2 * mpmath.pi)) / 2
    return mpmath.exp(log_norm) * mpmath.sin(theta) ** nu * mpmath.gegenbauer(n, nu, mpmath.cos(theta))


def mp_kernel(nu, theta_a, theta_b, lam, n_terms):
    """The spectral sum of ``n_terms`` modes at mpmath's working precision: the Gegenbauer recurrence and
    the norms' gamma-function ratios, whose exponent range holds what a float table underflows."""
    nu, lam = mpmath.mpf(nu), mpmath.mpf(lam)
    columns = []
    for theta in (theta_a, theta_b):
        x, amplitude = mpmath.cos(mpmath.mpf(theta)), mpmath.sin(mpmath.mpf(theta)) ** nu
        prev, cur, column = mpmath.mpf(0), mpmath.mpf(1), []
        for n in range(n_terms):
            column.append(amplitude * cur)
            prev, cur = cur, (2 * (n + nu) * x * cur - (n + 2 * nu - 1) * prev) / (n + 1)
        columns.append(column)
    log_norm0 = nu * mpmath.log(2) + mpmath.loggamma(nu) - (mpmath.loggamma(2 * nu) + mpmath.log(2 * mpmath.pi)) / 2
    total, ratio = mpmath.mpf(0), mpmath.exp(2 * log_norm0)  # N_n^2 = (n + nu) * ratio, ratio = N_0^2 n! Gamma(2nu) / (nu Gamma(n + 2nu))
    for n in range(n_terms):
        total += mpmath.exp(-lam * (n + nu) ** 2 / 2) * ratio * (n + nu) * columns[0][n] * columns[1][n]
        ratio *= (n + 1) / (n + 2 * nu)
    return total


def gegenbauer_rows(nmax, nu, x):
    """C_0^nu(x) .. C_nmax^nu(x) by the upward three-term recurrence

        (n+1) C_{n+1} = 2 (n+nu) x C_n - (n + 2 nu - 1) C_{n-1},  C_0 = 1, C_1 = 2 nu x,

    stable on [-1, 1] for nu >= 1/2 but past the float range at large n and nu.  Not scipy's
    eval_gegenbauer: next to a zero crossing that is the less accurate of the two (at nu = 3.782, x = -0.798,
    n = 22 it is off by 9.1e-12 against mpmath, the recurrence by 2.3e-12)."""
    rows = [1.0 + 0.0 * x]
    if nmax >= 1:
        rows.append(2.0 * nu * x)
    for n in range(1, nmax):
        rows.append((2.0 * (n + nu) * x * rows[n] - (n + 2.0 * nu - 1.0) * rows[n - 1]) / (n + 1.0))
    return rows


def gegenbauer_times_norm(nmax, nu, thetas):
    """The eigenbasis as the Gegenbauer factor times exp(log N_n + nu log sin theta), log N_n a running sum of
    log1p ratios: the two-pass form the table's one recurrence replaced, a reference wherever C_n^nu is finite."""
    n = np.arange(nmax + 1, dtype=float)
    log_ratio = np.concatenate(([0.0], np.cumsum(np.log1p((1.0 - 2.0 * nu) / (n[:-1] + 2.0 * nu)))))
    log_norms = nu * math.log(2.0) + math.lgamma(nu) - 0.5 * (math.lgamma(2.0 * nu) + math.log(2.0 * math.pi)) + 0.5 * (np.log(n + nu) + log_ratio)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return np.exp(np.add.outer(nu * np.log(np.sin(thetas)), log_norms)) * np.array(gegenbauer_rows(nmax, nu, np.cos(thetas))).T


def both_forms(nmax, nu, thetas, monkeypatch):
    """The table of ``thetas`` in its scalar form and in its array form, whatever the angle count."""
    tables = []
    for threshold in (math.inf, 1):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_ARRAY_MIN_ANGLES", threshold)
            tables.append(spectral._eigenfunction_table(nmax, nu, thetas))
    return tables


class TestEigenfunction:
    def test_log_norms_against_mpmath_at_the_mode_cap(self):
        # the table recurs on phi_n from phi_0 = N_0 sin^nu theta, so its norms are built into each step:
        # against phi_n's closed form (30 digits) up to n = 4096 the error stays ~1e-14 sqrt(n + nu), where
        # the two log-gammas of N_n alone are ~3e4 each, and up to nu = 1000, where C_n^nu leaves the float
        # range.  At nu = 1000, theta = 2.9, phi_0 ~ 1e-622 underflows and phi_4095 ~ 0.56 grows back
        rng = np.random.default_rng(29)
        degrees = [0, 1, 2, 3, 17, 4095, 4096] + rng.integers(4, 4096, 3).tolist()
        with mpmath.workdps(30):
            for nu in (0.75, 2.5, 7.3, 1000.0):
                for theta in (0.05, 1.1, 2.9):
                    row = eigenfunctions(4096, nu, theta)
                    for n in degrees:
                        err = abs(row[n] - float(mp_phi(n, nu, theta)))
                        assert err <= 2e-13 * math.sqrt(n + nu), (nu, theta, n, err)

    def test_norms_are_built_once_per_block(self, monkeypatch):
        # one table per call: a row per distinct angle of a chain, and the node table and the source row of a profile
        calls = []
        table = spectral._eigenfunction_table
        monkeypatch.setattr(spectral, "_eigenfunction_table", lambda nmax, nu, thetas: calls.append((nmax, len(thetas))) or table(nmax, nu, thetas))
        _spectral_chain(2.5, [(0.4, 1.1), (1.1, 2.0), (2.0, 0.4)], [0.05], None)
        kernel_spectral_profile(2.5, 0.4, np.array([1.1, 2.0]), 0.05)
        n_terms = len(_mode_weights(2.5, [0.05], None)[0][0])
        assert calls == [(n_terms - 1, 3), (n_terms - 1, 2), (n_terms - 1, 1)]

    def test_norms_refuse_past_their_accurate_range(self, monkeypatch):
        # N_0's log error grows like eps * lgamma(2 nu): ~1e-11 up to nu = 1e4, orders of magnitude at 1e15.
        # The table refuses, and both mode sums refuse before any tail bound or series length is computed:
        # at nu = 15000 the resolve scanned ~12 ms to its cap (exit 4), and at 1e160 and 1e306 it met the
        # weights' or the term bound's float range first
        calls = []
        monkeypatch.setattr(spectral, "_tail_bound", lambda *args: calls.append(args))
        monkeypatch.setattr(closedform, "_series_length", lambda *args: calls.append(args))
        for nu in (np.nextafter(1e4, np.inf), 15000.0, 1e15, 1e160, 1e306):
            with pytest.raises(DomainError, match="accurate for nu <= 10000 only"):
                spectral._eigenfunction_table(3, nu, [1.0])
            with pytest.raises(DomainError, match="^eigenfunction table: the normalisation is accurate for nu <= 10000 only"):
                eigenfunctions(3, nu, 1.0)
            for policy in (None, TruncationPolicy(n_cap=100_000), TruncationPolicy(n_terms=1)):
                with pytest.raises(DomainError, match="eigenfunction table: the normalisation is accurate for nu <= 10000 only"):
                    kernel_spectral(nu, math.pi / 2, math.pi / 2, 1e-4, policy)
                with pytest.raises(DomainError, match="eigenfunction table: the normalisation is accurate for nu <= 10000 only"):
                    kernel_spectral_profile(nu, 1.0, np.array([1.2, 2.0]), 1e-4, policy)
            for n_terms in (3, None):
                with pytest.raises(DomainError, match="eigenfunction table: the normalisation is accurate for nu <= 10000 only"):
                    addition_formula_lhs(nu, 1.0, 1.0, 1e-3, n_terms=n_terms)
        assert calls == []

    def test_values_up_to_the_orthonormality_range_are_unchanged(self):
        # the ceiling adds a refusal only: below it the values are these bits, within 5e-12 relative of the
        # eigenfunctions' closed form or the mode sum at 40 digits at nu = 1000, and within 5e-11 at the
        # ceiling (2.4e-11), the cancellation of N_0's log-gammas
        row = eigenfunctions(3, 1000.0, 1.5)
        assert row.tolist() == [0.3439230483405393, 1.0885319816334957, 2.1946146501496746, 3.126867510272038]
        fixed = kernel_spectral(1000.0, 1.5, 1.6, 1e-3, TruncationPolicy(n_terms=60)).real
        assert repr(fixed) == "5.002323954432467e-219"
        assert repr(kernel_spectral(1e4, 1.5, 1.6, 1e-6, TruncationPolicy(n_terms=5)).real) == "1.251034720588393e-28"
        with mpmath.workdps(40):
            assert all(abs(value / float(mp_phi(n, 1000.0, 1.5)) - 1.0) <= 5e-12 for n, value in enumerate(row))
            assert abs(fixed / float(mp_kernel(1000.0, 1.5, 1.6, 1e-3, 60)) - 1.0) <= 5e-12
            assert abs(kernel_spectral(1e4, 1.5, 1.6, 1e-6, TruncationPolicy(n_terms=5)).real / float(mp_kernel(1e4, 1.5, 1.6, 1e-6, 5)) - 1.0) <= 5e-11

    def test_nu1_reduces_to_sine_basis(self):
        assert eigenfunctions(0, 1.0, math.pi / 2)[0] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)
        assert eigenfunctions(1, 1.0, math.pi / 2)[1] == pytest.approx(0.0, abs=1e-13)
        for theta in np.linspace(0.1, math.pi - 0.1, 11):
            for n in (0, 3, 17):
                ref = math.sqrt(2.0 / math.pi) * math.sin((n + 1) * theta)
                assert eigenfunctions(n, 1.0, theta)[n] == pytest.approx(ref, abs=1e-13)

    def test_vanishes_like_sin_power_nu_at_the_wall(self):
        for nu in (0.5, 1.3, 2.7):
            r1 = eigenfunctions(0, nu, 1e-3)[0] / math.sin(1e-3) ** nu
            r2 = eigenfunctions(0, nu, 1e-5)[0] / math.sin(1e-5) ** nu
            assert r1 == pytest.approx(r2, rel=1e-6)

    @pytest.mark.parametrize(
        "thetas",
        [[1.1], [0.7, 2.3, 0.7], *(np.linspace(0.05, 3.09, k).tolist() for k in (_ARRAY_MIN_ANGLES - 1, _ARRAY_MIN_ANGLES, 40, 160))],
        ids=["one", "repeated", "below-array", "array", "forty", "one-sixty"],
    )
    def test_table_rows_are_the_eigenfunctions_by_repr(self, thetas, monkeypatch):
        # every eigenbasis is one table, whose recurrence form follows the angle count (a float per angle
        # below _ARRAY_MIN_ANGLES, one array from there on): each row must be bitwise the angle's own vector
        # and the other form's row, and the Gegenbauer factor times the norm to 1e-13 of the row's maximum
        for nu, nmax in ((1.0, 30), (2.7, 60), (0.75, 5), (3.5, 0)):
            table = spectral._eigenfunction_table(nmax, nu, thetas)
            by_floats, by_array = both_forms(nmax, nu, thetas, monkeypatch)
            assert table.shape == (len(thetas), nmax + 1)
            if len(thetas) >= _ARRAY_MIN_ANGLES:  # the array form: the (modes, angles) matrix of the quadrature checks
                assert table.T.flags.c_contiguous
            product = gegenbauer_times_norm(nmax, nu, thetas)
            for row, theta, float_row, array_row, reference in zip(table, thetas, by_floats, by_array, product):
                expected = list(map(repr, eigenfunctions(nmax, nu, theta)))
                assert list(map(repr, row)) == expected == list(map(repr, float_row)) == list(map(repr, array_row))
                assert np.abs(row - reference).max() <= 1e-13 * np.abs(row).max(), (nu, nmax, theta)

    def test_a_table_overflow_keeps_its_message(self):
        # the wall angle's C_n^nu leaves the float range; the recurrence on phi_n keeps every row finite,
        # the wall's row is the same bits in a table of one angle and of several, and a chain over several
        # pairs gives the scalar kernel's value, 0.0, as the sum at 40 digits does
        nu, wall, theta, lam = 90.733019776225, 1.1191147329250895e-08, 0.3725420803085231, 0.00012424117182030517
        scalar = kernel_spectral(nu, wall, theta, lam)
        assert scalar.real == 0.0 and scalar.terms_used == 3371 and scalar.tail_bound <= 1e-12
        [(_, _, values)] = _spectral_chain(nu, [(theta, theta), (wall, theta), (theta, 1.0)], [lam], None)
        assert repr(values[1]) == repr(scalar.real)
        one = spectral._eigenfunction_table(4000, nu, [wall])
        several = spectral._eigenfunction_table(4000, nu, [theta, wall, 1.0])
        assert np.isfinite(several).all() and list(map(repr, several[1])) == list(map(repr, one[0]))
        with mpmath.workdps(40):
            assert abs(mp_kernel(nu, wall, theta, lam, scalar.terms_used)) < 1e-300

    def test_near_wall_tables_are_finite_and_the_two_pass_product(self, monkeypatch):
        # seeded: nu log-uniform in [0.5, 1e4], angles log-uniform down to 1e-8 from either wall, n up to 4000,
        # 3 angles (the scalar form) or 30 (the array form).  Every table is finite and its two forms are
        # bitwise equal.  Wherever the Gegenbauer factor times the norm is finite and above 1e-290, the table
        # is within 1e-13 of the row maximum of it, plus the rounding of cos theta, which moves phi_n by up to
        # ~eps n^2 / (2 nu + 1) of that maximum next to a wall (2.8e-11 at nu = 11, n = 2385, against mpmath,
        # in both).  Where the two-pass product loses more (2.2e-9 at nu = 65, n = 2222, theta = pi - 3.05e-4),
        # phi_n's closed form decides
        rng = np.random.default_rng(2026)
        for _ in range(40):
            nu, nmax = math.exp(rng.uniform(math.log(0.5), math.log(1e4))), int(rng.integers(0, 4001))
            k = int(rng.choice([3, 30]))
            near = np.exp(rng.uniform(math.log(1e-8), 0.0, k))
            thetas = np.where(rng.random(k) < 0.5, near, math.pi - near)
            table = spectral._eigenfunction_table(nmax, nu, thetas)
            assert np.isfinite(table).all()
            assert all(np.array_equal(table, form) for form in both_forms(nmax, nu, thetas, monkeypatch))
            floor = 1e-13 + np.finfo(float).eps * nmax ** 2 / (2.0 * nu + 1.0)
            for theta, row, product in zip(thetas, table, gegenbauer_times_norm(nmax, nu, thetas)):
                compared = np.isfinite(product) & (np.abs(product) > 1e-290)
                gap = np.where(compared, np.abs(row - product), 0.0)
                n = int(np.argmax(gap))
                if gap[n] > floor * np.abs(row).max():
                    with mpmath.workdps(40):
                        assert abs(row[n] - float(mp_phi(n, nu, theta))) <= floor * np.abs(row).max(), (nu, theta, n)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @example(nmax=2, nu=0.5, theta=math.pi / 2.0)
    @given(
        nmax=st.integers(0, 4096),
        nu=st.one_of(st.floats(0.0, 4.0).map(lambda e: 10.0 ** e), st.floats(0.5, 1.0, exclude_max=True)),
        theta=st.one_of(
            st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
            st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e),
            st.floats(-15.0, -1.0).map(lambda e: math.pi - 10.0 ** e),
        ),
    )
    def test_rows_are_finite_and_within_agmons_bound(self, nmax, nu, theta):
        # nu log-uniform up to _MAX_NU, and below 1; theta anywhere, down to 1e-300 from the left wall and 1e-15
        # from the right.  Every phi_n is finite, and phi_n^2 is at most n + nu (Agmon's inequality, the bound the
        # eigenbasis leans on) up to rounding, below nu = 1 too: there phi_n^2 / (n + nu) peaks at the example,
        # nu = 1/2, n = 0, theta = pi/2, where N_0^2 = nu makes it an equality (3 eps above it on x86_64)
        row = eigenfunctions(nmax, nu, theta)
        assert row.shape == (nmax + 1,) and np.isfinite(row).all()
        assert (row ** 2 <= (np.arange(nmax + 1) + nu) * (1.0 + 4.0 * np.finfo(float).eps)).all()

    def test_block_matches_scalar(self):
        block = eigenfunctions(25, 1.8, 1.1)
        for n in (0, 9, 25):
            assert block[n] == pytest.approx(eigenfunctions(n, 1.8, 1.1)[n], rel=1e-14)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            eigenfunctions(0, 1.0, 0.0)
        with pytest.raises(DomainError):
            eigenfunctions(0, 1.0, math.pi)
        for nmax in (-1, 2.5):  # 2.5 built phi_0..phi_3
            with pytest.raises(DomainError, match="nmax must be nonnegative"):
                eigenfunctions(nmax, 1.0, 1.0)
        assert eigenfunctions(np.int64(3), 2.5, 1.0).tolist() == eigenfunctions(3, 2.5, 1.0).tolist()

    def test_a_row_past_the_term_cap_is_refused(self):
        # a row holds at most _MAX_TERMS modes, as a spectral sum does; a larger nmax is refused before any array
        for nmax in (spectral._MAX_TERMS, 10**12):
            with pytest.raises(DomainError, match=rf"^nmax must be nonnegative and at most {spectral._MAX_TERMS - 1}, got {nmax}$"):
                eigenfunctions(nmax, 1.0, 1.0)


class TestTruncationTailBound:
    def test_nonincreasing_in_n(self):
        bounds = [truncation_tail_bound(1.0, 0.5, n) for n in range(2, 40)]
        assert all(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1))

    def test_start_below_one_rejected(self):
        for n_start in (0, -1, 2.5):  # 2.5 gave inf
            with pytest.raises(DomainError, match="n_start >= 1"):
                truncation_tail_bound(1.0, 0.5, n_start)

    def test_goes_to_zero(self):
        assert truncation_tail_bound(1.3, 0.5, 200) < 1e-300

    def test_reference_point(self):
        assert truncation_tail_bound(1.0, 1.0, 30) < 1e-12

    def test_term_past_the_float_range_gives_inf(self):
        # exp(t_N) overflows here; +inf means "keep adding modes", like r_N >= 1
        assert truncation_tail_bound(168.28, 1.03e-4, 1642) == math.inf

    def test_weights_past_the_float_range_are_refused(self):
        # (n + nu)^2 overflows before any mode weight is formed: the refusal, not a raw OverflowError
        with pytest.raises(DomainError, match=r"^spectral sum: the mode weights leave the float range at nu = 1e\+200, lambda = 0\.1$"):
            truncation_tail_bound(1e200, 0.1, 3)

    def test_weights_past_the_log_gammas_range_are_refused_as_before(self):
        # past nu ~ 2.6e305 the envelope's constant overflows a log-gamma; (n + nu)^2 has left the float
        # range long before, and the refusal is that one, as when the constant was formed at each probe
        with pytest.raises(DomainError, match=r"^spectral sum: the mode weights leave the float range at nu = 1e\+306, lambda = 0\.1$"):
            truncation_tail_bound(1e306, 0.1, 3)

    def test_the_split_envelope_is_the_one_expression_by_repr(self):
        # log A_n is the per-coupling constant plus the per-n part, added in the order of the one
        # expression it replaces: on 3,000 seeded points, nu log-uniform in [0.5, 1e4] and n up to
        # _MAX_TERMS (and the ends of both ranges), it has that expression's bits
        def log_envelope(n, nu):
            return (nu * math.log(2.0) + math.lgamma(nu) - math.lgamma(2.0 * nu) - 0.5 * math.log(2.0 * math.pi)
                    + 0.5 * math.log(n + nu) + 0.5 * (math.lgamma(n + 2.0 * nu) - math.lgamma(n + 1.0)))

        rng = np.random.default_rng(27)
        points = [(nu, n) for nu in (0.5, 1e4) for n in (0, 1, spectral._MAX_TERMS)]
        points += [(math.exp(rng.uniform(math.log(0.5), math.log(1e4))), int(rng.integers(0, spectral._MAX_TERMS + 1)))
                   for _ in range(3000)]
        for nu, n in points:
            split = spectral._log_envelope(float(n), nu, spectral._log_coupling(nu))
            assert repr(split) == repr(log_envelope(float(n), nu)), (nu, n)

    def test_bound_is_a_true_bound(self):
        # extending the truncated sum by 200 extra modes moves the value by
        # less than the reported bound
        for nu, lam in ((1.0, 0.3), (2.7, 0.8), (0.5, 0.15)):
            for ta, tb in ((1.0, 1.0), (0.4, 2.6)):
                short = kernel_spectral(nu, ta, tb, lam, TruncationPolicy(n_terms=12))
                long = kernel_spectral(nu, ta, tb, lam, TruncationPolicy(n_terms=212))
                assert abs(long.real - short.real) <= short.tail_bound


class TestKernelSpectral:
    def test_symmetry_exact(self):
        a = kernel_spectral(1.7, 0.9, 2.2, 0.4)
        b = kernel_spectral(1.7, 2.2, 0.9, 0.4)
        assert a.value == b.value
        # both mode sums, the spectral kernel and the addition series, bit for bit at seeded points
        rng = np.random.default_rng(31)
        for _ in range(40):
            nu, lam, lam_add = rng.uniform(0.5, 20.0), 10.0 ** rng.uniform(-3.0, 0.5), 1.0 / rng.uniform(0.5, 50.0)
            ta, tb = rng.uniform(0.05, math.pi - 0.05, 2)
            assert kernel_spectral(nu, ta, tb, lam).value == kernel_spectral(nu, tb, ta, lam).value
            assert addition_formula_lhs(nu, ta, tb, lam_add) == addition_formula_lhs(nu, tb, ta, lam_add)

    def test_mode_sums_in_blocks_are_the_per_pair_fsums(self, monkeypatch):
        # the pairs are summed in blocks of at most _BLOCK_PRODUCTS products; at 7 products a 3-mode row
        # takes 2 pairs a block (7 pairs: blocks of 2, 2, 2 and 1) and a 40-mode row one pair a block.
        # Every sum must be bitwise the per-pair fsum, whatever the blocks
        pairs = [(0.4, 1.1), (1.1, 0.4), (2.0, 2.0), (0.4, 2.0), (1.1, 1.1), (2.9, 0.2), (0.2, 0.4)]
        nu = 2.5
        for lengths in ((3, 2), (40, 12, 40)):
            weights = [np.exp(-0.05 * (np.arange(n) + nu) ** 2 / 2.0) for n in lengths]
            columns = {t: eigenfunctions(max(lengths) - 1, nu, t) for pair in pairs for t in pair}
            reference = [[math.fsum((w * (columns[a] * columns[b])[:len(w)]).tolist()) for a, b in pairs] for w in weights]
            one_block = spectral._mode_sums(weights, nu, pairs)
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_BLOCK_PRODUCTS", 7)
                small_blocks = spectral._mode_sums(weights, nu, pairs)
            assert list(map(repr, sum(small_blocks, []))) == list(map(repr, sum(one_block, []))) == list(map(repr, sum(reference, [])))
            for i, pair in enumerate(pairs):  # one pair skips the table
                assert spectral._mode_sums(weights, nu, [pair]) == [[row[i]] for row in reference]

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
                * eigenfunctions(0, nu, 1.2)[0]
                * eigenfunctions(0, nu, 1.9)[0]
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
        est = kernel_spectral(1.0, 1.0, 1.0, 1.0, TruncationPolicy(n_terms=7))
        assert est.terms_used == 7

    def test_n_terms_alone_fixes_the_policy(self):
        assert TruncationPolicy(n_terms=3) == TruncationPolicy(3)
        est = kernel_spectral(1.0, 1.0, 1.0, 1.0, TruncationPolicy(n_terms=3))
        assert est.terms_used == 3
        with pytest.raises(DomainError, match="epsilon_tail"):
            TruncationPolicy(n_terms=3, epsilon_tail=float("inf"))

    def test_term_counts_are_capped(self):
        # constructor calls only: nothing is evaluated at these sizes
        for n in (10**9, 100_001):
            with pytest.raises(DomainError, match="n_terms"):
                TruncationPolicy(n_terms=n)
            with pytest.raises(DomainError, match="n_cap"):
                TruncationPolicy(epsilon_tail=1e-12, n_cap=n)
        assert TruncationPolicy(n_terms=100_000).n_terms == 100_000
        assert TruncationPolicy(epsilon_tail=1e-12, n_cap=100_000).n_cap == 100_000

    def test_term_counts_are_integers(self):
        for bad in (2.5, 3.0, "3", None):
            with pytest.raises(DomainError, match="n_cap"):
                TruncationPolicy(n_cap=bad)
        for bad in (2.5, 0, -3):
            with pytest.raises(DomainError, match="n_terms"):
                TruncationPolicy(n_terms=bad)
        assert kernel_spectral(1.0, 1.0, 1.2, 0.5, TruncationPolicy(n_terms=np.int64(7))).terms_used == 7

    def test_resolve_is_the_linear_scan(self):
        # the resolved N is the first N of a linear scan over the public tail bound, with that
        # bound, and the policy is refused exactly where the scan runs past the cap
        def linear_scan(nu, lam, policy):
            for n in range(1, policy.n_cap + 1):
                tail = truncation_tail_bound(nu, lam, n)
                if tail <= policy.epsilon_tail:
                    return n, tail
            return None

        rng = np.random.default_rng(3)
        cap_hits = 0
        for _ in range(150):
            nu = math.exp(rng.uniform(math.log(0.5), math.log(200.0)))
            lam = 10.0 ** rng.uniform(-3.5, 1.0)
            policy = TruncationPolicy(epsilon_tail=float(rng.choice([1e-15, 1e-12, 1e-8])), n_cap=int(rng.choice([40, 4096])))
            expected = linear_scan(nu, lam, policy)
            if expected is None:
                cap_hits += 1
                with pytest.raises(PolicyUnresolvableError):
                    _mode_weights(nu, [lam], policy)
            else:
                [(weights, tail)] = _mode_weights(nu, [lam], policy)
                assert (len(weights), tail) == expected, (nu, lam, policy)
        assert cap_hits > 0

    def test_the_scan_makes_no_argument_check(self, check_calls):
        # a resolve at a fresh (nu, lambda) probes the tail bound's body, not the checked public bound
        misses = _resolve.cache_info().misses
        [(weights, _)] = _mode_weights(2.5, [0.00123457], None)
        assert _resolve.cache_info().misses == misses + 1 and len(weights) > 100
        assert not check_calls

    def test_resolve_memo_keeps_scalars_only(self):
        # a repeated (nu, lambda, policy) reads N and the tail bound from the memo, and the weight
        # array is built afresh, so no caller can alter another's weights
        policy = TruncationPolicy(epsilon_tail=1e-13)
        [(first, tail)] = _mode_weights(2.5, [0.0731], policy)
        hits = _resolve.cache_info().hits
        [(again, tail_again)] = _mode_weights(2.5, [0.0731], TruncationPolicy(epsilon_tail=1e-13))
        assert _resolve.cache_info().hits == hits + 1
        assert (len(again), tail_again) == (len(first), tail)
        assert again is not first and np.array_equal(again, first)
        again[0] = 0.0
        assert _mode_weights(2.5, [0.0731], policy)[0][0][0] == first[0] != 0.0

    def test_chain_rows_are_each_lambdas_own_weights_by_repr(self):
        # the squares (n+nu)^2 formed once at the largest N: each lambda's weights over its prefix are, by
        # repr, the weights that lambda gets alone and the expression exp(-lambda (n+nu)^2 / 2) over its own modes
        rng = np.random.default_rng(2026)
        prefixes = 0
        for _ in range(40):
            nu = float(rng.uniform(0.5, 20.0))
            chain = sorted((10.0 ** rng.uniform(-4.0, 0.5, int(rng.integers(1, 6)))).tolist(), reverse=True)
            rows = _mode_weights(nu, chain, None)
            prefixes += len({len(w) for w, _ in rows}) > 1
            for lam, (weights, tail) in zip(chain, rows):
                [(alone, alone_tail)] = _mode_weights(nu, [lam], None)
                n = np.arange(len(weights), dtype=float)
                expression = np.exp(-lam * (n + nu) ** 2 / 2.0)
                assert repr(weights.tolist()) == repr(alone.tolist()) == repr(expression.tolist()), (nu, lam)
                assert tail == alone_tail == _resolve(nu, lam, spectral._DEFAULT_POLICY)[1]
        assert prefixes > 20

    def test_resolve_memo_does_not_cache_refusals(self):
        policy = TruncationPolicy(epsilon_tail=1e-12, n_cap=7)
        for _ in range(2):
            with pytest.raises(PolicyUnresolvableError):
                _mode_weights(1.0, [1e-3], policy)
        assert _resolve.cache_parameters()["maxsize"] is not None

    def test_to_tail_takes_the_field_default_cap(self):
        # the cap's default is declared once, on the field: a tail target alone keeps it
        assert TruncationPolicy(epsilon_tail=1e-10).n_cap == TruncationPolicy().n_cap

    def test_target_policy_meets_tail(self):
        policy = TruncationPolicy(epsilon_tail=1e-10)
        est = kernel_spectral(1.0, 1.0, 1.0, 0.2, policy)
        assert est.tail_bound <= 1e-10

    def test_non_finite_tail_target_rejected(self):
        with pytest.raises(DomainError):
            TruncationPolicy(epsilon_tail=float("inf"))
        with pytest.raises(DomainError):
            TruncationPolicy(epsilon_tail=float("nan"))

    def test_policy_unresolvable_signals_small_lambda(self):
        with pytest.raises(PolicyUnresolvableError):
            kernel_spectral(1.0, 1.5, 1.6, 1e-6, TruncationPolicy(epsilon_tail=1e-12, n_cap=50))

    def test_overflowing_gegenbauer_factor_is_domain_error(self):
        # C_n^nu(cos theta) overflows by degree 3204 while sin^nu theta underflows to 0, so their product
        # is NaN; phi_n itself is bounded, and the kernel is the sum at 40 digits, far below the float range
        est = kernel_spectral(90.733019776225, 1.1191147329250895e-08, 0.3725420803085231, 0.00012424117182030517)
        assert est.value == 0.0 and est.tail_bound <= 1e-12
        with mpmath.workdps(40):
            assert abs(mp_kernel(90.733019776225, 1.1191147329250895e-08, 0.3725420803085231, 0.00012424117182030517, est.terms_used)) < 1e-300
        # the default policy's 925 modes at nu = 1000 are past C_n^nu's range: 2.8e-12 relative to 40 digits,
        # the cancellation of N_0's log-gammas
        est = kernel_spectral(1000.0, 1.5, 1.6, 1e-3)
        with mpmath.workdps(40):
            assert abs(est.real / float(mp_kernel(1000.0, 1.5, 1.6, 1e-3, est.terms_used)) - 1.0) <= 5e-12

    def test_overflowing_profile_table_is_domain_error(self):
        # C_n^nu overflows at the node next to the wall; the recurrence on phi_n stays finite, and each value
        # is the 40-digit sum (0 next to the wall, far below the float range in the bulk) to the profile's
        # rounding floor (2e-16 in the bulk)
        thetas = np.array([1e-3, 1.0])
        profile = kernel_spectral_profile(150.0, 1.5, thetas, 1e-4, TruncationPolicy(n_terms=3001))
        assert np.isfinite(profile).all() and profile[0] == 0.0
        with mpmath.workdps(40):
            for theta, value in zip(thetas, profile):
                assert abs(value - float(mp_kernel(150.0, 1.5, theta, 1e-4, 3001))) <= 1e-13

    def test_boundary_angles_rejected(self):
        with pytest.raises(DomainError):
            kernel_spectral(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            kernel_spectral(1.0, 1.0, math.pi, 1.0)
        # NaN passed the wall tests and met a misleading eigenfunction-table refusal; a 2-D array met numpy's matmul
        for thetas in ([1.0, 0.0], [1.0, math.pi], [1.0, math.nan]):
            with pytest.raises(DomainError, match="profile angles must lie strictly inside"):
                kernel_spectral_profile(1.5, 1.0, np.array(thetas), 0.5)
        with pytest.raises(DomainError, match=r"^profile angles must be a scalar or a nonempty vector, got shape \(2, 2\)$"):
            kernel_spectral_profile(1.5, 1.0, np.array([[1.0, 1.2], [2.0, 0.7]]), 0.5)
        assert kernel_spectral_profile(1.5, 1.0, np.float64(1.2), 0.5) == kernel_spectral_profile(1.5, 1.0, np.array([1.2]), 0.5)[0]

    def test_empty_profile_refused_before_any_resolve(self):
        # an empty profile resolved N and returned []
        misses = _resolve.cache_info().misses
        with pytest.raises(DomainError, match=r"^profile angles must be a scalar or a nonempty vector, got shape \(0,\)$"):
            kernel_spectral_profile(2.5, 1.0, np.array([]), 0.1234567)
        assert _resolve.cache_info().misses == misses

    @pytest.mark.parametrize("n_angles", [0, 5, _ARRAY_MIN_ANGLES, 160])
    def test_a_profile_follows_the_c_ordered_node_matrix_by_repr(self, n_angles):
        # a profile is one vector-matrix product, whose BLAS sum follows the layout: whichever recurrence form
        # builds the nodes, they must be the (modes, nodes) matrix in C order, filled node by node, and a
        # vector at a scalar angle (0 angles: a 0-d array)
        thetas = np.array(1.3) if n_angles == 0 else np.linspace(0.05, 3.09, n_angles)
        for nu, lam in ((1.0, 0.3), (2.7, 0.05), (0.75, 0.01), (4.2, 0.002)):
            [(w, _)] = _mode_weights(nu, [lam], None)
            nodes = np.empty((len(w), thetas.size))
            for j, theta in enumerate(thetas.reshape(-1)):
                nodes[:, j] = eigenfunctions(len(w) - 1, nu, theta)
            expected = (w * eigenfunctions(len(w) - 1, nu, 1.1)) @ nodes.reshape((len(w),) + thetas.shape)
            assert repr(np.asarray(kernel_spectral_profile(nu, 1.1, thetas, lam)).tolist()) == repr(np.asarray(expected).tolist())

    def test_profile_matches_pointwise(self):
        thetas = np.linspace(0.3, 2.8, 7)
        prof = kernel_spectral_profile(1.6, 1.1, thetas, 0.6)
        for val, tb in zip(prof, thetas):
            assert val == pytest.approx(kernel_spectral(1.6, 1.1, float(tb), 0.6).real, rel=1e-12)


def test_kernel_estimate_is_a_frozen_dataclass():
    # its __init__ is written out, one __dict__ update for the generated one's five object.__setattr__
    # calls; the signature, the fields and every dataclass behaviour stay those of the generated class
    KernelEstimate = spectral.KernelEstimate
    assert str(inspect.signature(KernelEstimate)) == (
        "(value: complex, method: str, terms_used: int, tail_bound: float | None = None, near_boundary: bool = False) -> None")
    assert [(f.name, f.default) for f in dataclasses.fields(KernelEstimate)] == [
        ("value", dataclasses.MISSING), ("method", dataclasses.MISSING), ("terms_used", dataclasses.MISSING),
        ("tail_bound", None), ("near_boundary", False)]
    a = KernelEstimate(1.5 + 0j, "spectral", 12, tail_bound=1e-13)
    assert (a.value, a.method, a.terms_used, a.tail_bound, a.near_boundary, a.real) == (1.5 + 0j, "spectral", 12, 1e-13, False, 1.5)
    assert repr(a) == "KernelEstimate(value=(1.5+0j), method='spectral', terms_used=12, tail_bound=1e-13, near_boundary=False)"
    b = KernelEstimate(value=1.5 + 0j, method="spectral", terms_used=12, tail_bound=1e-13, near_boundary=False)
    assert a == b and hash(a) == hash(b) and a != dataclasses.replace(a, near_boundary=True)
    assert dataclasses.replace(a, terms_used=13) == KernelEstimate(1.5 + 0j, "spectral", 13, 1e-13)
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'value'$"):
        a.value = 2.0
    with pytest.raises(TypeError):
        KernelEstimate(1.5 + 0j, "spectral")
