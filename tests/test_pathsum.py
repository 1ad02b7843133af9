"""Reflection decompositions: phases, term structure, and the three kernels.

The free-box image sum is re-derived here as an explicit oracle so the
nu = 1 equivalence is a genuine two-route check, and the spectral kernel
serves as the reference for the asymptotic couplings.
"""

import cmath
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkernel import (
    DomainError,
    PathSumConfig,
    decompose,
    kernel_pathsum_general,
    kernel_pathsum_nu1,
    kernel_pathsum_nu2,
    kernel_spectral,
    reflection_phase,
)
from boxkernel import pathsum


def image_sum_oracle(theta, theta_p, lam, k_max=8):
    """Dirichlet image construction coded independently of the library."""
    total = 0.0
    for k in range(-k_max, k_max + 1):
        total += math.exp(-((theta - theta_p - 2.0 * k * math.pi) ** 2) / (2.0 * lam))
        total -= math.exp(-((theta + theta_p - 2.0 * k * math.pi) ** 2) / (2.0 * lam))
    return total / math.sqrt(2.0 * math.pi * lam)


class TestReflectionPhase:
    def test_free_box_minus_sign(self):
        # the odd-parity k = 0 phase at nu = 1 is e^{-i pi} = -1
        assert reflection_phase(0, "odd", 1.0, "A") == complex(-1.0, 0.0)

    def test_nu2_plus_sign(self):
        for k in range(-4, 5):
            assert reflection_phase(k, "odd", 2.0, "A") == complex(1.0, 0.0)

    def test_integer_coupling_law_is_exact(self):
        # odd-reflection coefficient is -1 for odd couplings, +1 for even ones;
        # even-reflection terms always carry +1.  Zero tolerance.
        for nu in (1, 2, 3, 4, 5):
            expected_odd = complex(-1.0 if nu % 2 else 1.0, 0.0)
            for prescription in ("A", "B"):
                for k in range(-5, 6):
                    assert reflection_phase(k, "even", float(nu), prescription) == complex(1.0, 0.0)
                    assert reflection_phase(k, "odd", float(nu), prescription) == expected_odd

    def test_prescription_a_matches_eq_phases(self):
        nu = 1.37
        for k in (-2, 0, 3):
            expect_even = cmath.exp(1j * math.pi * 2 * k * nu)
            expect_odd = cmath.exp(1j * math.pi * (2 * k - 1) * nu)
            assert reflection_phase(k, "even", nu, "A") == pytest.approx(expect_even, abs=1e-14)
            assert reflection_phase(k, "odd", nu, "A") == pytest.approx(expect_odd, abs=1e-14)

    def test_prescriptions_differ_by_even_winding_phases(self):
        # ratio A/B must be of the form exp(2 m nu pi i) with integer m:
        # m = k for even parity, m = k - 1 for odd parity
        for nu in (0.75, 1.3, 2.51, 3.9):
            for k in range(-4, 5):
                for parity, m in (("even", k), ("odd", k - 1)):
                    ratio = reflection_phase(k, parity, nu, "A") / reflection_phase(k, parity, nu, "B")
                    assert abs(ratio - cmath.exp(2j * math.pi * m * nu)) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        nu=st.floats(min_value=0.5, max_value=6.0),
        k=st.integers(min_value=-6, max_value=6),
        parity=st.sampled_from(["even", "odd"]),
        prescription=st.sampled_from(["A", "B"]),
    )
    def test_phase_is_unit_modulus(self, nu, k, parity, prescription):
        assert abs(abs(reflection_phase(k, parity, nu, prescription)) - 1.0) < 1e-15

    def test_bad_parity_rejected(self):
        with pytest.raises(DomainError):
            reflection_phase(0, "sideways", 1.0)

    def test_winding_must_be_an_integer(self):
        # k = 1.5 gave -1 under prescription B, NaN numpy's ValueError and inf an OverflowError under A
        for k in (1.5, 2.0, math.nan, math.inf):
            for prescription in pathsum.PRESCRIPTIONS:
                with pytest.raises(DomainError, match=rf"^winding k must be an integer, got {k}$"):
                    reflection_phase(k, "odd", 2.5, prescription)
        assert reflection_phase(np.int64(3), "odd", 2.5) == reflection_phase(3, "odd", 2.5)

    def test_a_phase_multiple_past_the_float_range_is_refused(self):
        # 2 k nu is inf at (8, 1.2e307), its double at (1, 5e307), and 10**400 is past any float: each raised a
        # raw OverflowError under prescription A; under B the multiples are 0 and nu, which stay finite
        for k, parity, nu in ((8, "even", 1.2e307), (-8, "odd", 1.2e307), (1, "even", 5e307), (10**400, "odd", 1.0)):
            message = f"reflection phase: the phase multiple is past the float range at k = {k}, parity '{parity}', nu = {nu:g}"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                reflection_phase(k, parity, nu, "A")
            assert abs(reflection_phase(k, parity, nu, "B")) == 1.0

    def test_unknown_prescription_rejected(self):
        for prescription in ("C", "a", ""):
            with pytest.raises(DomainError, match="prescription must be 'A' or 'B'"):
                reflection_phase(1, "odd", 1.5, prescription)


class TestDecompose:
    def test_k0_even_term_structure(self):
        theta, theta_p, lam = 1.1, 1.9, 0.3
        terms = decompose(2.5, theta, theta_p, lam)
        (t,) = [t for t in terms if t.k == 0 and t.parity == "even"]
        assert t.phase == complex(1.0, 0.0)
        assert t.gauss_exponent == -((theta - theta_p) ** 2) / (2.0 * lam)
        assert t.potential_correction == pytest.approx(
            -0.5 * lam * 2.5 * 1.5 / (math.sin(theta) * math.sin(theta_p)), rel=1e-15
        )

    def test_resummation_is_bit_for_bit(self):
        # the kernels build no terms and skip the images whose weight underflows to 0; summing
        # decompose's full list must still give their values, and raise where they raise
        rng = np.random.default_rng(5)
        wall = lambda: float(rng.choice([1.0, -1.0])) * rng.uniform(1e-4, 0.01) % math.pi
        cases = [(1.3, 1.0, 2.1, 0.25, PathSumConfig(k_max=6))] + [
            (nu, rng.uniform(0.02, math.pi - 0.02), rng.uniform(0.02, math.pi - 0.02), 10.0 ** rng.uniform(-3.0, 0.5),
             PathSumConfig(k_max=int(rng.integers(1, 12)), prescription=prescription))
            for nu in (1.0, 2.0, 2.5, 0.75, 7.3) for prescription in ("A", "B") for _ in range(6)
        ] + [
            # nu in (0.5, 1) next to a wall: the even-parity potential is positive and widens the live range
            (rng.uniform(0.5, 1.0), wall(), rng.uniform(0.02, math.pi - 0.02), 10.0 ** rng.uniform(-3.0, 0.0),
             PathSumConfig(k_max=k_max, prescription=prescription))
            for k_max in (1, 8, 30) for prescription in ("A", "B") for _ in range(6)
        ] + [
            # lambda in [10, 100]: every image is live
            (nu, rng.uniform(0.02, math.pi - 0.02), rng.uniform(0.02, math.pi - 0.02), rng.uniform(10.0, 100.0),
             PathSumConfig(k_max=k_max, prescription=prescription))
            for nu in (1.0, 2.0, 0.75, 2.5) for k_max in (1, 30) for prescription in ("A", "B")
        ] + [
            # the potential correction overflows math.exp
            (2.5, 0.01, 0.01, 5.0, PathSumConfig(k_max=k_max)) for k_max in (1, 30)
        ] + [(0.6, 1e-3, 2e-3, 0.05, PathSumConfig(k_max=8, prescription="B"))] + [
            # lambda near the float maximum: the live window's ends are infinite and are clipped to +-k_max
            # before they are rounded; at nu != 1 the correction overflows math.exp or leaves the float range
            (nu, theta, theta_p, lam, PathSumConfig(k_max=k_max))
            for lam in (5e307, 1e308, sys.float_info.max) for nu, k_max in ((1.0, 1), (1.0, 30), (2.0, 8), (0.75, 8))
            for theta, theta_p in ((1e-9, 1.0), (math.pi - 1e-9, 1e-9), (1.0, 2.0))
        ] + [
            (1.0, 1e-9, 1.0, lam, PathSumConfig(k_max=10_000)) for lam in (5e307, 1e308, sys.float_info.max)
        ] + [
            # potentials past 1e13, within a few ulps of the edge of the live window: its rounding there is
            # more than the 0.87 between -_EXP_FLOOR and math.exp's floor, and the window is widened to match
            (0.881770451569019, 1.0819088652660099e-65, 1.9860301331839822, 1.935335048332415e-32, PathSumConfig()),
            (0.9331093332570852, 2.065989628024234e-157, 1.9568727958340706, 3.4266946958878653e-78, PathSumConfig()),
            (0.6526529175733686, 1.4165099788389596e-113, 0.5994890536243216, 3.559529641654434e-57, PathSumConfig()),
        ]
        pruned = refused = 0
        overflows = Counter()  # by whether lambda is near the float maximum
        for nu, theta, theta_p, lam, config in cases:
            try:
                terms = decompose(nu, theta, theta_p, lam, config)
            except DomainError as exc:
                # only a correction past the float range, at lambda near the float maximum and nu != 1
                assert lam >= 5e307 and nu != 1.0
                refused += 1
                with pytest.raises(DomainError) as kernel:
                    kernel_pathsum_general(nu, theta, theta_p, lam, config)
                assert str(kernel.value) == str(exc)
                continue
            norm = 1.0 / math.sqrt(2.0 * math.pi * lam)
            try:
                weights = [math.exp(t.gauss_exponent + t.potential_correction) for t in terms]
            except OverflowError:
                overflows[lam >= 5e307] += 1
                with pytest.raises(OverflowError):
                    kernel_pathsum_general(nu, theta, theta_p, lam, config)
                continue
            pruned += 0.0 in weights
            re = math.fsum(t.phase.real * w for t, w in zip(terms, weights))
            im = math.fsum(t.phase.imag * w for t, w in zip(terms, weights))
            resummed = complex(norm * re, norm * im)
            estimate = kernel_pathsum_general(nu, theta, theta_p, lam, config)
            assert repr(resummed) == repr(estimate.value)
            assert estimate.terms_used == len(terms) == 4 * config.k_max + 2
            if nu in (1.0, 2.0):
                scalar = kernel_pathsum_nu1 if nu == 1.0 else kernel_pathsum_nu2
                assert repr(resummed) == repr(scalar(theta, theta_p, lam, config).value)
        # near the float maximum, nu = 2 and 0.75 refuse their correction at the wall pairs (and nu = 2 at
        # (1, 2) at the float maximum); the rest of them overflow math.exp
        assert pruned > 0 and overflows[False] >= 3 and (refused, overflows[True]) == (13, 5)

    def test_k0_even_dominates_near_the_diagonal(self):
        terms = decompose(1.5, 1.4, 1.45, 0.05)
        magnitudes = {
            (t.k, t.parity): abs(t.phase) * math.exp(t.gauss_exponent + t.potential_correction)
            for t in terms
        }
        top = max(magnitudes, key=magnitudes.get)
        assert top == (0, "even")

    def test_term_count(self):
        assert len(decompose(1.0, 1.0, 1.0, 1.0, PathSumConfig(k_max=4))) == 2 * (2 * 4 + 1)


class TestKernelPathsumNu1:
    def test_matches_image_oracle(self):
        for lam in (0.1, 0.5, 2.0):
            for ta, tb in ((1.1, 2.0), (0.3, 0.4), (2.6, 1.2)):
                mine = kernel_pathsum_nu1(ta, tb, lam).value
                assert mine.imag == 0.0
                assert mine.real == pytest.approx(image_sum_oracle(ta, tb, lam), rel=1e-13)

    def test_matches_spectral_route(self):
        for lam in (0.1, 0.5, 2.0):
            s = kernel_spectral(1.0, 1.3, 1.8, lam).real
            p = kernel_pathsum_nu1(1.3, 1.8, lam).value.real
            assert abs(s - p) < 1e-12

    def test_oracle_antisymmetry_under_reflection(self):
        # the image construction extends oddly through the wall
        assert image_sum_oracle(0.8, -1.1, 0.4) == pytest.approx(
            -image_sum_oracle(0.8, 1.1, 0.4), rel=1e-13
        )

    def test_small_and_positive_near_the_wall(self):
        est = kernel_pathsum_nu1(0.05, 0.06, 0.1)
        assert 0.0 < est.value.real < 0.1
        assert est.near_boundary is False  # margin is strict: 0.05 is allowed unflagged

    def test_no_potential_correction_at_any_angle(self):
        # sin theta sin theta' underflows to 0 here; at nu = 1 the correction is 0 and there is no division
        assert kernel_pathsum_nu1(1e-200, 1e-200, 0.1).value == 0.0

    def test_near_boundary_flagging(self):
        assert kernel_pathsum_nu1(0.04, 1.0, 0.1).near_boundary is True
        assert kernel_pathsum_nu1(1.0, math.pi - 0.01, 0.1).near_boundary is True
        assert kernel_pathsum_nu1(1.0, 2.0, 0.1).near_boundary is False


class TestKernelPathsumNu2:
    def test_equals_general_at_nu2_exactly(self):
        for lam in (0.4, 0.1, 0.05):
            for ta, tb in ((1.0, 1.0), (0.7, 2.2)):
                a = kernel_pathsum_nu2(ta, tb, lam).value
                b = kernel_pathsum_general(2.0, ta, tb, lam).value
                assert a == b

    def test_symmetric_in_the_angles(self):
        a = kernel_pathsum_nu2(0.9, 2.3, 0.2).value
        b = kernel_pathsum_nu2(2.3, 0.9, 0.2).value
        assert a == b

    def test_deviation_from_spectral_shrinks_with_lambda(self):
        devs = []
        for lam in (0.4, 0.2, 0.1, 0.05):
            s = kernel_spectral(2.0, 1.0, 1.0, lam).real
            p = kernel_pathsum_nu2(1.0, 1.0, lam).value.real
            devs.append(abs(s - p) / abs(s))
        assert all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))


class TestKernelPathsumGeneral:
    def test_reduces_to_nu1_exactly(self):
        for lam in (0.4, 0.1):
            a = kernel_pathsum_general(1.0, 1.2, 1.9, lam).value
            b = kernel_pathsum_nu1(1.2, 1.9, lam).value
            assert a == b

    def test_example_sweep_nu_1p5(self):
        # real-part deviation and the imaginary residue both improve with
        # shrinking lambda at an off-diagonal interior point
        theta, theta_p = 1.2, 1.9
        dev = {}
        imre = {}
        for lam in (0.2, 0.1, 0.05):
            s = kernel_spectral(1.5, theta, theta_p, lam).real
            v = kernel_pathsum_general(1.5, theta, theta_p, lam).value
            dev[lam] = abs(v.real - s) / abs(s)
            imre[lam] = abs(v.imag) / abs(v.real)
        assert dev[0.05] < dev[0.1]
        assert imre[0.05] < imre[0.2]

    def test_kmax_stability(self):
        for lam in (0.1, 2.0):
            a = kernel_pathsum_general(1.3, 1.0, 2.0, lam, PathSumConfig(k_max=4)).value
            b = kernel_pathsum_general(1.3, 1.0, 2.0, lam, PathSumConfig(k_max=8)).value
            assert abs(a - b) <= 1e-14 * abs(b)

    def test_prescription_changes_phases_not_integer_values(self):
        # at integer coupling both prescriptions give the same (real) kernel
        a = kernel_pathsum_general(3.0, 1.1, 1.7, 0.2, PathSumConfig(prescription="A")).value
        b = kernel_pathsum_general(3.0, 1.1, 1.7, 0.2, PathSumConfig(prescription="B")).value
        assert a == b

    @pytest.mark.parametrize("prescription", ["A", "B"])
    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_real_phases_form_no_imaginary_sums(self, nu, prescription):
        # every phase is +-1+0j at integer nu, so the phase table is all real, and both the array image sum
        # and the per-pair loop build each value with an imaginary part of +0.0 and form no imaginary sums
        config = PathSumConfig(prescription=prescription)
        pairs = [(0.3, 0.3), (1.0, 2.2), (2.9, 0.05), (1.4, 1.7)]
        lambdas = [3.0, 0.4, 0.1, 0.01]
        values = pathsum._array_values(nu, pairs, lambdas, config)
        assert all(math.copysign(1.0, v.imag) == 1.0 and v.imag == 0.0 for v in values)
        loop = [v for lam in lambdas for v in pathsum._loop_values(nu, pairs, lam, config)]
        assert all(math.copysign(1.0, v.imag) == 1.0 and v.imag == 0.0 for v in loop)
        assert list(map(repr, values)) == list(map(repr, loop))

    @pytest.mark.parametrize("nu, prescription, n, lambdas, k_max", [
        (1.0, "A", 9, (2.0,), 8),  # every image is live at lambda = 2
        (1.0, "B", 12, (2.0, 0.5, 0.1), 8),
        (1.3, "A", 6, (0.4, 0.1), 8),  # a full N x N grid: a pair and its mirror share their odd row
        (1.3, "A", 5, (2.0, 0.01), 1),
        (1.3, "B", 5, (0.4, 0.05), 30),
        (2.5, "A", 4, (0.4,), 30),
    ])
    def test_shared_image_rows_are_the_loop_and_the_scalar_kernels(self, nu, prescription, n, lambdas, k_max):
        # a uniform grid repeats its separations, so the array sum shares (parity, separation, sin product)
        # rows between pairs; every value must still be bitwise the loop's and the scalar kernel's
        axis = [math.pi * i / (n + 1) for i in range(1, n + 1)]
        pairs = [(a, b) for a in axis for b in axis]
        config = PathSumConfig(k_max, prescription)
        values = pathsum._array_values(nu, pairs, lambdas, config)
        loop = [v for lam in lambdas for v in pathsum._loop_values(nu, pairs, lam, config)]
        scalar = [kernel_pathsum_general(nu, a, b, lam, config).value for lam in lambdas for a, b in pairs]
        assert list(map(repr, values)) == list(map(repr, loop)) == list(map(repr, scalar))

    @staticmethod
    def _count_math_calls(monkeypatch, counts):
        for name in ("exp", "pow"):
            fn = getattr(math, name)
            monkeypatch.setattr(math, name, lambda *args, fn=fn, name=name: counts.update([name]) or fn(*args))

    def test_an_array_sum_builds_each_distinct_image_row_once(self, monkeypatch):
        # the 45 unordered pairs of the nu1-exact suite's 9x9 grid have 90 (pair, parity) image rows, of which
        # 26 are distinct; at nu = 1 the correction is 0 and the separation alone keys a row.  Each distinct
        # row takes one pow per winding (k_max = 8: 17) and at most one exp per winding and lambda
        grid = [(math.pi * i / 10.0, math.pi * j / 10.0) for i in range(1, 10) for j in range(1, 10)]
        pairs = list(dict.fromkeys((min(pair), max(pair)) for pair in grid))
        chain = (2.0, 0.5, 0.1)
        counts = Counter()
        with monkeypatch.context() as patch:
            self._count_math_calls(patch, counts)
            values = pathsum._array_values(1.0, pairs, chain, PathSumConfig())
        assert len(pairs) == 45
        assert counts["pow"] == 26 * 17
        assert 0 < counts["exp"] <= 26 * 17 * 3
        loop = [v for lam in chain for v in pathsum._loop_values(1.0, pairs, lam, PathSumConfig())]
        assert list(map(repr, values)) == list(map(repr, loop))
        # under A at nu = 1.3 a pair and its mirror share their odd row: at most 36 even and 21 odd rows
        axis = [math.pi * i / 7.0 for i in range(1, 7)]
        counts.clear()
        with monkeypatch.context() as patch:
            self._count_math_calls(patch, counts)
            pathsum._array_values(1.3, [(a, b) for a in axis for b in axis], (0.4,), PathSumConfig())
        assert counts["pow"] <= (36 + 21) * 17

    def test_a_scalar_sum_builds_only_the_phases_it_sums(self, monkeypatch):
        # at lambda = 0.01 the images of (1, 2) with |k| > 2 have weight exactly 0, so a fresh coupling builds
        # the phases of |k| <= 2, 4 * 2 + 2 of them, not the 4 k_max + 2 = 40,002 of the whole table
        calls = []
        phase = pathsum._phase
        monkeypatch.setattr(pathsum, "_phase", lambda *args: calls.append(args) or phase(*args))
        pathsum._phases.cache_clear()
        value = kernel_pathsum_general(1.2345678, 1.0, 2.0, 0.01, PathSumConfig(k_max=10_000)).value
        assert 0 < len(calls) <= 4 * 2 + 2
        assert max(abs(k) for k, *_ in calls) <= 2
        assert repr(value) == repr(kernel_pathsum_general(1.2345678, 1.0, 2.0, 0.01, PathSumConfig(k_max=8)).value)

    def test_a_coupling_past_the_phase_range_refuses_its_correction(self):
        # from nu ~ 1e307 the multiple 2 k_max nu of the outermost phase is inf, and building the whole table
        # raised a raw OverflowError; the correction leaves the float range from nu ~ 1e154 and is refused first
        for path_sum in (kernel_pathsum_general, decompose):
            with pytest.raises(DomainError, match=r"^path sum: the potential correction leaves the float range at nu = 1e\+308,"):
                path_sum(1e308, 1.0, 1.2, 0.1)

    def test_the_loop_exponentiates_only_the_images_within_reach(self, monkeypatch):
        # _live_ks keeps the windings with |sep - 2 pi k| < reach = sqrt(2 lambda (_EXP_FLOOR + potential)),
        # up to rounding, every winding it leaves out has weight exactly 0.0, and the loop takes one math.exp
        # per kept image: next to a wall at nu in (1/2, 1), where the even potential is positive, and from
        # lambda = 1e-4, where a pair has a few live images, to lambda = 100, where every image is live
        rng = np.random.default_rng(25)
        inside = lambda: rng.uniform(0.05, math.pi - 0.05)
        checked = 0
        for _ in range(400):
            nu = float(rng.choice([1.0, 2.0, rng.uniform(0.5, 1.0), rng.uniform(1.0, 5.0)]))
            wall = float(rng.choice([1.0, -1.0])) * 10.0 ** rng.uniform(-4.0, -1.0) % math.pi
            theta, theta_p = (wall if rng.random() < 0.3 else inside()), inside()
            lam, k_max = 10.0 ** rng.uniform(-4.0, 2.0), int(rng.choice([1, 8, 30]))
            images = pathsum._images(nu, theta, theta_p, lam, k_max)
            if max(potential for _, _, potential, _ in images) > 600.0:
                continue  # a kept weight would overflow math.exp
            for _, sep, potential, ks in images:
                reach = math.sqrt(2.0 * lam * (pathsum._EXP_FLOOR + potential)) if potential > -pathsum._EXP_FLOOR else 0.0
                for k in range(-k_max, k_max + 1):
                    if k in ks:
                        assert abs(sep - 2.0 * math.pi * k) < reach + 1e-12 * (abs(sep) + reach)
                    else:
                        assert math.exp(potential - (sep - 2.0 * math.pi * k) ** 2 / (2.0 * lam)) == 0.0
            counts = Counter()
            with monkeypatch.context() as patch:
                self._count_math_calls(patch, counts)
                pathsum._loop_values(nu, [(theta, theta_p)], lam, PathSumConfig(k_max))
            assert counts["exp"] == sum(len(ks) for *_, ks in images)
            checked += 1
        assert checked > 300

    @pytest.mark.parametrize("pairs, lam, first, refusal", [
        # pair 1's weight overflows (its correction is ~9e4) before pair 2, whose sines underflow to 0, refuses its correction
        ([(1.0, 1.2), (0.01, 0.01), (1e-200, 1e-200), (0.5, 2.0), (2.0, 0.5)], 5.0, 1, OverflowError),
        # pairs 2 and 4 refuse their corrections, and pair 2 is met first
        ([(1.0, 1.2), (0.5, 2.0), (1e-200, 1e-200), (2.0, 0.5), (1e-170, 1e-170)], 0.1, 2, DomainError),
    ])
    def test_a_chain_refuses_as_the_scalar_kernel(self, pairs, lam, first, refusal, array_sums):
        # interior pairs after the refusing ones pad the chain to the array image sum's threshold; a correction
        # it refuses sends the chain to the loop, so the refusal is the scalar kernel's at the first refusing pair
        pairs = pairs + [(0.5 + 0.04 * i, 2.5 - 0.03 * i) for i in range(pathsum._ARRAY_MIN_POINTS - len(pairs))]
        assert len(pairs) >= pathsum._ARRAY_MIN_POINTS
        for theta, theta_p in pairs[:first]:
            kernel_pathsum_general(2.5, theta, theta_p, lam)
        with pytest.raises(refusal) as scalar:
            kernel_pathsum_general(2.5, *pairs[first], lam)
        assert type(scalar.value) is refusal
        with pytest.raises(refusal, match=f"^{re.escape(str(scalar.value))}$") as chain:
            pathsum._pathsum_chain(2.5, pairs, [lam], None)
        assert type(chain.value) is refusal
        assert array_sums == [(len(pairs), DomainError)]
        expected = "math range error" if refusal is OverflowError else "theta = 1e-200, theta' = 1e-200"
        assert str(chain.value).endswith(expected)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            PathSumConfig(k_max=0)
        with pytest.raises(DomainError):
            PathSumConfig(prescription="C")

    def test_k_max_is_capped(self):
        # constructor calls only: an evaluation at a huge k_max would build ~4 k_max terms
        for k_max in (10**9, 10_001):
            with pytest.raises(DomainError):
                PathSumConfig(k_max=k_max)
        assert PathSumConfig(k_max=10_000).k_max == 10_000
        with pytest.raises(DomainError, match="k_max"):
            PathSumConfig(k_max=2.5)  # an image count, never rounded

    def test_estimates_report_metadata(self):
        est = kernel_pathsum_general(1.3, 0.03, 1.0, 0.1)
        assert est.near_boundary is True
        assert est.method == "path_sum_general"
        assert est.terms_used == 2 * (2 * 8 + 1)
