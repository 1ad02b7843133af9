"""Reflection decompositions: phases, term structure, and the three kernels.

The free-box image sum is re-derived here as an explicit oracle so the
nu = 1 equivalence is a genuine two-route check, and the spectral kernel
serves as the reference for the asymptotic couplings.
"""

import cmath
import math
import re

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
        ] + [(0.6, 1e-3, 2e-3, 0.05, PathSumConfig(k_max=8, prescription="B"))]
        pruned = overflows = 0
        for nu, theta, theta_p, lam, config in cases:
            terms = decompose(nu, theta, theta_p, lam, config)
            norm = 1.0 / math.sqrt(2.0 * math.pi * lam)
            try:
                weights = [math.exp(t.gauss_exponent + t.potential_correction) for t in terms]
            except OverflowError:
                overflows += 1
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
        assert pruned > 0 and overflows >= 3

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
        # every phase is +-1+0j at integer nu, so the array image sum builds each value with an imaginary
        # part of +0.0 and forms no imaginary sums; the per-pair loop still sums them, to +0.0
        config = PathSumConfig(prescription=prescription)
        pairs = [(0.3, 0.3), (1.0, 2.2), (2.9, 0.05), (1.4, 1.7)]
        lambdas = [3.0, 0.4, 0.1, 0.01]
        values = pathsum._array_values(nu, pairs, lambdas, config)
        assert all(math.copysign(1.0, v.imag) == 1.0 and v.imag == 0.0 for v in values)
        loop = [v for lam in lambdas for v in pathsum._loop_values(nu, pairs, lam, config)]
        assert list(map(repr, values)) == list(map(repr, loop))

    @pytest.mark.parametrize("pairs, lam, first, refusal", [
        # pair 1's weight overflows (its correction is ~9e4) before pair 2, whose sines underflow to 0, refuses its correction
        ([(1.0, 1.2), (0.01, 0.01), (1e-200, 1e-200), (0.5, 2.0), (2.0, 0.5)], 5.0, 1, OverflowError),
        # pairs 2 and 4 refuse their corrections, and pair 2 is met first
        ([(1.0, 1.2), (0.5, 2.0), (1e-200, 1e-200), (2.0, 0.5), (1e-170, 1e-170)], 0.1, 2, DomainError),
    ])
    def test_a_chain_refuses_as_the_scalar_kernel(self, pairs, lam, first, refusal):
        # five points take the array image sum; a correction it refuses sends the chain to the loop, so the
        # refusal is the scalar kernel's at the first refusing pair
        assert len(pairs) >= pathsum._ARRAY_MIN_POINTS
        for theta, theta_p in pairs[:first]:
            kernel_pathsum_general(2.5, theta, theta_p, lam)
        with pytest.raises(refusal) as scalar:
            kernel_pathsum_general(2.5, *pairs[first], lam)
        assert type(scalar.value) is refusal
        with pytest.raises(refusal, match=f"^{re.escape(str(scalar.value))}$") as chain:
            pathsum._pathsum_chain(2.5, pairs, [lam], None)
        assert type(chain.value) is refusal
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
