"""Numeric theta evaluation: tail bounds, variants, functional equations."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from qpl.series import triple_pochhammer
from qpl.theta import (
    MAX_PAIRS,
    ThetaPoint,
    _pairs_needed,
    aux_theta,
    quasi_periodicity_residual,
    theta_class,
    theta_product,
    theta_series,
)


class TestPoint:
    def test_domain_checks(self):
        with pytest.raises(ValueError):
            ThetaPoint.from_qz(1.0, 1.0)
        with pytest.raises(ValueError):
            ThetaPoint.from_qz(0.5 + 0.9j, 1.0)
        with pytest.raises(ValueError):
            ThetaPoint.from_qz(0.3, 0.0)

    def test_non_finite_rejected(self):
        nan, inf = float("nan"), float("inf")
        points = (
            (nan, 1.0), (complex(0.1, nan), 1.0), (0.3, nan), (0.3, inf), (0.3, complex(1, -inf)),
        )
        for q, z in points:
            with pytest.raises(ValueError):
                ThetaPoint.from_qz(q, z)

    def test_nu_tau_conversion(self):
        pt = ThetaPoint.from_nu_tau(0.25, 0.5j)
        assert abs(pt.q - math.exp(-math.pi)) < 1e-15
        assert abs(pt.z - 1j) < 1e-15
        with pytest.raises(ValueError):
            ThetaPoint.from_nu_tau(0.0, -0.5j)


class TestSeries:
    def test_triangular_sum_at_one(self):
        # independent oracle: exact rational triangular-number sum
        q = Fraction(1, 10)
        exact = 2 * sum(q ** (t * (t + 1) // 2) for t in range(40))
        got = theta_series(ThetaPoint.from_qz(0.1, 1.0), 1e-14)
        assert abs(got - float(exact)) < 1e-13
        assert abs(got - 2.202002000200002) < 1e-12

    def test_minus_one_cancels_exactly(self):
        for q in (0.1, 0.5, 0.3 + 0.4j):
            assert theta_series(ThetaPoint.from_qz(q, -1.0), 1e-13) == 0

    def test_q_zero(self):
        assert theta_series(ThetaPoint.from_qz(0.0, 2.5 + 1j), 1e-13) == 3.5 + 1j

    def test_tolerance_is_honored(self):
        pt = ThetaPoint.from_qz(0.45, 3.7 - 1.1j)
        coarse = theta_series(pt, 1e-6)
        fine = theta_series(pt, 1e-15)
        assert abs(coarse - fine) < 1e-6

    def test_pair_cap_admits_q_near_one(self):
        assert 60_000 < _pairs_needed(0.99999, 1.0, 1e-12) <= MAX_PAIRS

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            theta_series(ThetaPoint.from_qz(0.1, 1.0), 0.0)


class TestProduct:
    def test_vanishing_factor_at_minus_one(self):
        for m in (1, 5, 40):
            assert theta_product(ThetaPoint.from_qz(0.3, -1.0), m) == 0

    def test_q_zero(self):
        assert theta_product(ThetaPoint.from_qz(0.0, 0.25), 7) == 1.25

    def test_converges_to_series(self):
        pt = ThetaPoint.from_qz(0.3, 0.7 + 0.2j)
        series = theta_series(pt, 1e-14)
        assert abs(series - theta_product(pt, 60)) < 1e-12
        # successive products get closer
        d10 = abs(series - theta_product(pt, 10))
        d30 = abs(series - theta_product(pt, 30))
        assert d30 <= d10

    def test_needs_a_factor(self):
        with pytest.raises(ValueError):
            theta_product(ThetaPoint.from_qz(0.3, 1.0), 0)


class TestAux:
    def test_b_is_a_at_negated_z(self):
        pt = ThetaPoint.from_qz(0.2 + 0.1j, 0.8 - 0.3j)
        neg = ThetaPoint.from_qz(pt.q, -pt.z)
        assert aux_theta("b", pt, 1e-13) == aux_theta("a", neg, 1e-13)

    def test_triangular_partial_sum_residual(self):
        q = 0.2
        got = aux_theta("a", ThetaPoint.from_qz(q, 1.0), 1e-14)
        partial = 2 * sum(q**t for t in (0, 1, 3, 6, 10))
        tail = 2 * sum(q**t for t in (15, 21, 28, 36, 45, 55))
        assert abs(got - partial) <= tail + 1e-10

    def test_c_cross_path(self):
        q = 0.25
        got = aux_theta("c", ThetaPoint.from_qz(q, 1.0), 1e-12)
        direct = q ** (-0.125) * theta_series(
            ThetaPoint.from_qz(q, q**0.5), 1e-14
        )
        assert abs(got - direct) < 1e-12

    def test_d_negates_inner_argument(self):
        pt = ThetaPoint.from_qz(0.2, 1.3)
        d_val = aux_theta("d", pt, 1e-13)
        manual = (0.2 ** (-0.125)) * (1.3**0.5) * theta_series(
            ThetaPoint.from_qz(0.2, -(0.2**0.5) * 1.3), 1e-14
        )
        assert abs(d_val - manual) < 1e-12

    def test_cd_need_nonzero_q(self):
        with pytest.raises(ValueError):
            aux_theta("c", ThetaPoint.from_qz(0.0, 1.0), 1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            aux_theta("e", ThetaPoint.from_qz(0.1, 1.0), 1e-12)


class TestQuasiPeriodicity:
    def test_sample_points(self):
        for q, z in [(0.4, 1.3 - 0.5j), (0.5, 1.0), (0.2 + 0.3j, 0.3j)]:
            r1, r2 = quasi_periodicity_residual(ThetaPoint.from_qz(q, z), 1e-13)
            assert r1 < 1e-11
            assert r2 == 0.0

    def test_nu_tau_second_residual(self):
        pt = ThetaPoint.from_nu_tau(0.3 + 0.2j, 0.1 + 0.5j)
        r1, r2 = quasi_periodicity_residual(pt, 1e-13)
        assert r1 < 1e-11
        assert r2 < 1e-11

    def test_q_zero_excluded(self):
        with pytest.raises(ValueError):
            quasi_periodicity_residual(ThetaPoint.from_qz(0.0, 1.0), 1e-12)

    def test_random_sample(self):
        rng = random.Random(20260808)
        for _ in range(40):
            q = rng.uniform(0.05, 0.5) * cmath.exp(2j * math.pi * rng.random())
            z = math.exp(rng.uniform(math.log(0.1), math.log(10.0))) * cmath.exp(
                2j * math.pi * rng.random()
            )
            r1, _ = quasi_periodicity_residual(ThetaPoint.from_qz(q, z), 1e-13)
            assert r1 < 1e-11


class TestClass:
    def test_identity_substitution(self):
        pt = ThetaPoint.from_qz(0.3 + 0.1j, 0.9 - 0.2j)
        for variant in "abcd":
            assert theta_class(1, 0, variant, pt, 1e-12) == aux_theta(
                variant, pt, 1e-12
            )

    def test_jacobi_normalization(self):
        # (k, ell) = (2, 1), variant a, z = 1: sum over n of q^{n^2}
        q = 0.3
        got = theta_class(2, 1, "a", ThetaPoint.from_qz(q, 1.0), 1e-13)
        direct = sum(q ** (n * n) for n in range(-25, 26))
        assert abs(got - direct) < 1e-12

    def test_class_quasi_periodicity(self):
        q, z = 0.35, 1.2 - 0.4j
        sub = ThetaPoint.from_qz(q**3, (q**2) * z)
        r1, _ = quasi_periodicity_residual(sub, 1e-13)
        assert r1 < 1e-11

    def test_validation(self):
        pt = ThetaPoint.from_qz(0.3, 1.0)
        with pytest.raises(ValueError):
            theta_class(0, 1, "a", pt, 1e-12)
        with pytest.raises(ValueError):
            theta_class(2, -1, "a", pt, 1e-12)


class TestExactBridge:
    @pytest.mark.parametrize("k,ell,sign", [(3, 1, -1), (3, 1, 1), (5, 2, -1), (4, 1, 1)])
    def test_series_truncation_agrees(self, k, ell, sign):
        # the truncated exact expansion, evaluated at a real q, matches the
        # analytic series at the substituted point far below the tail bound
        q0 = 0.3
        tp = triple_pochhammer(k, ell, sign, 60)
        poly_value = sum(c * q0**n for n, c in enumerate(tp.coeffs))
        theta_value = theta_series(
            ThetaPoint.from_qz(q0**k, sign * q0**ell), 1e-14
        )
        assert abs(poly_value - theta_value) < 1e-12
