"""Numeric theta evaluation: tail bounds, variants, functional equations."""

import cmath
import hashlib
import math
import random
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qpl import theta
from qpl.series import triple_pochhammer
from qpl.theta import (
    MAX_PAIRS,
    ThetaPoint,
    _pairs_needed,
    aux_theta,
    quasi_periodicity_residual,
    substituted_point,
    theta_class,
    theta_product,
    theta_series,
)


def _pairs_needed_linear_scan(abs_q, big_z, tol):
    """The scan from t = 1 that _pairs_needed replaced; its reference."""
    log_q = math.log(abs_q)
    log_z = math.log(big_z)
    log_tol = math.log(tol)
    for t in range(1, MAX_PAIRS + 1):
        ratio_ok = (t + 1) * log_q + log_z <= -math.log(2)
        log_tail = math.log(4) + ((t + 1) * (t + 2) // 2) * log_q + (t + 2) * log_z
        log_doc = (t * (t - 1) // 2) * log_q + (t + 1) * log_z - math.log(1 - abs_q)
        if ratio_ok and log_tail < log_tol and log_doc < log_tol:
            return t
    raise ValueError("past MAX_PAIRS")


# (|q|, Z, tol) with |q| from 1e-300 to 1 - 1e-12, Z from 1 to 1e300, tol up to inf
_generic_args = st.tuples(
    st.one_of(
        st.floats(-300, -1e-3).map(lambda e: 10.0**e),
        st.floats(1e-3, 0.999),
        st.floats(-12, -3).map(lambda e: 1 - 10.0**e),
    ),
    st.floats(0, 300).map(lambda e: 10.0**e),
    st.one_of(
        st.floats(-300, 300).map(lambda e: 10.0**e),
        st.sampled_from((4.0, math.nextafter(4.0, 0), math.inf)),
    ),
)


@st.composite
def _bound_holds_at_ratio_root(draw):
    """(|q|, Z, tol) where the published bound holds at the ratio root t.

    |q|^{t+1}·Z lies just below 1/2 and tol just above the published bound at
    t, so the bound's larger root lies up to 3 past the answer t.
    """
    t = draw(st.integers(1, 8))
    frac = draw(st.floats(0, 1, exclude_max=True))
    # log(bound at t) / -log|q|, up to the log 2 and log(1 - |q|) terms
    height = (t + 1) * (t + 1 - frac) - t * (t - 1) // 2
    log_q = -draw(st.floats(0.01, 1)) * 700 / height
    log_z = (t + 1 - frac) * -log_q - math.log(2)
    abs_q = math.exp(log_q)
    log_doc = (t * (t - 1) // 2) * log_q + (t + 1) * log_z - math.log(1 - abs_q)
    log_tol = log_doc + draw(st.floats(0, 1))
    assume(log_z >= 0 and log_tol > -700)
    return abs_q, math.exp(log_z), math.exp(log_tol)


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

    def test_z_past_the_float_range_is_not_finite(self):
        # an int too large for a float gets the ValueError of any other
        # non-finite z, from a directly built point and from from_qz alike
        for z in (10**400, -(10**400)):
            with pytest.raises(ValueError, match="^z must be finite, got "):
                ThetaPoint(0.5, z)
            with pytest.raises(ValueError, match="^z must be finite, got "):
                ThetaPoint.from_qz(0.5, z)
        with pytest.raises(ValueError, match=r"^\|q\| must be < 1"):
            ThetaPoint.from_qz(10**400, 0.5)

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

    # about 40% of the generic draws need more than MAX_PAIRS pairs, and the
    # reference then scans all of them (~0.1 s each), hence the example count
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_generic_args, _bound_holds_at_ratio_root()))
    @example((1.3159086641084938e-43, 3.1578114483136772e66, 3.149478423339146e133))
    @example((1.4256945923783037e-83, 7.484250563840739e145, 1.867853579079366e292))
    @example((1e-300, 1e300, math.inf))
    @example((1 - 1e-12, 1.0, 1e-300))
    def test_pairs_needed_matches_linear_scan(self, args):
        try:
            want = _pairs_needed_linear_scan(*args)
        except ValueError:
            with pytest.raises(ValueError):
                _pairs_needed(*args)
        else:
            assert _pairs_needed(*args) == want

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            theta_series(ThetaPoint.from_qz(0.1, 1.0), 0.0)

    def test_a_subnormal_power_of_z_overflows(self):
        # z^9 is subnormal, and z ** -9 raises
        pt = ThetaPoint.from_qz(complex(5e-11, 5e-11), complex(1e-35, 1e-35))
        with pytest.raises(OverflowError, match=r"^complex exponentiation$"):
            theta_series(pt, 1e-12)

    def test_an_underflowing_power_names_its_exponent(self):
        pt = ThetaPoint.from_qz(1e-10, 1e-40)
        with pytest.raises(OverflowError, match=r"^1/z\^11 overflows a float at \|z\| = 1e-40$"):
            theta_series(pt, 1e-12)


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

    def test_underflowing_inner_tol_is_refused(self):
        # tol / |q^{-1/8} z^{1/2}| = 1e-300 / 2.5e24 underflows to 0
        for variant in "cd":
            with pytest.raises(ValueError, match="tol must be positive"):
                aux_theta(variant, ThetaPoint.from_qz(1e-200j, -0.5j), 1e-300)

    def test_underflowing_inner_z_is_overflow(self):
        # variant d's inner z, -q^{1/2}·z = -1e-480, underflows to 0
        with pytest.raises(OverflowError):
            aux_theta("d", ThetaPoint.from_qz(1e-320, 1e-320), 1e-12)


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

    def test_underflowing_qz_is_overflow(self):
        # q·z = 1e-420 underflows to 0 for a nonzero q and z
        with pytest.raises(OverflowError):
            quasi_periodicity_residual(ThetaPoint.from_qz(1e-320, 1e-100), 1e-12)

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

    def test_substituted_point_bits(self):
        rng = random.Random(20261018)
        for _ in range(200):
            q = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            k, ell = rng.randint(1, 4), rng.randint(0, 4)
            sub = substituted_point(ThetaPoint.from_qz(q, z), k, ell)
            assert (sub.q, sub.z) == (q**k, (q**ell) * z)
            assert repr((sub.q, sub.z)) == repr((q**k, (q**ell) * z))

    def test_underflowing_substitution_is_overflow(self):
        # q^ell·z = 1e-400 underflows to 0 for a nonzero q and z
        pt = ThetaPoint.from_qz(1e-200, 1e-200)
        with pytest.raises(OverflowError):
            substituted_point(pt, 2, 1)
        for variant in "abcd":
            with pytest.raises(OverflowError):
                theta_class(2, 1, variant, pt, 1e-12)

    def test_zero_q_keeps_zero_substituted_z_invalid(self):
        # q = 0 makes q^ell·z exactly 0 for ell >= 1, which is no underflow
        with pytest.raises(ValueError, match=r"q\^ell·z is 0 at q = 0"):
            substituted_point(ThetaPoint.from_qz(0.0, 1.0), 1, 1)


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


def _pinned_points():
    """40 seeded points (q, z, k, ell, factors, tol): |q| from 1e-6 to 0.95,
    |z| from 0.1 to 10, every angle, tol from 1e-15 to 1e-4."""
    rng = random.Random(20261018)
    for i in range(40):
        abs_q = (1e-6, 0.05, 0.3, 0.6, 0.8, 0.9, 0.95)[i % 7] * rng.uniform(0.9, 1)
        q = cmath.rect(abs_q, rng.uniform(-math.pi, math.pi))
        z = cmath.rect(10 ** rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi))
        tol = (1e-15, 1e-12, 1e-8, 1e-4)[i % 4]
        yield q, z, rng.randint(1, 3), rng.randint(0, 2), rng.randint(10, 60), tol


def _theta_bits(q, z, k, ell, factors, tol):
    """float.hex of every real and imaginary part the theta calls return."""
    point = ThetaPoint.from_qz(q, z)
    values = [
        theta_series(point, tol),
        theta_product(point, factors),
        *quasi_periodicity_residual(point, tol),
        *(theta_class(k, ell, variant, point, tol) for variant in "abcd"),
    ]
    return " ".join(
        float.hex(part) for v in map(complex, values) for part in (v.real, v.imag)
    )


# sha256 of _theta_bits per point, taken from the code before _pairs_needed
# found its start in closed form (CPython 3.11, x86-64 Linux)
THETA_BITS = (
    "ffc221b2f21977f162005d175e3b3492b42e5a8611c7bdfde9875080b76ec3a2",
    "b58973215db2e1be36272fa8ef210388e0a51fb913704c88e9990cd114af22e1",
    "fe3060d4f9f1caf5df7664b7b7b6385bcaa30e84745e2ee0f78e56c619516ac3",
    "90708a7f01f441c920b261926cbfbcd37bfcc597d73358dd89b2a742342cf97d",
    "6e79a2592ca8e65ae52ab92bdcc4ef6b285637f901c68984217a86c616033936",
    "d699ee8c09c00b6031ec428b497d328c099b3d52df0ca6254cac9e4e3500ac38",
    "8c3c0af9bf367bd81a3577bf8ca571ee6a25e201d6b28fdd705082f26aaed966",
    "4b266b540a9538b84ee973f30efa7f52649f4e314cffd2547b97bf7bea665d2e",
    "38f9239b6ff39975b225a12a4c8e7d5af3fb2c005e0ad034bbf5ea4b7253c5cc",
    "357eefbade2bad2d6d419f8247a4eeb8d7c8a6a05a1a710f0dbbcbca3dad87a5",
    "4af9f0ab0363dc810cffc32d8e6521591a95a684929f74f17d1c48b5f9cc4397",
    "c0272a266f256b52629daba2ea506d002522bbd5dc582a80ad12cbc54badce13",
    "8f633127daae62da2e18ebecdaa3088204a238f6683bd9740e75de45b2082890",
    "3dcbebb93c4ef7666a16205c35c4571f43fccc5467ab108202dec265cde66a8c",
    "f12e284a52c095abc1681bf153db5a796a296eb5bdb143845134b182b83a0b02",
    "ac80c787ba45ef9a1ff3bb44793533139e5cadf452c27b4c76dd7055c93546ce",
    "23fec74a59d6604dda6ab7bbafaf194e517e504ec8b42dab8ddf84b268f73541",
    "818984e1fcff962bde0972ca7f071d28cf02c52ceb236c7323acc4ea1b9ac7fe",
    "17b89dc709b78ba4b07a1b91150fc9bc12f3388d2716d77495815113501b39f1",
    "34685bb46ae0075877338b14906084e05c5123fd5bb0981a35a8dc240faa273e",
    "e8bf4f6f7e48caf1be9a30d8e930dd2d1f78677ec75557dd4bb7ab68a84297b4",
    "80268941b446615443f5cb82b72fdb5401da0480e9d446b76579cedbfc6b0590",
    "7449fc4803466cd9ab7bcf4660e5b820ab887c10b0287635852e7220f71369e8",
    "63bf654bd7ea0878af9f976eceb09f53acecc07bddfc4aad3cb95d5a2b4de491",
    "218f48b7ceb07706ee36c69e2b028154de18b7aa25118008a1ed55581d11f469",
    "065c7abb045ace078f1d5033a95a7f5b4131743d9a66d44244811511a405bc19",
    "d75cedb78be79a3089eba3d51f11f329c59fc5fe43abb25d8a40b1008c3d3532",
    "de5c151a503b402fccd67f265e33583e22410097e53be1429d61148797cf0cde",
    "cba77c2503f5899101a09b8d7237c7ede0d783d95affb5b50d933f2c51880c02",
    "40be50f906e49cdeb236c6c59b9b0fcb7b34fc8e14fe5324c32c07736522cb49",
    "71f763167eb2d18f534b2bd2a3e7a8a302a5f4e2c713461474e4f4452148415b",
    "92315a7d6775f0de76133074bbdd6c342925d0934fcbf891dfcb7bcf0236ce9e",
    "fe772f2a585c59ec2c3ba7964bb7f24a63186e29af2644dd32833d92dfefc8c3",
    "a5fc3198ecb091278a77a45319a93110d7688a9112a09504580760ddb0c7843c",
    "91dbbfab0120ae508a8e266bf42c7c18ecfb0d9c06c2b80e2ec5ab61a4c928c9",
    "89e21b1afad49bd5f461d2c88d68e8c8d0b41b23f116e945c9eed7f44c9ad1ea",
    "2d56946704395fe133360852d56c58b33ae1762c45fb6348f6981c43ae508577",
    "0fef188867904e5cb59e5a892836834151046e217b254b9e31318835c403baa1",
    "e242c68095d0c1bc35a62627d01898e5f2a7e8c635128ff442ea5af3982f195d",
    "46fcccf2fbeb25b9ee483724550d2d7b9d8501a59e1869c5ad346c980ef72755",
)


class TestBits:
    @pytest.mark.parametrize("index", range(len(THETA_BITS)))
    def test_values_unchanged(self, index):
        args = list(_pinned_points())[index]
        bits = _theta_bits(*args)
        assert hashlib.sha256(bits.encode()).hexdigest() == THETA_BITS[index], bits


# (q, z, k, ell, factors, tol) for paths the shared work takes: the identity
# substitution at |q| ~ 0.9 (theta_series, the residual and variant a sum one
# series), pairs of points that ThetaPoint equality cannot tell apart because
# a component is +0.0 in one and -0.0 in the other, a point needing 305
# pairs (|q| ~ 0.995, |z| < 1), and the first point again at a coarser
# tolerance.
_EDGE_POINTS = (
    (complex(0.5567, 0.7012), complex(-2.25, 1.125), 1, 0, 40, 1e-12),
    (complex(-0.5, 0.0), complex(2.0, 0.0), 1, 0, 20, 1e-12),
    (complex(-0.5, -0.0), complex(2.0, 0.0), 1, 0, 20, 1e-12),
    (complex(0.5, 0.0), complex(-2.0, 0.0), 1, 0, 20, 1e-12),
    (complex(0.5, 0.0), complex(-2.0, -0.0), 1, 0, 20, 1e-12),
    (complex(0.0, 0.6), complex(0.0, -1.5), 2, 1, 20, 1e-12),
    (complex(-0.0, 0.6), complex(0.0, -1.5), 2, 1, 20, 1e-12),
    (complex(-0.7, 0.0), complex(0.25, 0.0), 3, 1, 20, 1e-8),
    (complex(-0.7, -0.0), complex(0.25, 0.0), 3, 1, 20, 1e-8),
    (complex(-0.7, -0.0), complex(0.25, -0.0), 3, 1, 20, 1e-8),
    (complex(0.995, 0.03), complex(0.5, 0.25), 1, 0, 60, 1e-12),
    (complex(0.5567, 0.7012), complex(-2.25, 1.125), 1, 0, 40, 1e-4),
)

# sha256 of _theta_bits per edge point, taken from the code before the series
# shared any work (CPython 3.11, x86-64 Linux)
EDGE_BITS = (
    "623fc1e9aefe858304b1176dd004cef97ccd0b4af289ac76dc8bbfd9c7b22228",
    "0e0ea76d457cb0b4b9f5788b6c43fd3e01d34e3958ff1b21faef9e4de70a97f8",
    "7f4e9907e8321b16de0d844efb7ca1d1b337c48fff6656d890bb8f82899faa2d",
    "f84e5783a3c51c2be0f1225e1da8257a3b34d198478a41106c627f2513f2f251",
    "2da9c3ea15e79c1e803478945b96844fae110ea1317be0749176cf307a89d0d4",
    "ff8ebfaba68c0115d844d224555b7f23bd6d784e2c91029de63d96bfd14ce4cc",
    "f60a044c636e413d0532428c84eb6f5988f5f63f743128afa6ca89c7485ecd6e",
    "3829d296366b46429bd5b6c0d0aa338d43a979160183fde08f93829a73df671a",
    "1790526acd1cfc6f4385ca3385b05e8b6dd43ea4a70ea2f8253bfcd969f31968",
    "1513b48f03d0a1860c61b2deefcd99e13bbaad4fce5ff32b9ac63c5f2e065ea1",
    "a9211d070f54fc0baca3ebb69d9daa5b7b57bb2bd6df648e4530e605d460bf68",
    "54d644b54ab597db519538b234969fb01e350e1e7e572b0162e33622ef81e88b",
)


def _clear_theta_caches():
    for cache in theta._CACHES:
        cache.cache_clear()
    theta._q_tables.clear()


class TestSharedWork:
    @pytest.mark.parametrize("index", range(len(_EDGE_POINTS)))
    def test_edge_values_unchanged(self, index):
        _clear_theta_caches()
        bits = _theta_bits(*_EDGE_POINTS[index])
        assert hashlib.sha256(bits.encode()).hexdigest() == EDGE_BITS[index], bits

    def test_any_order_and_cleared_caches_give_the_same_bits(self):
        cases = list(zip(_EDGE_POINTS + tuple(_pinned_points()), EDGE_BITS + THETA_BITS))
        rng = random.Random(20261019)
        for clear in (False, True, False):
            rng.shuffle(cases)
            if clear:
                _clear_theta_caches()
            for args, want in cases:
                assert hashlib.sha256(_theta_bits(*args).encode()).hexdigest() == want, args
        for cache in theta._CACHES:
            info = cache.cache_info()
            assert info.currsize <= info.maxsize
        assert len(theta._q_tables) <= 2

    def test_long_q_tables_are_not_kept(self):
        _clear_theta_caches()
        q = 0.6 + 0.7j
        assert len(theta._q_powers(q, theta._Q_TABLE_MAX)) == theta._Q_TABLE_MAX + 1
        assert len(theta._q_tables[q]) == theta._Q_TABLE_MAX + 1
        longer = theta._q_powers(q, theta._Q_TABLE_MAX + 1)
        assert longer == tuple(q ** (m * (m + 1) // 2) for m in range(len(longer)))
        assert len(theta._q_tables[q]) == theta._Q_TABLE_MAX + 1

    def test_threads_sharing_the_memos_get_the_same_bits(self):
        # every thread takes the points in the same order and empties the
        # memos before each, so threads build the same q table at once
        cases = list(zip(_EDGE_POINTS + tuple(_pinned_points()), EDGE_BITS + THETA_BITS))
        start = threading.Barrier(4)
        wrong = []

        def work():
            start.wait()
            for args, want in cases * 5:
                _clear_theta_caches()
                if hashlib.sha256(_theta_bits(*args).encode()).hexdigest() != want:
                    wrong.append(args)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_signed_zero_points_are_never_mixed_up(self):
        # consecutive points that compare and hash equal, caches kept warm
        signed = range(1, 10)
        for index in [*signed, *reversed(signed)]:
            bits = _theta_bits(*_EDGE_POINTS[index])
            assert hashlib.sha256(bits.encode()).hexdigest() == EDGE_BITS[index], index

    def test_series_at_two_tolerances_are_summed_apart(self):
        pt = ThetaPoint.from_qz(0.45 + 0.3j, 3.7 - 1.1j)
        _clear_theta_caches()
        coarse = theta_series(pt, 1e-4)
        fine = theta_series(pt, 1e-15)
        _clear_theta_caches()
        assert theta_series(pt, 1e-15) == fine
        assert theta_series(pt, 1e-4) == coarse
        assert coarse != fine

    def test_real_fields_keep_their_own_arithmetic(self):
        # A ThetaPoint built directly may hold a float or an int, whose powers
        # CPython computes as reals; variant b converts to complex first.
        want = {
            (0.3, 2.5): ("0x1.7cd1b0ecab7b7p+2", "-0x1.13dc986cbb1b8p-3"),
            (0.3, 2): ("0x1.256ba6221d483p+2", "-0x1.2ed3bcff47810p-3"),
            (0.3, 0.13): ("0x1.592c6415af8b5p+2", "-0x1.2c2efc64c18acp-3"),
            (-0.45, 0.13): ("-0x1.783a2c00490aep+1", "-0x1.bfa29da7ec00ep+1"),
        }
        for (q, z), (series, variant_b) in want.items():
            pt = ThetaPoint(q, z)
            got = (theta_series(pt, 1e-13), aux_theta("b", pt, 1e-13))
            assert [(v.real.hex(), v.imag) for v in got] == [(series, 0), (variant_b, 0)]


# --------------------------------------------------------------------------
# An independent reference: the series and the product summed in decimal
# --------------------------------------------------------------------------

# (re, im) pairs of Decimals at 60 digits; no qpl code runs in the reference
_ONE = (Decimal(1), Decimal(0))


def _dec(x):
    x = complex(x)
    return (Decimal(x.real), Decimal(x.imag))  # exact: every float is a decimal


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _abs(a):
    return (a[0] * a[0] + a[1] * a[1]).sqrt()


def _inv(a):
    norm = a[0] * a[0] + a[1] * a[1]
    return (a[0] / norm, -a[1] / norm)


def reference_series(q, z):
    """(T(z|q), S): the sum of q^{n(n-1)/2} z^n over n in Z, and S, the sum of
    the terms' magnitudes, both rounded once to floats.

    From t_0 = 1, t_{n+1} = t_n·q^n·z upwards and t_{-m-1} = t_{-m}·q^{m+1}/z
    downwards. Each side stops at a term below 1e-50·S whose next ratio is
    below 1/2; the ratios only shrink after it, so the rest is below that term.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        q, z = _dec(q), _dec(z)
        total, mags, abs_q = list(_ONE), Decimal(1), _abs(q)
        for qn, step in ((_ONE, z), (q, _inv(z))):
            t, abs_qn, abs_step = _ONE, _abs(qn), _abs(step)
            while True:
                t = _mul(t, _mul(qn, step))
                qn, abs_qn = _mul(qn, q), abs_qn * abs_q
                mag = _abs(t)
                total[0] += t[0]
                total[1] += t[1]
                mags += mag
                if mag <= mags * Decimal("1e-50") and abs_qn * abs_step < Decimal("0.5"):
                    break
        return complex(float(total[0]), float(total[1])), float(mags)


def reference_product(q, z, factors):
    """(prod_{m=1}^{factors} (1-q^m)(1+q^m/z)(1+q^{m-1}z), B), B the product of
    the factors' magnitude sums (1+|q^m|)(1+|q^m/z|)(1+|q^{m-1}z|)."""
    with localcontext() as ctx:
        ctx.prec = 60
        q, z = _dec(q), _dec(z)
        z_inv = _inv(z)
        acc, bound, qm = _ONE, Decimal(1), _ONE
        for _ in range(factors):
            a = _mul(qm, z)  # q^{m-1}·z
            qm = _mul(qm, q)
            b = _mul(qm, z_inv)  # q^m/z
            factor = _mul((1 - qm[0], -qm[1]), _mul((1 + b[0], b[1]), (1 + a[0], a[1])))
            acc = _mul(acc, factor)
            bound *= (1 + _abs(qm)) * (1 + _abs(b)) * (1 + _abs(a))
        return complex(float(acc[0]), float(acc[1])), float(bound)


def reference_variant(variant, q, z):
    """(value, S) of aux_theta's variant at (q, z) as its docstring defines it:
    the series in decimal, the q^{-1/8}, z^{1/2} and q^{1/2} of c and d with
    cmath on the principal branch, arg in (-pi, pi], so an imaginary part of
    -0.0 counts as +0.0 (-0.0 + 0.0 is +0.0)."""
    if variant in "ab":
        return reference_series(q, z if variant == "a" else -z)
    q, z = complex(q.real, q.imag + 0.0), complex(z.real, z.imag + 0.0)
    prefactor = cmath.exp(-cmath.log(q) / 8) * cmath.sqrt(z)
    inner = cmath.sqrt(q) * z
    value, s = reference_series(q, inner if variant == "c" else -inner)
    return prefactor * value, abs(prefactor) * s


def _sample_points():
    """200 seeded points (q, z, k, ell, factors, tol): |q| up to 0.99, every
    angle, |z| from 10^-0.5 to 10^0.5 (wider |z| at |q| near 1 takes powers of
    z past the float range), tol from 1e-15 to 1e-4."""
    rng = random.Random(19)
    for i in range(200):
        q = cmath.rect(rng.uniform(0, 0.99), rng.uniform(-math.pi, math.pi))
        z = cmath.rect(10 ** rng.uniform(-0.5, 0.5), rng.uniform(-math.pi, math.pi))
        tol = (1e-15, 1e-12, 1e-8, 1e-4)[i % 4]
        yield q, z, rng.randint(1, 3), rng.randint(0, 2), rng.randint(10, 60), tol


REFERENCE_POINTS = {
    "pinned": tuple(_pinned_points()),
    "edge": _EDGE_POINTS,
    "sample": tuple(_sample_points()),
}

# Checks that miss the reference today, each the subject of an open FOUND in
# CHANGES.md; every other check of the same point still runs.
_BRANCH_CUT = (
    "aux_theta variants c and d take a -0.0 imaginary part of q^k or q^ell·z "
    "as the lower side of the branch cut, not arg = pi"
)
_Q_POWERS = (
    "theta's q^{m(m+1)/2} by one complex ** carries the rounding of |q| and "
    "arg q times the exponent: 1.1e-13·S off at |q| = 0.995, 305 pairs"
)
KNOWN_MISSES = {
    **{("edge", i, v): _BRANCH_CUT for i in (2, 4, 6, 8, 9) for v in "cd"},
    ("edge", 10, "b"): _Q_POWERS,
    ("edge", 10, "d"): _Q_POWERS,
}


def _reference_error(points, index, check):
    """(|value - reference|, allowed) for one check of one point: tol + 1e-13·S
    for the series and the variants, 1e-13 times the product of the factors'
    magnitude sums for theta_product."""
    q, z, k, ell, factors, tol = REFERENCE_POINTS[points][index]
    point = ThetaPoint.from_qz(q, z)
    if check == "product":
        want, bound = reference_product(point.q, point.z, factors)
        return abs(theta_product(point, factors) - want), 1e-13 * bound
    if check == "series":
        got = theta_series(point, tol)
        want, s = reference_series(point.q, point.z)
    else:  # the substitution as substituted_point's docstring defines it
        got = theta_class(k, ell, check, point, tol)
        want, s = reference_variant(check, point.q**k, point.q**ell * point.z)
    return abs(got - want), tol + 1e-13 * s


class TestReference:
    CHECKS = ("series", "product", "a", "b", "c", "d")

    @pytest.mark.parametrize(
        "points,index",
        [(name, i) for name, pts in REFERENCE_POINTS.items() for i in range(len(pts))],
    )
    def test_within_the_reference_bound(self, points, index):
        misses = {}
        for check in self.CHECKS:
            if (points, index, check) not in KNOWN_MISSES:
                error, allowed = _reference_error(points, index, check)
                if not error <= allowed:
                    misses[check] = (error, allowed)
        assert not misses

    @pytest.mark.parametrize(
        "points,index,check",
        [
            pytest.param(*key, marks=pytest.mark.xfail(strict=True, reason=reason))
            for key, reason in KNOWN_MISSES.items()
        ],
    )
    def test_known_misses(self, points, index, check):
        error, allowed = _reference_error(points, index, check)
        assert error <= allowed
