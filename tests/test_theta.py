"""Numeric theta evaluation: tail bounds, variants, functional equations."""

import cmath
import hashlib
import math
import pickle
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

    def test_a_point_of_ints_sums_to_a_complex(self):
        value = theta_series(ThetaPoint(0, 1), 1e-12)
        assert type(value) is complex and value == 2 + 0j

    def test_nu_tau_conversion(self):
        pt = ThetaPoint.from_nu_tau(0.25, 0.5j)
        assert abs(pt.q - math.exp(-math.pi)) < 1e-15
        assert abs(pt.z - 1j) < 1e-15
        with pytest.raises(ValueError):
            ThetaPoint.from_nu_tau(0.0, -0.5j)

    def test_nu_tau_must_describe_the_point(self):
        # coordinates of another point once gave a second residual of 6.42
        with pytest.raises(ValueError, match=r"^nu = \(0\.3\+0j\) and tau = 1j give q = "):
            quasi_periodicity_residual(ThetaPoint(0.5, 2, nu=0.3, tau=1j), 1e-12)
        with pytest.raises(ValueError, match=r"^Im\(tau\) must be positive$"):
            ThetaPoint(0.5, 2, nu=0.3, tau=-1j)
        for nu, tau in ((0.3, None), (None, 1j)):
            with pytest.raises(ValueError, match="^nu and tau must be given together$"):
                ThetaPoint(0.5, 2, nu=nu, tau=tau)

    def test_nu_tau_are_coerced_and_kept_through_pickle(self):
        pt = ThetaPoint.from_nu_tau(Fraction(3, 10), 0.1 + 0.5j)
        assert type(pt.nu) is complex and type(pt.tau) is complex
        assert ThetaPoint(pt.q, pt.z, nu=Fraction(3, 10), tau=0.1 + 0.5j) == pt
        copy = pickle.loads(pickle.dumps(pt))
        assert copy == pt and repr(copy) == repr(pt)
        assert quasi_periodicity_residual(copy, 1e-13) == quasi_periodicity_residual(pt, 1e-13)


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
        # z^9 is subnormal, and (1/z)^9, the last of the 9 pairs' z^{-m}, overflows
        pt = ThetaPoint.from_qz(complex(5e-11, 5e-11), complex(1e-35, 1e-35))
        with pytest.raises(
            OverflowError, match=r"^1/z\^9 overflows a float at \|z\| = 1\.414213562373095e-35$"
        ):
            theta_series(pt, 1e-12)

    def test_the_last_power_of_z_is_checked_too(self):
        # 3 pairs take z^1..z^4, and only z^4 = 1e400 leaves the float range
        with pytest.raises(OverflowError, match=r"^z\^4 overflows a float at \|z\| = 1e\+100$"):
            theta_series(ThetaPoint.from_qz(1e-300, 1e100), 1e-12)

    def test_a_sum_past_the_range_with_every_power_inside_is_a_term(self):
        error = theta._first_overflow(0.5 + 0.5j, 3)
        assert type(error) is OverflowError
        assert str(error) == "a theta term overflows a float at |z| = 0.7071067811865476"

    def test_an_underflowing_power_names_its_exponent(self):
        # of the 11 pairs' z^{-m}, (1/z)^8 = 1e320 is the first past the float range
        pt = ThetaPoint.from_qz(1e-10, 1e-40)
        with pytest.raises(OverflowError, match=r"^1/z\^8 overflows a float at \|z\| = 1e-40$"):
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


class TestFiniteOrRefused:
    """Every value is a finite complex; a point whose powers or terms leave
    the float range raises OverflowError, and one past MAX_PAIRS ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.just(0.0),
            st.floats(-300, -1).map(lambda e: 10.0**e),
            st.floats(0.1, 0.999),
        ),
        st.one_of(st.floats(-300, 300), st.floats(-0.5, 0.5)).map(lambda e: 10.0**e),
        st.floats(-math.pi, math.pi),
        st.floats(-math.pi, math.pi),
        st.one_of(st.floats(-15, 0).map(lambda e: 10.0**e), st.just(math.inf)),
    )
    # at tol = inf the inner series of c and d is finite, with one pair, but
    # its product with q^{-1/8}·z^{1/2} overflows
    @example(1e-300, 1e300, 0.0, 0.0, math.inf)
    @example(0.1, 1e39, 0.0, 1.0, 1e-12)  # z^8 overflows; a complex ** once gave nan
    @example(0.9995, 1.74, 0.0, 0.0, 1e-12)  # z^1282 overflows
    def test_values_are_finite_or_refused(self, abs_q, abs_z, arg_q, arg_z, tol):
        point = ThetaPoint(cmath.rect(abs_q, arg_q), cmath.rect(abs_z, arg_z))
        calls = [lambda: theta_series(point, tol)]
        calls += [lambda v=v: aux_theta(v, point, tol) for v in "abcd"]
        for call in calls:
            try:
                value = call()
            except (OverflowError, ValueError):
                continue
            assert type(value) is complex and cmath.isfinite(value)


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
    return _theta_values_hex(ThetaPoint.from_qz(q, z), k, ell, factors, tol)


def _theta_values_hex(point, k, ell, factors, tol):
    values = [
        theta_series(point, tol),
        theta_product(point, factors),
        *quasi_periodicity_residual(point, tol),
        *(theta_class(k, ell, variant, point, tol) for variant in "abcd"),
    ]
    return " ".join(
        float.hex(part) for v in map(complex, values) for part in (v.real, v.imag)
    )


# sha256 of _theta_bits per point, taken from the code that builds every power
# by running products; every value is inside TestReference's bound (CPython
# 3.11, x86-64 Linux)
THETA_BITS = (
    "ffc221b2f21977f162005d175e3b3492b42e5a8611c7bdfde9875080b76ec3a2",
    "0aa07a84877db2829cecbc5eb3e6264089ec51156dec267434365f5076442538",
    "5790e700e43f733056d8f7d92d2687a47b3f62873b5a275fe4e0114745b79eec",
    "2a1be112735b6cceccb1b6463a3830f43cbc41de5cecf9537c74f419af0749ba",
    "8ccf67e51cccf09a0030243862795ed2a902452558777644a2b12c6e3355a5cf",
    "67d242b49f34c254be5d4e23593b0d3eec0eeb7c28400baacc1465f7f5740c44",
    "4422c743b2850c9f2f27ead45e8033d6c2d15fc25225bd429b2c82ed679912f1",
    "4b266b540a9538b84ee973f30efa7f52649f4e314cffd2547b97bf7bea665d2e",
    "38f9239b6ff39975b225a12a4c8e7d5af3fb2c005e0ad034bbf5ea4b7253c5cc",
    "b0b5bddd15dc1756bd079d62314ee75c3810a51b96f4523d0f0e5b9e1ddf7bc3",
    "4f60f72b715bc4ff4e8180d999b1188be1e39bcf7cad4c51af0d494b95b16ea6",
    "6219e944f045a80cc4dbe97b6206409062d3096de1fbcd001e497bd55cc39f1b",
    "9552008e302831454bae3cf33e80359ef56de83e7b2a3745a4c6d8850cc9622e",
    "0c22e70c8d1b87b16e1cc17b29cb910d53a246bbf68420df9638d7a76bf07c91",
    "f12e284a52c095abc1681bf153db5a796a296eb5bdb143845134b182b83a0b02",
    "8bf2a673d9ab41f0516356e0866e9622d27e942fd6ab278a4f9db9428d63b822",
    "7959790ffc3dce50c8a072606fb5c97da7f11d60cbe916c9c380ec73a51ebdd3",
    "01a9ef0a9636f9befd86b44e17e4d7a68b24a3fbbc805a559bd3ac9a32152de1",
    "dddeb9acdfb3eb5a792d35f65ea14ab9e0168153919e0d27a07a3e9a45f0a9aa",
    "4e767dd790bf066bd0e8e825a4d3179b92eb85141dd7e6be394fe93152e6a1c0",
    "e82f70ee0f86dcbe29e59586879aaa97b65cdde6f97f8de5aba39ede45d90695",
    "80268941b446615443f5cb82b72fdb5401da0480e9d446b76579cedbfc6b0590",
    "7449fc4803466cd9ab7bcf4660e5b820ab887c10b0287635852e7220f71369e8",
    "c9574755351073f478c30ded78fb57bc209c83d3b80181f8a7edee2a7c0ae09b",
    "959e1deb415125f74f593f7dc9b95b2131c475010b35b09c52a4021398c0fe32",
    "b2e8c133361fca0c927221f9b30620ddc20ec3e0016afcafbb4ed275277774aa",
    "4c0e103868fbfc45e4d90ef06b3734a46799f0145c6208192ab8d23f4f9a423a",
    "445efbab132eb38cd1229a63e3f974a11dcab967108ae6ca358105d85ad2a48a",
    "7076d12d0c7e9c679f4e475660970febced5395715e582d66e5596b5385dfd72",
    "1807e2faa2755fea36b4d4de87d57d52d64572537cfa4377aee5d2b3888b8ed5",
    "71f763167eb2d18f534b2bd2a3e7a8a302a5f4e2c713461474e4f4452148415b",
    "d94228503afb12a00b881d2c1bff4bb7e31d8c859a8677ea6412b413afba1630",
    "ef2ad51fda8341e63dc378ee86473470075d66b11f5ec1d0f24ee647831887ad",
    "62d48cda3dd88d9f2585c911892d7231fc0055ec839559286923ecac8545c49e",
    "65c2dfe9c6255b9d8b6055506c2744b533bf8d6ca1842f9f4f583fa51f946f57",
    "4afa6fe45691464c870c6a31725dde3a116d808393812b331b45b0f8917bb75e",
    "65d05a92885ac242fd58d7bc900724b68b0d60bce90c4259f1ac5be7ab92d63c",
    "0fef188867904e5cb59e5a892836834151046e217b254b9e31318835c403baa1",
    "525ccf39d094844a0c927cea0d046685388de6b39597230b0d54cbdd8e4dba66",
    "c80f527b674c8a57adc6bd7694c4529175463021bb945fff1b2dcd90218ee2f9",
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

# sha256 of _theta_bits per edge point, taken from the code that builds every
# power by running products; every value is inside TestReference's bound, the
# branch-cut misses aside (CPython 3.11, x86-64 Linux)
EDGE_BITS = (
    "b47d6f7fb541028a9e424eca19d07c901a15082d2213edd66d09eb457ac6fa78",
    "0e0ea76d457cb0b4b9f5788b6c43fd3e01d34e3958ff1b21faef9e4de70a97f8",
    "7f4e9907e8321b16de0d844efb7ca1d1b337c48fff6656d890bb8f82899faa2d",
    "f84e5783a3c51c2be0f1225e1da8257a3b34d198478a41106c627f2513f2f251",
    "2da9c3ea15e79c1e803478945b96844fae110ea1317be0749176cf307a89d0d4",
    "ff8ebfaba68c0115d844d224555b7f23bd6d784e2c91029de63d96bfd14ce4cc",
    "f60a044c636e413d0532428c84eb6f5988f5f63f743128afa6ca89c7485ecd6e",
    "42c83ef87fbd90b2a8176d3009fb3727dbe6982b45dab07c6fd50b00435ab889",
    "8f0889c32ccdb42543a3f06d3b88efdbcee7b9892e8016a55d296e2427f2540a",
    "7af799cca7711db05dcdf9bc87ca6843a32b06843ea2aeaf05191463248a603f",
    "9a253c24d0c19645fa180cf632b234ce8f7a3feb70ca2bd5e6ccc5a2e62ac218",
    "8d0f5cdcb48f70f6a1d62d69588c91680b52f4ea7a4983095eb48380ad31ae63",
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
        # rebuilt from m = 0: q^m = q^{m-1}·q and q^{m(m+1)/2} = q^{m(m-1)/2}·q^m
        want, q_m = [1 + 0j], 1 + 0j
        for _ in range(theta._Q_TABLE_MAX + 1):
            q_m *= q
            want.append(want[-1] * q_m)
        assert longer == tuple(want)
        assert len(theta._q_tables[q]) == theta._Q_TABLE_MAX + 1
        assert theta._q_tables[q] == longer[: theta._Q_TABLE_MAX + 1]

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

    def test_real_fields_get_the_bits_of_from_qz(self):
        # A directly built ThetaPoint coerces a float or an int to complex, as
        # from_qz does; it once summed in real arithmetic, which gave other
        # bits than from_qz's.
        want = {
            (0.3, 2.5): ("0x1.7cd1b0ecab7b7p+2", "-0x1.13dc986cbb1b8p-3"),
            (0.3, 2): ("0x1.256ba6221d483p+2", "-0x1.2ed3bcff47810p-3"),
            (0.3, 0.13): ("0x1.592c6415af8b6p+2", "-0x1.2c2efc64c18b4p-3"),
            (-0.45, 0.13): ("-0x1.783a2c00490aap+1", "-0x1.bfa29da7ec00ap+1"),
        }
        for (q, z), (series, variant_b) in want.items():
            pt, twin = ThetaPoint(q, z), ThetaPoint.from_qz(q, z)
            got = (theta_series(pt, 1e-13), aux_theta("b", pt, 1e-13))
            assert got == (theta_series(twin, 1e-13), aux_theta("b", twin, 1e-13))
            assert [(v.real.hex(), v.imag) for v in got] == [(series, 0), (variant_b, 0)]
            for value, sign in zip(got, (1, -1)):  # within TestReference's bound
                reference, s = reference_series(q, sign * z)
                assert abs(value - reference) <= 1e-13 + 1e-13 * s


class TestDirectPoint:
    """ThetaPoint(q, z) is checked and coerced as ThetaPoint.from_qz(q, z) is."""

    @staticmethod
    def _plain(x):
        """x as an int or a float where its imaginary part is +0.0, else x."""
        if x.imag != 0 or math.copysign(1, x.imag) < 0:
            return x
        return int(x.real) if x.real.is_integer() else x.real

    @pytest.mark.parametrize(
        "args",
        _EDGE_POINTS + tuple(_pinned_points()),
        ids=[f"edge{i}" for i in range(len(_EDGE_POINTS))] + [f"pinned{i}" for i in range(40)],
    )
    def test_a_direct_point_is_its_from_qz_twin(self, args):
        # from plain numbers too, so both sum in the same complex arithmetic
        q, z, k, ell, factors, tol = args
        twin = ThetaPoint.from_qz(q, z)
        point = ThetaPoint(self._plain(q), self._plain(z))
        assert repr(point) == repr(twin)
        assert _theta_values_hex(point, k, ell, factors, tol) == _theta_values_hex(
            twin, k, ell, factors, tol
        )


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


def _near_one_points():
    """12 seeded points (q, z, k, ell, factors, tol) at |q| = 0.999 and 0.9995,
    the series up to 2 030 pairs, every angle.  |z| runs to 10^±0.24 and
    10^±0.14, about as far from 1 as the powers of z the series needs stay in
    the float range (10^0.3 takes z^1387 past it at |q| = 0.999)."""
    rng = random.Random(1)
    spans = {
        0.999: (-0.24, -0.15, -0.05, 0.05, 0.15, 0.24),
        0.9995: (-0.14, -0.08, -0.02, 0.02, 0.08, 0.14),
    }
    for i, (abs_q, log_z) in enumerate((a, u) for a, us in spans.items() for u in us):
        q = cmath.rect(abs_q, rng.uniform(-math.pi, math.pi))
        z = cmath.rect(10**log_z, rng.uniform(-math.pi, math.pi))
        tol = (1e-15, 1e-12, 1e-8, 1e-4)[i % 4]
        yield q, z, rng.randint(1, 3), rng.randint(0, 2), rng.randint(10, 60), tol


REFERENCE_POINTS = {
    "pinned": tuple(_pinned_points()),
    "edge": _EDGE_POINTS,
    "sample": tuple(_sample_points()),
    "near_one": tuple(_near_one_points()),
}

# Checks that miss the reference today, each the subject of an open FOUND in
# CHANGES.md; every other check of the same point still runs.
_BRANCH_CUT = (
    "aux_theta variants c and d take a -0.0 imaginary part of q^k or q^ell·z "
    "as the lower side of the branch cut, not arg = pi"
)
KNOWN_MISSES = {("edge", i, v): _BRANCH_CUT for i in (2, 4, 6, 8, 9) for v in "cd"}


def _reference_error(points, index, check):
    """(|value - reference|, allowed) for one check of one point: tol + 1e-13·S
    for the series and the variants, 1e-13 times the product of the factors'
    magnitude sums for theta_product, and the two sides' allowances, the
    right one divided by |z|, for the residual."""
    q, z, k, ell, factors, tol = REFERENCE_POINTS[points][index]
    point = ThetaPoint.from_qz(q, z)
    if check == "residual":  # T(qz|q) = T(z|q)/z, so the first residual is an error
        first, second = quasi_periodicity_residual(point, tol)
        assert second == 0  # no (nu, tau) stored
        s_qz = reference_series(point.q, point.q * point.z)[1]
        s_z = reference_series(point.q, point.z)[1]
        return first, (tol + 1e-13 * s_qz) + (tol + 1e-13 * s_z) / abs(point.z)
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
    CHECKS = ("series", "product", "a", "b", "c", "d", "residual")

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
