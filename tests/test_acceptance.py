"""Acceptance criteria, each at its stated order, tolerance and time budget.

Every test prints one PASS line (visible with pytest -s or on failure); all
comparisons on the exact side are integer equality, never approximate.
"""

import cmath
import math
import random
import subprocess
import sys
import time

from qpl.divisors import (
    apostol_convolution_check,
    divisor_sum,
    kim_identity_check,
    recursive_divisor_sums,
)
from qpl.figurate import ModularParams, figurate_enumerate
from qpl.identities import (
    interior_grid,
    verify_berger,
    verify_boundary_half,
    verify_hermite,
    verify_specialized,
    verify_sylvester,
    verify_triple_product,
)
from qpl.partitions import (
    CountMode,
    SIGNED_DISTINCT,
    UNRESTRICTED,
    at_most,
    bounded_mult_shift_identity,
    gf_count,
    oracle_count,
    partition_shift_identities,
    quotient_series,
    recursive_count_bounded_jbar,
    recursive_count_distinct_j,
    recursive_count_j,
    recursive_count_jbar,
    recursive_count_quotient,
)
from qpl.partsets import PartSet
from qpl.series import triple_pochhammer
from qpl.theta import ThetaPoint, quasi_periodicity_residual, theta_product, theta_series

GRID = interior_grid(3, 8)  # the 24 interior pairs with 3 <= k <= 8


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_c01_triple_product():
    start = time.perf_counter()
    rep = verify_triple_product(200, 12)
    elapsed = time.perf_counter() - start
    assert rep.passed
    assert elapsed < 10.0
    report(1, f"triple product exact at q-order 200, |j| <= 12 in {elapsed:.2f}s")


def test_c02_specialization_grid():
    start = time.perf_counter()
    checked = 0
    for k in range(1, 9):
        for ell in range(k + 1):
            params = ModularParams(k, ell)
            for sign in (1, -1):
                rep = verify_specialized(params, sign, 300)
                assert rep.passed, rep.to_json_dict()
                checked += 1
            if ell in (0, k):
                assert triple_pochhammer(k, ell, -1, 300).is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"{checked} specializations exact at order 300 in {elapsed:.2f}s")


def test_c03_berger():
    for k in range(1, 11):
        assert verify_berger(k, 300).passed
    signed = triple_pochhammer(3, 1, -1, 15)
    expected = {1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    for n in range(1, 15):
        assert signed[n] == expected.get(n, 0)
    assert signed[15] == -1
    report(3, "polygonal identities pass for k=1..10 at order 300; signed "
              "pentagonal coefficients frozen")


def test_c04_hermite():
    for s in range(7):
        assert verify_hermite(s).passed
    # substituted finite-prefix forms, against the brute-force oracle
    for k, ell in [(3, 1), (4, 1), (5, 2)]:
        for s in range(1, 5):
            order = k * s * s
            prefix = PartSet.finite_prefix(k, ell, s)
            for gamma in (1, -1):
                table = gf_count(prefix, CountMode(1, gamma == -1), order)
                for n in range(order + 1):
                    assert table.coeffs[n] == oracle_count(n, prefix, CountMode(1, gamma == -1))
    report(4, "finite product identity exact for s=0..6; substituted prefix "
              "forms match the oracle for (3,1),(4,1),(5,2), s<=4")


def test_c05_boundary_half():
    for k in (2, 4, 6, 8):
        assert verify_boundary_half(k, 300).passed
    report(5, "both half-boundary identities exact at order 300 for k in {2,4,6,8}")


def test_c06_signed_distinct_support():
    for params in GRID:
        assert verify_sylvester(params, 300).passed
        jbar = PartSet.with_multiples(params.k, params.ell)
        indicator = {v: (-1 if j % 2 else 1) for j, v in figurate_enumerate(params, 100)}
        for n in range(101):
            assert oracle_count(n, jbar, SIGNED_DISTINCT) == indicator.get(n, 0)
    report(6, "signed distinct counts sit exactly on the figurate numbers for "
              "all 24 interior pairs (series to 300, oracle to 100)")


def test_c07_unrestricted_recursion():
    for params in GRID:
        jbar = PartSet.with_multiples(params.k, params.ell)
        rec = recursive_count_jbar(params, 120).coeffs
        gf = gf_count(jbar, UNRESTRICTED, 120).coeffs
        assert rec == gf
        for n in range(121):
            assert rec[n] == oracle_count(n, jbar, UNRESTRICTED)
    row = recursive_count_jbar(ModularParams(3, 1), 50).coeffs
    assert row[10] == 42
    assert row[50] == 204226
    report(7, "Euler-style recursion agrees with series and oracle to n=120 on "
              "the grid; p(10)=42, p(50)=204226")


def test_c08_quotient_recursions():
    tuples = 0
    for p1 in (ModularParams(3, 1), ModularParams(4, 1), ModularParams(5, 2)):
        for p2 in (ModularParams(4, 1), ModularParams(5, 2), ModularParams(7, 3)):
            for g1 in (1, -1):
                for g2 in (1, -1):
                    rec = recursive_count_quotient(p1, g1, p2, g2, 120)
                    series = quotient_series(p1, g1, p2, g2, 120)
                    assert rec.coeffs == series.coeffs
                    tuples += 1
    assert tuples >= 20
    # the two family recursions against their own quotient expansions
    for params in GRID:
        k, ell = params.k, params.ell
        for gamma in (1, -1):
            distinct = recursive_count_distinct_j(params, gamma, 120)
            h1 = quotient_series(ModularParams(3 * k, k), 1, params, gamma, 120)
            assert distinct.coeffs == h1.coeffs
            unrestricted = recursive_count_j(params, gamma, 120)
            h2 = quotient_series(params, gamma, ModularParams(3 * k, k), -1, 120)
            assert unrestricted.coeffs == h2.coeffs
    report(8, f"quotient recursion equals series division for {tuples} tuples "
              "and both family recursions across the grid (n <= 120)")


def test_c09_shift_identities():
    for params in GRID:
        for gamma in (1, -1):
            assert partition_shift_identities(params, gamma, 120).passed
        for d in (1, 2, 3):
            assert bounded_mult_shift_identity(params, d, 120).passed
    report(9, "both shift identities and the bounded-multiplicity identity "
              "pass at order 120 across the grid")


def test_c10_bounded_multiplicity():
    for params in GRID:
        jbar = PartSet.with_multiples(params.k, params.ell)
        for d in (1, 2, 3):
            rec = recursive_count_bounded_jbar(params, d, 100).coeffs
            for n in range(101):
                assert rec[n] == oracle_count(n, jbar, at_most(d))
    row = recursive_count_bounded_jbar(ModularParams(3, 1), 1, 10).coeffs
    assert row == (1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10)
    report(10, "bounded-multiplicity recursion matches the oracle for d=1..3 "
               "to n=100; the distinct row for (3,1) is frozen")


def test_c11_divisor_recursion():
    for params in GRID:
        jbar = PartSet.with_multiples(params.k, params.ell)
        rec = recursive_divisor_sums(params, 200)
        for n in range(1, 201):
            assert rec.coeffs[n] == divisor_sum(jbar, n)
    sigma12 = recursive_divisor_sums(ModularParams(3, 1), 12).coeffs[12]
    assert sigma12 == 28
    report(11, "divisor-sum recursion equals direct scans to n=200 on the "
               "grid; sigma(12)=28")


def test_c12_convolution_and_series_relations():
    for params in GRID:
        assert apostol_convolution_check(params, 200).passed
        assert kim_identity_check(params, 200).passed
    report(12, "divisor convolution and the generating-function identity pass "
               "exactly at order 200 across the grid")


def test_c13_theta_numerics():
    rng = random.Random(14232)
    start = time.perf_counter()
    for _ in range(100):
        q = rng.uniform(0.02, 0.5) * cmath.exp(2j * math.pi * rng.random())
        z = math.exp(rng.uniform(math.log(0.1), math.log(10.0))) * cmath.exp(
            2j * math.pi * rng.random()
        )
        point = ThetaPoint.from_qz(q, z)
        series = theta_series(point, 1e-13)
        assert abs(series - theta_product(point, 60)) < 1e-12
        residual, _ = quasi_periodicity_residual(point, 1e-13)
        assert residual < 1e-11
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(13, f"100 random points: series/product within 1e-12, functional "
               f"equation residual < 1e-11, in {elapsed:.2f}s")


def test_c14_deterministic_reports(qpl_env):
    cmd = [
        sys.executable, "-m", "qpl.cli", "verify", "--all",
        "--grid", "k=3..5", "--order", "60",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True, env=qpl_env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=qpl_env)
    assert first.stdout == second.stdout
    assert first.stdout.strip().startswith(b"[")
    report(14, "two consecutive full verification runs are byte-identical")
