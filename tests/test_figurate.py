"""Gnomons, figurate numbers, boundary collision rules, Gaussian binomials."""

from math import comb

import pytest

from qpl.errors import ParameterError
from qpl.figurate import (
    BoundaryClass,
    ModularParams,
    figurate,
    figurate_enumerate,
    gaussian_binomial,
    gnomon,
    pentagonal,
)
from qpl.series import QSeries


class TestParams:
    @pytest.mark.parametrize(
        "k,ell,cls",
        [
            (3, 1, BoundaryClass.INTERIOR),
            (8, 3, BoundaryClass.INTERIOR),
            (4, 2, BoundaryClass.BOUNDARY_HALF),
            (2, 1, BoundaryClass.BOUNDARY_HALF),
            (5, 0, BoundaryClass.BOUNDARY_ZERO),
            (5, 5, BoundaryClass.BOUNDARY_ZERO),
            (1, 0, BoundaryClass.BOUNDARY_ZERO),
            (1, 1, BoundaryClass.BOUNDARY_ZERO),
        ],
    )
    def test_classification(self, k, ell, cls):
        assert ModularParams(k, ell).boundary_class is cls

    def test_interior_implies_k_at_least_3(self):
        for k in range(1, 10):
            for ell in range(k + 1):
                p = ModularParams(k, ell)
                if p.is_interior:
                    assert k >= 3 and 0 < ell < k and 2 * ell != k

    def test_repr(self):
        assert repr(ModularParams(3, 1)) == "ModularParams(k=3, ell=1)"

    def test_validation(self):
        with pytest.raises(ParameterError):
            ModularParams(0, 0)
        with pytest.raises(ParameterError):
            ModularParams(3, 4)
        with pytest.raises(ParameterError):
            ModularParams(3, -1)


class TestGnomon:
    def test_first_is_ell(self):
        assert gnomon(ModularParams(3, 1), 1) == 1

    def test_examples(self):
        assert gnomon(ModularParams(4, 3), 3) == 11
        assert gnomon(ModularParams(5, 0), 2) == 5

    def test_index_starts_at_one(self):
        with pytest.raises(IndexError):
            gnomon(ModularParams(3, 1), 0)

    def test_partial_sums_are_figurate(self):
        for k, ell in [(3, 1), (4, 3), (5, 2), (6, 6), (7, 0)]:
            p = ModularParams(k, ell)
            total = 0
            for j in range(1, 12):
                total += gnomon(p, j)
                assert total == figurate(p, j)


class TestFigurate:
    def test_zero_index(self):
        assert figurate(ModularParams(9, 4), 0) == 0

    def test_pentagonal_values(self):
        p = ModularParams(3, 1)
        assert figurate(p, 2) == 5
        assert figurate(p, -2) == 7

    def test_reflection(self):
        assert figurate(ModularParams(4, 1), -1) == 3
        assert figurate(ModularParams(4, 3), 1) == 3
        for k, ell in [(3, 1), (5, 2), (8, 3), (6, 0)]:
            p, r = ModularParams(k, ell), ModularParams(k, k - ell)
            for j in range(-9, 10):
                assert figurate(p, -j) == figurate(r, j)

    def test_scaling(self):
        for c in (2, 3, 5):
            for j in range(-8, 9):
                assert figurate(ModularParams(4 * c, c), j) == c * figurate(
                    ModularParams(4, 1), j
                )

    def test_pentagonal_wrapper(self):
        assert pentagonal(1) == 1
        assert pentagonal(-1) == 2
        assert pentagonal(3) == 12
        assert [pentagonal(j) for j in (0, 1, -1, 2, -2, 3)] == [0, 1, 2, 5, 7, 12]


class TestEnumerate:
    def test_pentagonal_window(self):
        rows = figurate_enumerate(ModularParams(3, 1), 7)
        assert rows == [(0, 0), (1, 1), (-1, 2), (2, 5), (-2, 7)]

    def test_boundary_half_duplicates(self):
        rows = figurate_enumerate(ModularParams(4, 2), 4)
        assert rows == [(0, 0), (-1, 2), (1, 2)]

    def test_bound_zero(self):
        assert figurate_enumerate(ModularParams(5, 2), 0) == [(0, 0)]
        assert figurate_enumerate(ModularParams(3, 0), 0) == [(0, 0), (1, 0)]
        assert figurate_enumerate(ModularParams(3, 3), 0) == [(-1, 0), (0, 0)]

    def test_interior_injectivity(self):
        for k in range(3, 9):
            for ell in range(1, k):
                p = ModularParams(k, ell)
                if not p.is_interior:
                    continue
                rows = figurate_enumerate(p, 400)
                values = [v for _, v in rows]
                assert len(values) == len(set(values))
                # complete: exactly the j with M(j) <= 400
                direct = sorted(
                    (v, j)
                    for j in range(-40, 41)
                    if (v := figurate(p, j)) <= 400
                )
                assert [(j, v) for v, j in direct] == rows

    @pytest.mark.parametrize("k,ell", [(4, 0), (5, 0), (4, 4), (5, 5), (4, 2), (6, 3)])
    def test_boundary_collision_rules(self, k, ell):
        p = ModularParams(k, ell)
        for j in range(-10, 11):
            assert figurate(p, j) == figurate(p, partner_of(p, j))
        # collisions happen only between rule partners
        for i in range(-10, 11):
            for j in range(i + 1, 11):
                if figurate(p, i) == figurate(p, j):
                    assert partner_of(p, i) == j


def partner_of(p: ModularParams, j: int) -> int:
    if p.ell == 0:
        return 1 - j
    if p.ell == p.k:
        return -1 - j
    return -j


class TestGaussian:
    def test_small_cases(self):
        assert gaussian_binomial(2, 1) == QSeries((1, 1))
        assert gaussian_binomial(4, 2) == QSeries((1, 1, 2, 1, 1))
        assert gaussian_binomial(5, 0) == QSeries((1,))
        assert gaussian_binomial(3, 5) == QSeries((0,))
        assert gaussian_binomial(3, -1) == QSeries((0,))

    def test_palindromic_and_binomial_sum(self):
        for n in range(11):
            for m in range(n + 1):
                g = gaussian_binomial(n, m)
                assert g.order == m * (n - m)
                assert g.coeffs == g.coeffs[::-1]
                assert sum(g.coeffs) == comb(n, m)
                assert all(c >= 0 for c in g.coeffs) and g[g.order] == 1

    def test_both_pascal_recurrences(self):
        # [n, m] = [n-1, m-1] + q^m [n-1, m] = q^{n-m} [n-1, m-1] + [n-1, m]
        for n in range(1, 11):
            for m in range(n + 1):
                lhs = gaussian_binomial(n, m)
                order = lhs.order
                a = QSeries.from_coeffs(gaussian_binomial(n - 1, m - 1).coeffs, order)
                b = QSeries.from_coeffs(gaussian_binomial(n - 1, m).coeffs, order)
                assert lhs == a + b.shift(m)
                assert lhs == a.shift(n - m) + b


class TestGaussianProductFormula:
    def test_large_n_does_not_recurse(self):
        # the q-Pascal recursion once raised RecursionError here
        g = gaussian_binomial(1500, 2)
        assert g.order == 2 * 1498
        assert g.coeffs == g.coeffs[::-1]
        assert sum(g.coeffs) == comb(1500, 2)

    @pytest.mark.parametrize("n,m", [(4, 2.5), (4.0, 2), ("4", 2)])
    def test_non_integer_rejected(self, n, m):
        # the two floats once quietly gave [4 choose 2], the string a TypeError
        with pytest.raises(ParameterError, match="must be integers"):
            gaussian_binomial(n, m)
