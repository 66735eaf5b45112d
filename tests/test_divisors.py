"""Restricted divisor sums: scans, recursion, convolution and series relations."""

import pytest

from qpl.divisors import (
    apostol_convolution_check,
    divisor_sum,
    divisor_sums,
    divisor_table,
    kim_identity_check,
    recursive_divisor_sums,
)
from qpl.errors import ParameterError
from qpl.figurate import ModularParams
from qpl.partitions import SIGNED_DISTINCT, UNRESTRICTED, gf_count
from qpl.partsets import PartSet


def sigma(n):
    """Independent oracle: full divisor sum by trial division."""
    return sum(d for d in range(1, n + 1) if n % d == 0)


class TestDivisorSum:
    def test_full_sigma_on_everything(self):
        jbar31 = PartSet.with_multiples(3, 1)
        for n in range(1, 60):
            assert divisor_sum(jbar31, n) == sigma(n)
        assert divisor_sum(jbar31, 6) == 12

    def test_restricted(self):
        jbar41 = PartSet.with_multiples(4, 1)
        assert divisor_sum(jbar41, 6) == 1 + 3

    def test_one(self):
        assert divisor_sum(PartSet.explicit([1, 5]), 1) == 1
        assert divisor_sum(PartSet.explicit([5]), 1) == 0

    def test_nonpositive(self):
        assert divisor_sum(PartSet.multiples(2), 0) == 0
        assert divisor_sum(PartSet.multiples(2), -7) == 0

    def test_bounded_by_sigma(self):
        for k, ell in [(4, 1), (5, 2), (7, 3)]:
            s = PartSet.with_multiples(k, ell)
            for n in range(1, 80):
                v = divisor_sum(s, n)
                assert 0 <= v <= sigma(n)

    @pytest.mark.parametrize(
        "part_set",
        [
            PartSet.residues(4, 3),
            PartSet.plus_minus(7, 2),
            PartSet.with_multiples(5, 2),
            PartSet.finite_prefix(6, 1, 9),
            PartSet.multiples(3),
            PartSet.explicit([1, 6, 10, 49, 250, 301]),
        ],
        ids=lambda s: s.label(),
    )
    def test_table_sieve_matches_pair_scans(self, part_set):
        table = divisor_table(part_set, 300)
        assert table.coeffs == tuple(divisor_sum(part_set, n) for n in range(301))


class TestRecursion:
    def test_sigma_row(self):
        t = recursive_divisor_sums(ModularParams(3, 1), 10)
        assert t.coeffs[1:] == (1, 3, 4, 7, 6, 12, 8, 15, 13, 18)
        assert t.coeffs[0] == 0

    def test_restricted_example(self):
        assert recursive_divisor_sums(ModularParams(4, 1), 6).coeffs[6] == 4

    def test_first_gnomon(self):
        # n = ell fires only the extra branch
        assert recursive_divisor_sums(ModularParams(5, 2), 2).coeffs[2] == 2
        assert divisor_sum(PartSet.with_multiples(5, 2), 2) == 2

    @pytest.mark.parametrize("k,ell", [(3, 1), (4, 1), (5, 2), (7, 3), (8, 3)])
    def test_matches_scan(self, k, ell):
        params = ModularParams(k, ell)
        jbar = PartSet.with_multiples(k, ell)
        rec = recursive_divisor_sums(params, 120)
        for n in range(1, 121):
            assert rec.coeffs[n] == divisor_sum(jbar, n)

    def test_boundary_rejected(self):
        for k, ell in [(4, 2), (3, 0), (2, 1)]:
            with pytest.raises(ParameterError):
                recursive_divisor_sums(ModularParams(k, ell), 10)


class TestRoutes:
    def test_unknown_method_rejected(self):
        # the CLI's choices keep it from reaching here; a library caller can
        with pytest.raises(ParameterError, match="unknown divisor method 'sieve'"):
            divisor_sums(ModularParams(5, 2), 10, "sieve")


class TestSeriesRelations:
    @pytest.mark.parametrize("k,ell", [(3, 1), (4, 1), (5, 2)])
    def test_log_derivative_relations(self, k, ell):
        # q·f' = f·F  and  q·g1' = -F·g1
        order = 80
        jbar = PartSet.with_multiples(k, ell)
        f = gf_count(jbar, UNRESTRICTED, order)
        g1 = gf_count(jbar, SIGNED_DISTINCT, order)
        big_f = divisor_table(jbar, order)
        assert f.q_dq() == f * big_f
        assert g1.q_dq() == (big_f * g1).scale(-1)

    def test_product_inverse(self):
        order = 60
        jbar = PartSet.with_multiples(5, 2)
        f = gf_count(jbar, UNRESTRICTED, order)
        g1 = gf_count(jbar, SIGNED_DISTINCT, order)
        from qpl.series import QSeries

        assert g1 * f == QSeries.one(order)


class TestChecks:
    @pytest.mark.parametrize("k,ell", [(3, 1), (5, 2)])
    def test_apostol_passes(self, k, ell):
        assert apostol_convolution_check(ModularParams(k, ell), 120).passed

    @pytest.mark.parametrize("k,ell", [(3, 1), (4, 1)])
    def test_kim_passes(self, k, ell):
        assert kim_identity_check(ModularParams(k, ell), 120).passed

    def test_kim_order_zero_vacuous(self):
        assert kim_identity_check(ModularParams(3, 1), 0).passed

    def test_table_rejects_negative_order(self):
        with pytest.raises(ParameterError, match="order must be non-negative"):
            divisor_table(PartSet.with_multiples(3, 1), -3)

    def test_table_metadata(self):
        t = divisor_table(PartSet.with_multiples(4, 1), 12)
        assert t.order == 12
