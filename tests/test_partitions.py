"""Partition counting: oracle vs generating functions vs recursions.

The brute-force DP is itself validated against literal enumeration of the
partitions on small n, so the three production routes rest on two independent
layers.
"""

import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpl.partitions as partitions_module
import qpl.series as series_module
from qpl.divisors import recursive_divisor_sums
from qpl.errors import NotInvertibleError, OracleBoundError, OrderMismatchError, ParameterError
from qpl.figurate import ModularParams, signed_figurate_series
from qpl.identities import interior_grid
from qpl.partitions import (
    CountMode,
    DISTINCT,
    SIGNED_DISTINCT,
    SIGNED_UNRESTRICTED,
    UNRESTRICTED,
    _figurate_quotient,
    _gf_product,
    at_most,
    bounded_mult_shift_identity,
    generate_partitions,
    gf_count,
    oracle_bound,
    oracle_count,
    oracle_table,
    partition_shift_identities,
    quotient_series,
    recursion_table,
    recursive_count_bounded_jbar,
    recursive_count_distinct_j,
    recursive_count_j,
    recursive_count_jbar,
    recursive_count_quotient,
)
from qpl.partsets import PartSet
from qpl.series import QSeries

JBAR31 = PartSet.with_multiples(3, 1)
JBAR41 = PartSet.with_multiples(4, 1)
J41 = PartSet.plus_minus(4, 1)

SMALL_SETS = [
    JBAR31,
    JBAR41,
    J41,
    PartSet.plus_minus(5, 2),
    PartSet.residues(4, 3),
    PartSet.multiples(3),
    PartSet.explicit([1, 4, 9]),
]
MODES = [UNRESTRICTED, DISTINCT, SIGNED_UNRESTRICTED, SIGNED_DISTINCT, at_most(2), at_most(3, True)]
MODE_IDS = [
    "unrestricted", "distinct", "unrestricted-signed", "distinct-signed", "atmost2", "atmost3-signed",
]

# Every recursion entry point as f(params, order); the quotient recursion
# appears twice, with params in the denominator and in the numerator.
RECURSIONS = (
    recursive_count_jbar,
    lambda p, n: recursive_count_bounded_jbar(p, 2, n),
    lambda p, n: recursive_count_j(p, -1, n),
    lambda p, n: recursive_count_distinct_j(p, -1, n),
    lambda p, n: recursive_count_quotient(p, 1, ModularParams(5, 2), -1, n),
    lambda p, n: recursive_count_quotient(ModularParams(5, 2), -1, p, 1, n),
    recursive_divisor_sums,
)


def enumerated_count(n, part_set, mode):
    """Second-layer oracle: sum of gamma^length over literally enumerated partitions."""
    g = mode.gamma
    return sum(
        g ** len(p) if g == -1 else 1 for p in generate_partitions(n, part_set, mode)
    )


@functools.cache
def per_n_count(n, part_set, mode):
    """A fresh DP to n alone, the reference for reading n from a longer pass."""
    g = mode.gamma
    cap = mode.max_multiplicity
    ways = [0] * (n + 1)
    ways[0] = 1
    for m in part_set.members_upto(n):
        if cap is None:
            for v in range(m, n + 1):
                ways[v] += g * ways[v - m]
        else:
            new = ways[:]
            weight = 1
            for t in range(1, cap + 1):
                weight *= g
                if t * m > n:
                    break
                for v in range(t * m, n + 1):
                    new[v] += weight * ways[v - t * m]
            ways = new
    return ways[n]


ORACLE_MODES = st.builds(CountMode, st.sampled_from([None, 1, 2, 3]), st.booleans())
# QPL_ORACLE_BOUND values at or above the largest order drawn; None leaves it unset
ORACLE_BOUNDS = st.sampled_from([None, 80, 81, 100, 128, 200, 300])


class TestOracle:
    def test_classic_examples(self):
        assert oracle_count(5, JBAR31, UNRESTRICTED) == 7
        assert oracle_count(0, PartSet.multiples(7), at_most(4, True)) == 1
        assert oracle_count(2, JBAR31, SIGNED_DISTINCT) == -1
        assert oracle_count(-3, JBAR31, UNRESTRICTED) == 0

    def test_table_rejects_negative_order(self):
        with pytest.raises(ParameterError, match="order must be non-negative"):
            oracle_table(JBAR31, UNRESTRICTED, -2)

    def test_refuses_beyond_bound(self):
        with pytest.raises(OracleBoundError):
            oracle_count(121, JBAR31, UNRESTRICTED)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QPL_ORACLE_BOUND", "130")
        assert oracle_count(125, PartSet.explicit([125]), DISTINCT) == 1
        monkeypatch.setenv("QPL_ORACLE_BOUND", "10")
        with pytest.raises(OracleBoundError):
            oracle_count(11, JBAR31, UNRESTRICTED)

    def test_negative_bound_rejected(self, monkeypatch):
        monkeypatch.setenv("QPL_ORACLE_BOUND", "-5")
        with pytest.raises(
            OracleBoundError,
            match=r"^QPL_ORACLE_BOUND must be a non-negative integer, got '-5'$",
        ):
            oracle_bound()
        monkeypatch.setenv("QPL_ORACLE_BOUND", "0")
        assert oracle_count(0, JBAR31, UNRESTRICTED) == 1
        with pytest.raises(OracleBoundError):
            oracle_count(1, JBAR31, UNRESTRICTED)

    def test_refusal_names_the_order_asked_for(self):
        with pytest.raises(OracleBoundError, match=r"^oracle refuses n=200 above its bound 120 "):
            oracle_table(JBAR31, UNRESTRICTED, 200)

    def test_one_pass_per_table_and_per_count(self, monkeypatch):
        monkeypatch.setenv("QPL_ORACLE_BOUND", "300")
        reaches = []
        members_upto = PartSet.members_upto

        def recording(part_set, n):
            reaches.append(n)
            return members_upto(part_set, n)

        monkeypatch.setattr(PartSet, "members_upto", recording)
        table = oracle_table(JBAR31, at_most(3), 300)
        assert reaches == [300]
        assert oracle_count(77, JBAR31, at_most(3)) == table.coeffs[77]
        assert reaches == [300, 77]
        assert table == gf_count(JBAR31, at_most(3), 300)

    @settings(deadline=None)
    @given(st.sampled_from(SMALL_SETS), ORACLE_MODES, st.integers(0, 80), ORACLE_BOUNDS)
    def test_table_prefix_matches_a_pass_per_n(self, part_set, mode, order, bound):
        # ways[n] of a pass to the order equals ways[n] of a pass to n
        with pytest.MonkeyPatch.context() as mp:
            if bound is None:
                mp.delenv("QPL_ORACLE_BOUND", raising=False)
            else:
                mp.setenv("QPL_ORACLE_BOUND", str(bound))
            table = oracle_table(part_set, mode, order)
        assert table.coeffs == tuple(per_n_count(n, part_set, mode) for n in range(order + 1))

    @pytest.mark.parametrize("part_set", SMALL_SETS, ids=lambda s: s.label())
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_dp_matches_literal_enumeration(self, part_set, mode):
        for n in range(19):
            assert oracle_count(n, part_set, mode) == enumerated_count(n, part_set, mode)

    def test_length_parity_split(self):
        # plain + signed = 2·(even-length count); plain - signed = 2·(odd-length count)
        for part_set in (JBAR31, J41):
            for n in range(16):
                parts = list(generate_partitions(n, part_set, DISTINCT))
                even = sum(1 for p in parts if len(p) % 2 == 0)
                odd = len(parts) - even
                plain = oracle_count(n, part_set, DISTINCT)
                signed = oracle_count(n, part_set, SIGNED_DISTINCT)
                assert plain + signed == 2 * even
                assert plain - signed == 2 * odd
                assert plain + signed >= 0 and plain - signed >= 0

    def test_at_most_one_is_distinct(self):
        assert at_most(1) == DISTINCT
        for n in range(15):
            assert oracle_count(n, JBAR41, at_most(1)) == oracle_count(n, JBAR41, DISTINCT)

    def test_mode_validation(self):
        with pytest.raises(ParameterError):
            CountMode(0)
        assert CountMode(None, True).gamma == -1
        assert CountMode(2).gamma == 1

    @pytest.mark.parametrize("cap", [1.5, 2.0, "2"])
    def test_non_integer_cap_rejected(self, cap):
        # CountMode(1.5) once constructed and raised a TypeError in the first count
        message = f"multiplicity cap must be an integer, got {cap!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            CountMode(cap)


class TestGeneratingFunctions:
    def test_classic_row(self):
        assert gf_count(JBAR31, UNRESTRICTED, 10).coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)

    def test_signed_distinct_is_figurate_indicator(self):
        assert gf_count(JBAR31, SIGNED_DISTINCT, 12).coeffs == (
            1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1,
        )

    def test_single_part(self):
        assert gf_count(PartSet.explicit([1]), DISTINCT, 3).coeffs == (1, 1, 0, 0)

    @pytest.mark.parametrize("part_set", SMALL_SETS, ids=lambda s: s.label())
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_matches_oracle(self, part_set, mode):
        table = gf_count(part_set, mode, 40)
        expected = tuple(oracle_count(n, part_set, mode) for n in range(41))
        assert table.coeffs == expected

    def test_provenance_and_at(self):
        t = gf_count(JBAR31, UNRESTRICTED, 5)
        assert t.coeffs[5] == 7
        assert oracle_table(JBAR31, UNRESTRICTED, 5) == t

    @settings(deadline=None)
    @given(
        st.sampled_from(interior_grid(3, 9)),
        st.sampled_from(["J", "Jbar", "Js"]),
        st.integers(1, 6),
        ORACLE_MODES,
        st.integers(0, 120),
    )
    def test_reflected_sets_share_a_sound_key(self, params, kind, s, mode, order):
        make = {
            "J": PartSet.plus_minus,
            "Jbar": PartSet.with_multiples,
            "Js": lambda k, ell: PartSet.finite_prefix(k, ell, s),
        }[kind]
        pair = (make(params.k, params.ell), make(params.k, params.k - params.ell))
        # one set by the membership rule, so one product ...
        assert [n for n in range(1, order + 1) if pair[0].contains(n)] == [
            n for n in range(1, order + 1) if pair[1].contains(n)
        ]
        # ... and two separate expansions agree
        tables = []
        for part_set in pair:
            _gf_product.cache_clear()
            tables.append(gf_count(part_set, mode, order))
        assert tables[0] == tables[1]

    @pytest.mark.parametrize(
        "a, b",
        [
            (PartSet.residues(5, 1), PartSet.residues(5, 4)),
            (J41, JBAR41),
            (PartSet.explicit([1, 2]), PartSet.explicit([1, 3])),
        ],
        ids=lambda s: s.label(),
    )
    def test_different_members_never_share_an_entry(self, a, b):
        _gf_product.cache_clear()
        ta, tb = gf_count(a, UNRESTRICTED, 30), gf_count(b, UNRESTRICTED, 30)
        assert _gf_product.cache_info().misses == 2
        assert ta != tb

    def test_sets_equal_up_to_the_order_share_an_entry(self):
        # Js:5,1,2 is {1, 4, 6, 9}, which is all of J:5,1 up to 10
        _gf_product.cache_clear()
        prefix = gf_count(PartSet.finite_prefix(5, 1, 2), DISTINCT, 10)
        assert gf_count(PartSet.plus_minus(5, 1), DISTINCT, 10) is prefix
        # 11 is a member of J:5,1 only, and alone it partitions 11
        j11 = gf_count(PartSet.plus_minus(5, 1), DISTINCT, 11)
        assert j11[11] == gf_count(PartSet.finite_prefix(5, 1, 2), DISTINCT, 11)[11] + 1


class TestJbarRecursion:
    def test_classic_row(self):
        t = recursive_count_jbar(ModularParams(3, 1), 10)
        assert t.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)

    def test_4_1_example(self):
        assert recursive_count_jbar(ModularParams(4, 1), 4).coeffs[4] == 3
        assert recursive_count_jbar(ModularParams(4, 1), 0).coeffs == (1,)

    def test_boundary_rejected(self):
        for k, ell in [(4, 2), (3, 0), (3, 3), (2, 1)]:
            for recursion in RECURSIONS:
                with pytest.raises(ParameterError, match="interior"):
                    recursion(ModularParams(k, ell), 10)

    def test_scaling_collapse(self):
        # counts at c·n for scaled parameters equal counts at n
        base = gf_count(JBAR31, UNRESTRICTED, 60).coeffs
        for c in (2, 3):
            scaled = recursive_count_jbar(ModularParams(3 * c, c), 60 * c).coeffs
            for n in range(61):
                assert scaled[c * n] == base[n]


class TestQuotientRecursion:
    def test_self_quotient_is_one(self):
        t = recursive_count_quotient(ModularParams(4, 1), 1, ModularParams(4, 1), -1, 50)
        assert t.coeffs == (1,) + (0,) * 50

    def test_matches_series_division(self):
        t = recursive_count_quotient(ModularParams(4, 1), -1, ModularParams(5, 2), 1, 60)
        h = quotient_series(ModularParams(4, 1), -1, ModularParams(5, 2), 1, 60)
        assert t.coeffs == h.coeffs

    def test_reproduces_distinct_recursion(self):
        for k, ell in [(4, 1), (5, 2)]:
            for gamma in (1, -1):
                general = recursive_count_quotient(
                    ModularParams(3 * k, k), 1, ModularParams(k, ell), gamma, 60
                )
                direct = recursive_count_distinct_j(ModularParams(k, ell), gamma, 60)
                assert general.coeffs == direct.coeffs

    def test_boundary_rejected(self):
        with pytest.raises(ParameterError):
            recursive_count_quotient(ModularParams(4, 2), 1, ModularParams(4, 1), 1, 10)
        with pytest.raises(ParameterError):
            recursive_count_quotient(ModularParams(4, 1), 1, ModularParams(4, 0), 1, 10)


class TestFamilyRecursions:
    def test_distinct_oracle_value(self):
        # distinct odd parts: 8 = 7+1 = 5+3
        assert oracle_count(8, J41, DISTINCT) == 2
        assert recursive_count_distinct_j(ModularParams(4, 1), 1, 8).coeffs[8] == 2

    def test_distinct_signed_matches_gf(self):
        for k, ell in [(4, 1), (5, 2), (7, 3)]:
            for gamma in (1, -1):
                rec = recursive_count_distinct_j(ModularParams(k, ell), gamma, 60)
                gf = gf_count(PartSet.plus_minus(k, ell), CountMode(1, gamma == -1), 60)
                assert rec.coeffs == gf.coeffs

    def test_unrestricted_examples(self):
        assert recursive_count_j(ModularParams(4, 1), 1, 6).coeffs[6] == 4
        assert recursive_count_j(ModularParams(4, 1), -1, 2).coeffs[2] == 1
        assert recursive_count_j(ModularParams(5, 2), 1, 0).coeffs == (1,)

    def test_unrestricted_matches_gf(self):
        for k, ell in [(4, 1), (5, 2), (7, 3)]:
            for gamma in (1, -1):
                rec = recursive_count_j(ModularParams(k, ell), gamma, 60)
                gf = gf_count(PartSet.plus_minus(k, ell), CountMode(None, gamma == -1), 60)
                assert rec.coeffs == gf.coeffs

    def test_bounded_examples(self):
        row = recursive_count_bounded_jbar(ModularParams(3, 1), 1, 10)
        assert row.coeffs == (1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10)
        assert recursive_count_bounded_jbar(ModularParams(4, 1), 2, 3).coeffs[3] == 1
        assert oracle_count(3, JBAR41, at_most(2)) == 1

    def test_bounded_matches_oracle_and_gf(self):
        for k, ell in [(3, 1), (4, 1), (5, 2)]:
            for d in (1, 2, 3):
                rec = recursive_count_bounded_jbar(ModularParams(k, ell), d, 50)
                gf = gf_count(PartSet.with_multiples(k, ell), at_most(d), 50)
                assert rec.coeffs == gf.coeffs

    def test_bounded_matches_quotient(self):
        for d in (1, 2, 3):
            general = recursive_count_quotient(
                ModularParams(4, 1), 1, ModularParams(4 * (d + 1), d + 1), -1, 60
            )
            direct = recursive_count_bounded_jbar(ModularParams(4, 1), d, 60)
            assert general.coeffs == direct.coeffs

    def test_gamma_validation(self):
        with pytest.raises(ParameterError):
            recursive_count_distinct_j(ModularParams(4, 1), 0, 10)
        with pytest.raises(ParameterError):
            recursive_count_bounded_jbar(ModularParams(4, 1), 0, 10)

    @pytest.mark.parametrize("recursion", RECURSIONS)
    def test_negative_order_named(self, recursion):
        with pytest.raises(ParameterError, match="^order must be non-negative$"):
            recursion(ModularParams(5, 2), -2)

    @pytest.mark.parametrize("mode", [UNRESTRICTED, at_most(2)], ids=["Jbar", "Jbar-atmost2"])
    def test_recursion_table_negative_order_named(self, mode):
        with pytest.raises(ParameterError, match="^order must be non-negative$"):
            recursion_table(PartSet.with_multiples(5, 2), mode, -2)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("k,ell", [(3, 1), (4, 1), (5, 2), (6, 1), (7, 3), (8, 3)])
    def test_unrestricted_jbar(self, k, ell):
        params = ModularParams(k, ell)
        jbar = PartSet.with_multiples(k, ell)
        rec = recursive_count_jbar(params, 60).coeffs
        gf = gf_count(jbar, UNRESTRICTED, 60).coeffs
        assert rec == gf
        for n in range(0, 61, 6):
            assert rec[n] == oracle_count(n, jbar, UNRESTRICTED)

    @pytest.mark.parametrize(
        "kind,mode",
        [
            ("Jbar", UNRESTRICTED),
            ("Jbar", at_most(1)),
            ("Jbar", at_most(2)),
            ("Jbar", at_most(3)),
            ("J", UNRESTRICTED),
            ("J", SIGNED_UNRESTRICTED),
            ("J", DISTINCT),
            ("J", SIGNED_DISTINCT),
            ("Jbar", SIGNED_UNRESTRICTED),
            ("Jbar", at_most(1, True)),
            ("Jbar", at_most(2, True)),
            ("Jbar", at_most(3, True)),
            ("J", at_most(2)),
            ("J", at_most(2, True)),
            ("J", at_most(3)),
            ("J", at_most(3, True)),
        ],
        ids=[
            "Jbar", "Jbar-atmost1", "Jbar-atmost2", "Jbar-atmost3",
            "J", "J-signed", "J-distinct", "J-distinct-signed",
            "Jbar-signed", "Jbar-atmost1-signed", "Jbar-atmost2-signed", "Jbar-atmost3-signed",
            "J-atmost2", "J-atmost2-signed", "J-atmost3", "J-atmost3-signed",
        ],
    )
    def test_all_routes_agree_to_300_on_the_grid(self, monkeypatch, kind, mode):
        monkeypatch.setenv("QPL_ORACLE_BOUND", "300")
        family = PartSet.with_multiples if kind == "Jbar" else PartSet.plus_minus
        for params in interior_grid(3, 8):
            part_set = family(params.k, params.ell)
            oracle = oracle_table(part_set, mode, 300)
            assert oracle == gf_count(part_set, mode, 300)
            assert oracle == recursion_table(part_set, mode, 300)

    @pytest.mark.parametrize("cap", [5, 10**6])
    @pytest.mark.parametrize("signed", [False, True], ids=["plain", "signed"])
    @pytest.mark.parametrize("kind", ["J", "Jbar"])
    def test_large_caps_agree(self, kind, signed, cap):
        # a cap past the order counts as unrestricted: q^{(cap+1)m} never fits
        family = PartSet.with_multiples if kind == "Jbar" else PartSet.plus_minus
        mode = at_most(cap, signed)
        for params in interior_grid(3, 8):
            part_set = family(params.k, params.ell)
            oracle = oracle_table(part_set, mode, 60)
            assert oracle == gf_count(part_set, mode, 60)
            assert oracle == recursion_table(part_set, mode, 60)


class TestShiftIdentities:
    @pytest.mark.parametrize("k,ell", [(4, 1), (5, 2)])
    def test_partition_shift_passes(self, k, ell):
        for gamma in (1, -1):
            report = partition_shift_identities(ModularParams(k, ell), gamma, 80)
            assert report.passed
            assert report.order == 80

    @pytest.mark.parametrize("k,ell,d", [(3, 1, 1), (5, 1, 3)])
    def test_bounded_shift_passes(self, k, ell, d):
        report = bounded_mult_shift_identity(ModularParams(k, ell), d, 100)
        assert report.passed

    def test_boundary_rejected(self):
        with pytest.raises(ParameterError):
            partition_shift_identities(ModularParams(4, 2), 1, 20)
        with pytest.raises(ParameterError):
            bounded_mult_shift_identity(ModularParams(6, 3), 1, 20)


@st.composite
def quotient_operands(draw, max_order=40):
    """A random numerator and a sparse divisor with constant term 1."""
    order = draw(st.integers(min_value=0, max_value=max_order))
    coeff = st.integers(min_value=-(10**20), max_value=10**20)
    sparse = st.one_of(st.just(0), st.sampled_from([0, 0, 1, -1, 2, -7]), coeff)
    num = draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
    den = draw(st.lists(sparse, min_size=order, max_size=order))
    return QSeries(tuple(num)), QSeries((1, *den))


def factor(params, sign, dilation, order=60):
    """T(params, sign)(q^dilation), one factor of the route-3 rule."""
    return signed_figurate_series(params, sign, order).dilate(dilation)


@pytest.fixture
def quotient_calls(monkeypatch):
    """(num, den) of every long division route 3 makes while the test runs."""
    calls = []

    def recording(num, den):
        calls.append((num, den))
        return _figurate_quotient(num, den)

    monkeypatch.setattr(partitions_module, "_figurate_quotient", recording)
    return calls


class TestFigurateQuotient:
    @given(quotient_operands())
    def test_times_divisor_gives_numerator(self, operands):
        # checked through the multiply kernel, not QSeries.reciprocal
        num, den = operands
        assert den * _figurate_quotient(num, den) == num

    def test_rejects_bad_divisor(self):
        with pytest.raises(NotInvertibleError):
            _figurate_quotient(QSeries.one(3), QSeries((2, 0, 0, 1)))
        with pytest.raises(OrderMismatchError):
            _figurate_quotient(QSeries.one(3), QSeries.one(4))

    def test_no_recursion_inverts_a_series(self, monkeypatch):
        # route 3 must run with routes 1 and 2 and the reciprocal all refused
        families = [
            (family(5, 2), CountMode(cap, signed))
            for family in (PartSet.with_multiples, PartSet.plus_minus)
            for cap in (None, 1, 2, 3)
            for signed in (False, True)
        ]
        expected = [gf_count(part_set, mode, 40).coeffs for part_set, mode in families]

        def refuse(*args, **kwargs):
            raise AssertionError("the recursion route must not call another route")

        monkeypatch.setattr(QSeries, "reciprocal", refuse)
        monkeypatch.setattr(series_module, "binomial_product", refuse)
        monkeypatch.setattr(partitions_module, "binomial_product", refuse)
        monkeypatch.setattr(partitions_module, "_gf_product", refuse)
        monkeypatch.setattr(partitions_module, "_oracle_pass", refuse)
        for recursion in RECURSIONS:
            recursion(ModularParams(5, 2), 40)
        for (part_set, mode), gf in zip(families, expected):
            assert recursion_table(part_set, mode, 40).coeffs == gf

    @pytest.mark.parametrize("k,ell", [(3, 1), (5, 2), (8, 3)])
    def test_routed_modes_divide_once_and_never_multiply(
        self, monkeypatch, quotient_calls, k, ell
    ):
        # the eight modes that had a hand-derived quotient keep its arithmetic:
        # one long division of the same two series, and no product
        p, euler = ModularParams(k, ell), ModularParams(3, 1)
        jbar, j = PartSet.with_multiples(k, ell), PartSet.plus_minus(k, ell)
        cases = [
            (jbar, UNRESTRICTED, QSeries.one(60), factor(p, -1, 1)),
            *[(jbar, at_most(d), factor(p, -1, d + 1), factor(p, -1, 1)) for d in (1, 2, 3)],
            (j, UNRESTRICTED, factor(euler, -1, k), factor(p, -1, 1)),
            (j, SIGNED_UNRESTRICTED, factor(euler, -1, k), factor(p, 1, 1)),
            (j, DISTINCT, factor(p, 1, 1), factor(euler, -1, k)),
            (j, SIGNED_DISTINCT, factor(p, -1, 1), factor(euler, -1, k)),
        ]
        expected = [gf_count(part_set, mode, 60) for part_set, mode, _, _ in cases]

        def refuse(self, other):
            raise AssertionError("a routed mode must not multiply series")

        monkeypatch.setattr(QSeries, "__mul__", refuse)
        for (part_set, mode, num, den), gf in zip(cases, expected):
            quotient_calls.clear()
            assert recursion_table(part_set, mode, 60) == gf
            assert quotient_calls == [(num, den)]

    def test_denominators_divide_one_factor_at_a_time(self, quotient_calls):
        # their product is far denser than each factor, and so slower to divide by
        p, euler = ModularParams(4, 1), ModularParams(3, 1)
        cases = [
            (PartSet.plus_minus(4, 1), at_most(2), [factor(p, -1, 1), factor(euler, -1, 12)]),
            (PartSet.with_multiples(4, 1), at_most(2, True), [factor(p, -1, 2), factor(p, -1, 3)]),
        ]
        for part_set, mode, dens in cases:
            quotient_calls.clear()
            assert recursion_table(part_set, mode, 60) == gf_count(part_set, mode, 60)
            assert [den for _, den in quotient_calls] == dens
