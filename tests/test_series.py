"""Series kernel: exact arithmetic, truncation discipline, product expansions."""

import re
import struct
from fractions import Fraction
from functools import cache
from itertools import product
from operator import neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpl.series
from qpl.errors import NotInvertibleError, OrderMismatchError, ParameterError
from qpl.identities import battery
from qpl.partitions import CountMode, _gf_product
from qpl.partsets import PartSet
from qpl.series import (
    QSeries,
    ZLaurentSeries,
    _pochhammer_product,
    _slot_bytes,
    binomial_product,
    triple_pochhammer,
)


@cache
def naive_partition_count(n, max_part):
    """Independent oracle: partitions of n into parts <= max_part."""
    if n == 0:
        return 1
    if max_part == 0 or n < 0:
        return 0
    return naive_partition_count(n, max_part - 1) + naive_partition_count(
        n - max_part, max_part
    )


def euler_product(order):
    """prod_{m=1}^{order} (1 - q^m) via repeated schoolbook multiplication."""
    acc = QSeries.one(order)
    for m in range(1, order + 1):
        acc = acc * (QSeries.one(order) - QSeries.monomial(m, order))
    return acc


class TestFromCoeffs:
    def test_integers_and_bools_pass(self):
        assert QSeries.from_coeffs([True, 2, False, -3], order=4).coeffs == (1, 2, 0, -3, 0)
        assert type(QSeries.from_coeffs([True]).coeffs[0]) is int

    @pytest.mark.parametrize("bad", [1.9, 2.0, "2", None, Fraction(1, 2)], ids=repr)
    def test_non_integers_are_refused_by_name(self, bad):
        # they were once truncated silently: [1.9, 2.5] gave 1 + 2q
        with pytest.raises(ParameterError, match=re.escape(repr(bad))):
            QSeries.from_coeffs([1, bad])


class TestMul:
    def test_telescoping(self):
        a = QSeries.from_coeffs([1, -1], order=3)
        b = QSeries.from_coeffs([1, 1, 1, 1])
        assert (a * b).coeffs == (1, 0, 0, 0)

    def test_binomial_square(self):
        a = QSeries.from_coeffs([1, 1], order=2)
        assert (a * a).coeffs == (1, 2, 1)

    def test_euler_product_prefix(self):
        assert euler_product(4).coeffs == (1, -1, -1, 0, 0)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            QSeries.one(3) * QSeries.one(4)
        with pytest.raises(OrderMismatchError):
            QSeries.one(3) + QSeries.one(4)


class TestReciprocal:
    def test_identity(self):
        assert QSeries.one(6).reciprocal() == QSeries.one(6)

    def test_geometric(self):
        a = QSeries.from_coeffs([1, -1], order=5)
        assert a.reciprocal().coeffs == (1, 1, 1, 1, 1, 1)

    def test_partition_counts(self):
        # oracle first: unrestricted partition counts by naive recursion
        expected = tuple(naive_partition_count(n, n) for n in range(6))
        assert expected == (1, 1, 2, 3, 5, 7)
        assert euler_product(5).reciprocal().coeffs == expected

    def test_negative_unit(self):
        a = QSeries.from_coeffs([-1, 2, 5], order=4)
        assert a * a.reciprocal() == QSeries.one(4)

    def test_non_unit_rejected(self):
        with pytest.raises(NotInvertibleError):
            QSeries.from_coeffs([2, 1], order=3).reciprocal()
        with pytest.raises(NotInvertibleError):
            QSeries.zero(3).reciprocal()


class TestDilate:
    def test_basic(self):
        a = QSeries.from_coeffs([1, 1], order=4)
        assert a.dilate(2).coeffs == (1, 0, 1, 0, 0)

    def test_identity(self):
        a = QSeries.from_coeffs([3, 1, 4, 1, 5])
        assert a.dilate(1) is a

    def test_three(self):
        a = QSeries.from_coeffs([1, 1, 1], order=6)
        assert a.dilate(3).coeffs == (1, 0, 0, 1, 0, 0, 1)

    def test_bad_factor(self):
        with pytest.raises(ParameterError):
            QSeries.one(3).dilate(0)


class TestQdq:
    def test_constant(self):
        assert QSeries.one(4).q_dq() == QSeries.zero(4)

    def test_power_rule(self):
        a = QSeries.from_coeffs([1, 1, 1])
        assert a.q_dq().coeffs == (0, 1, 2)

    def test_partition_row(self):
        p = euler_product(4).reciprocal()
        expected = tuple(n * naive_partition_count(n, n) for n in range(5))
        assert expected == (0, 1, 4, 9, 20)
        assert p.q_dq().coeffs == expected


class TestTriplePochhammer:
    def test_pentagonal_signs(self):
        tp = triple_pochhammer(3, 1, -1, 12)
        assert tp.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)

    def test_plain_pentagonal(self):
        tp = triple_pochhammer(3, 1, 1, 7)
        assert tp.coeffs == (1, 1, 1, 0, 0, 1, 0, 1)

    def test_boundary_zero_vanishes(self):
        assert triple_pochhammer(2, 0, -1, 9).is_zero()
        assert triple_pochhammer(5, 5, -1, 9).is_zero()

    def test_reflection_symmetry(self):
        for k, ell in [(4, 1), (5, 2), (7, 3), (6, 1)]:
            for sign in (1, -1):
                assert triple_pochhammer(k, ell, sign, 80) == triple_pochhammer(
                    k, k - ell, sign, 80
                )

    def test_zero_product_expands_no_factor(self, monkeypatch):
        exps = []
        real = qpl.series.binomial_product

        def counted(order, terms):
            terms = list(terms)
            exps.extend(e for _, e in terms)
            return real(order, terms)

        monkeypatch.setattr(qpl.series, "binomial_product", counted)
        _pochhammer_product.cache_clear()
        assert triple_pochhammer(2, 0, -1, 90).is_zero()
        assert triple_pochhammer(5, 5, -1, 90).is_zero()
        assert exps == []
        triple_pochhammer(2, 0, 1, 90)
        assert exps  # the counter does see a non-zero product's factors

    def test_reflected_memo_key_is_sound(self):
        # the uncached expansion, run at ell and at k - ell, not the shared entry
        expand = _pochhammer_product.__wrapped__
        for k in range(1, 9):
            for ell in range(k + 1):
                for sign in (1, -1):
                    assert expand(k, ell, sign, 60) == expand(k, k - ell, sign, 60)

    def test_ell_out_of_range(self):
        with pytest.raises(ParameterError):
            triple_pochhammer(3, 4, 1, 10)
        with pytest.raises(ParameterError):
            triple_pochhammer(3, -1, 1, 10)
        with pytest.raises(ParameterError):
            triple_pochhammer(3, 1, 2, 10)


class TestLaurent:
    def test_inverse_monomials(self):
        z = ZLaurentSeries(1, (QSeries.one(4),))
        zinv = ZLaurentSeries(-1, (QSeries.one(4),))
        prod = z * zinv
        assert (prod.zlo, prod.zhi) == (0, 0)
        assert prod.zcoeff(0) == QSeries.one(4)

    def test_hand_expansion(self):
        # (1 + q z^{-1})(1 + z) = q z^{-1} + (1 + q) + z
        a = ZLaurentSeries.qz_binomial(1, 1, -1, 3)
        b = ZLaurentSeries.qz_binomial(1, 0, 1, 3)
        prod = a * b
        assert prod.zcoeff(-1) == QSeries.monomial(1, 3)
        assert prod.zcoeff(0) == QSeries.from_coeffs([1, 1], order=3)
        assert prod.zcoeff(1) == QSeries.one(3)
        assert prod.zcoeff(2).is_zero() and prod.zcoeff(-2).is_zero()

    def test_annihilation(self):
        zero = ZLaurentSeries(-2, tuple(QSeries.zero(3) for _ in range(4)))
        other = ZLaurentSeries.qz_binomial(1, 2, 1, 3)
        prod = zero * other
        assert all(s.is_zero() for s in prod.zcoeffs)
        assert (prod.zlo, prod.zhi) == (-2 + 0, 1 + 1)

    def test_binomial_takes_unit_z_exponents_only(self):
        for z_exp in (0, 2, -2):
            with pytest.raises(ParameterError):
                ZLaurentSeries.qz_binomial(1, 1, z_exp, 3)
        with pytest.raises(ParameterError):
            ZLaurentSeries.qz_binomial(1, -1, 1, 3)
        # a q-term past the order vanishes
        past = ZLaurentSeries.qz_binomial(1, 4, -1, 3)
        assert past.zcoeff(-1).is_zero() and past.zcoeff(0) == QSeries.one(3)

    def test_q_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            ZLaurentSeries(0, (QSeries.one(3),)) * ZLaurentSeries(0, (QSeries.one(4),))
        with pytest.raises(OrderMismatchError):
            ZLaurentSeries(0, (QSeries.one(3), QSeries.one(4)))


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------

coeff = st.integers(min_value=-9, max_value=9)


@st.composite
def series_batch(draw, count, max_order=64):
    order = draw(st.integers(min_value=0, max_value=max_order))
    return [
        QSeries.from_coeffs(
            draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
        )
        for _ in range(count)
    ]


@st.composite
def unit_series(draw, max_order=48):
    order = draw(st.integers(min_value=0, max_value=max_order))
    coeffs = draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
    coeffs[0] = draw(st.sampled_from([1, -1]))
    return QSeries.from_coeffs(coeffs)


@given(series_batch(2))
def test_mul_commutative(pair):
    a, b = pair
    assert a * b == b * a


@settings(max_examples=60)
@given(series_batch(3))
def test_mul_associative(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@given(unit_series())
def test_reciprocal_inverts(a):
    assert a * a.reciprocal() == QSeries.one(a.order)


@settings(max_examples=60)
@given(series_batch(2), st.integers(min_value=1, max_value=5))
def test_dilate_is_ring_map(pair, k):
    a, b = pair
    assert (a * b).dilate(k) == a.dilate(k) * b.dilate(k)


@given(
    series_batch(1),
    st.integers(min_value=-3, max_value=3).filter(bool),
    st.integers(min_value=1, max_value=20),
)
def test_binomial_fast_paths_match_schoolbook(batch, c, e):
    (a,) = batch
    factor = QSeries.one(a.order) + (
        QSeries.monomial(e, a.order, c) if e <= a.order else QSeries.zero(a.order)
    )
    assert a.mul_binomial(c, e) == a * factor
    if e <= a.order:
        assert a.div_binomial(c, e) == a * factor.reciprocal()
    assert a.div_binomial(c, e).mul_binomial(c, e) == a


# ---------------------------------------------------------------------------
# map-based kernels against a scalar reference
# ---------------------------------------------------------------------------


def schoolbook_mul(a, b):
    """Reference Cauchy product: one scalar multiply-add per coefficient pair."""
    n = a.order
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return QSeries(tuple(out))


def schoolbook_mul_binomial(a, c, e):
    """Reference product with (1 + c·q^e), one coefficient at a time."""
    out = list(a.coeffs)
    for i in range(e, a.order + 1):
        out[i] += c * a[i - e]
    return QSeries(tuple(out))


huge = st.integers(min_value=10**30, max_value=10**40)
# the kernels branch on 0, +1, -1 and any other value; cover each, and big ints
kernel_coeff = st.one_of(
    st.sampled_from([0, 1, -1]), coeff, huge, huge.map(neg)
)


@st.composite
def kernel_pair(draw, max_order=40):
    order = draw(st.integers(min_value=0, max_value=max_order))
    left = draw(st.lists(kernel_coeff, min_size=order + 1, max_size=order + 1))
    right = draw(st.lists(kernel_coeff, min_size=order + 1, max_size=order + 1))
    return QSeries(tuple(left)), QSeries(tuple(right))


@given(kernel_pair())
def test_mul_matches_schoolbook(pair):
    a, b = pair
    assert a * b == schoolbook_mul(a, b)


@given(kernel_pair(), kernel_coeff, st.integers(min_value=1, max_value=50))
def test_mul_binomial_matches_schoolbook(pair, c, e):
    a, _ = pair
    assert a.mul_binomial(c, e) == schoolbook_mul_binomial(a, c, e)


def test_mul_kernel_branches():
    # one left coefficient per branch: skipped, added, subtracted, scaled
    a = QSeries((0, 1, -1, 7, 10**31, -(10**31)))
    b = QSeries((-3, 5, -(10**35), 2, 0, -1))
    assert a * b == schoolbook_mul(a, b)
    for c in (0, 1, -1, 7, -(10**31)):
        for e in (1, 3, 5, 6, 40):
            assert b.mul_binomial(c, e) == schoolbook_mul_binomial(b, c, e)


# ---------------------------------------------------------------------------
# the packed binomial product against a chain of mul_binomial/div_binomial
# ---------------------------------------------------------------------------


def chained_product(order, terms):
    """Reference: one mul_binomial per factor, on the list-based QSeries."""
    out = QSeries.one(order)
    for c, e in terms:
        out = out.mul_binomial(c, e)
    return out


def unsigned_bits(order, terms):
    """Bit length of the largest coefficient of prod (1 + q^e), exactly."""
    return max(chained_product(order, [(1, e) for _, e in terms]).coeffs).bit_length()


@pytest.fixture(scope="module")
def battery_terms():
    """Every distinct (order, terms) the order-400 battery hands the kernel."""
    seen = {}
    real = qpl.series.binomial_product

    def recorded(order, terms):
        terms = tuple(terms)
        seen[order, terms] = None
        return real(order, terms)

    for memo in (_gf_product, _pochhammer_product):
        memo.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        for module in ("qpl.series", "qpl.partitions", "qpl.identities"):
            mp.setattr(f"{module}.binomial_product", recorded)
        battery(3, 8, 400)
    for memo in (_gf_product, _pochhammer_product):
        memo.cache_clear()
    return list(seen)


def test_battery_term_lists_match_chain(battery_terms):
    # the gf_count products (all modes), both triple_pochhammer signs, the
    # triple product's Euler product, and the half-boundary products
    assert len(battery_terms) > 150
    for order, terms in battery_terms:
        assert binomial_product(order, terms) == chained_product(order, terms)


def list_gf_product(members, mode, order):
    """The division-based expansion of gf_count, one factor at a time."""
    g = mode.gamma
    cap = mode.max_multiplicity
    acc = QSeries.one(order)
    for m in members:
        if cap is None:
            acc = acc.div_binomial(-g, m)
        elif cap == 1:
            acc = acc.mul_binomial(g, m)
        else:
            g_top = g if (cap + 1) % 2 else 1
            if (cap + 1) * m <= order:
                acc = acc.mul_binomial(-g_top, (cap + 1) * m)
            acc = acc.div_binomial(-g, m)
    return acc


@pytest.mark.parametrize("cap", [None, 1, 2, 3, 4])
@pytest.mark.parametrize("length_signed", [False, True])
def test_gf_product_matches_division_chain(cap, length_signed):
    mode = CountMode(cap, length_signed)
    expand = _gf_product.__wrapped__
    for part_set in (
        PartSet.with_multiples(3, 1),
        PartSet.plus_minus(5, 2),
        PartSet.with_multiples(8, 3),
    ):
        members = tuple(part_set.members_upto(300))
        assert expand(members, mode, 300) == list_gf_product(members, mode, 300)


signed_term = st.tuples(st.sampled_from([1, -1]), st.integers(min_value=1, max_value=70))


@given(st.integers(min_value=0, max_value=60), st.lists(signed_term, max_size=40))
def test_random_term_lists_match_chain(order, terms):
    # mixed signs, repeated exponents, exponents past the order, order 0
    assert binomial_product(order, terms) == chained_product(order, terms)


def test_binomial_product_edges():
    assert binomial_product(0, [(1, 1), (-1, 5)]) == QSeries.one(0)
    assert binomial_product(5, []) == QSeries.one(5)
    assert binomial_product(3, [(-1, 1)] * 3).coeffs == (1, -3, 3, -1)
    for order, terms in ((-1, []), (4, [(1, 0)]), (4, [(2, 1)]), (4, [(0, 1)])):
        with pytest.raises(ParameterError):
            binomial_product(order, terms)


def test_slot_width_holds_the_unsigned_product(battery_terms):
    # binomial_product passes one extra exponent 0, a factor 2, which buys the sign bit
    n = 3000  # the gf_count that divisors --check --n 3000 expands for Jbar(5, 1)
    terms = []
    for m in PartSet.with_multiples(5, 1).members_upto(n):
        e = m
        while e <= n:
            terms.append((1, e))
            e *= 2
    for order, ts in battery_terms + [(n, terms)]:
        exps = [e for _, e in ts if e <= order]
        assert 8 * _slot_bytes(order, [0] + exps) - 1 >= unsigned_bits(order, ts)
    # the triple-product rows: 2·prod (1 + q^m)^2, with e = 0 as the factor 2
    for order in (0, 1, 2, 30, 200, 400):
        ms = [m for m in range(1, order + 1) for _ in range(2)]
        row_bits = (2 * max(chained_product(order, [(1, m) for m in ms]).coeffs)).bit_length()
        assert 8 * _slot_bytes(order, [0] + ms) > row_bits


def test_kernel_sizes_slots_for_twice_the_unsigned_product(monkeypatch):
    # the bound has bits to spare, so a missing sign bit shows in no output:
    # check that the kernel asks _slot_bytes for 2·U, the extra factor 1 + q^0
    asked = []
    real = qpl.series._slot_bytes

    def recorded(order, exps):
        asked.append(sorted(exps))
        return real(order, exps)

    monkeypatch.setattr(qpl.series, "_slot_bytes", recorded)
    binomial_product(9, [(1, 2), (-1, 7), (1, 12), (-1, 2)])
    binomial_product(0, [(1, 1)])
    assert asked == [[0, 2, 2, 7], [0]]


def product_at_width(monkeypatch, slot_bytes, order, terms):
    """binomial_product with every slot slot_bytes wide; None when it cannot decode."""
    monkeypatch.setattr(qpl.series, "_slot_bytes", lambda order, exps: slot_bytes)
    try:
        return binomial_product(order, terms)
    except (OverflowError, struct.error):  # a value too wide for its slot
        return None
    finally:
        monkeypatch.undo()


def test_narrow_slots_break_the_unsigned_product(monkeypatch):
    # all factors 1 + q^e: the product is U itself, and its largest
    # coefficient needs its bits plus the sign bit
    order = 200
    terms = [(1, m) for m in range(1, order + 1) for _ in range(3)]
    need = unsigned_bits(order, terms) // 8 + 1
    expected = chained_product(order, terms)
    assert product_at_width(monkeypatch, need, order, terms) == expected
    assert product_at_width(monkeypatch, need - 1, order, terms) != expected


def test_signed_slots_need_only_the_final_coefficients(monkeypatch):
    # prod (1 + q^m)^3 (1 - q^m): partial products and U need 66 bits, the
    # final coefficients 32; slots modulo 2^{W(order+1)} need only the latter
    order = 200
    terms = [(c, m) for m in range(1, order + 1) for c in (1, 1, 1, -1)]
    expected = chained_product(order, terms)
    need = max(map(abs, expected.coeffs)).bit_length() // 8 + 1
    assert need < unsigned_bits(order, terms) // 8 + 1
    assert product_at_width(monkeypatch, need, order, terms) == expected
    assert product_at_width(monkeypatch, need - 1, order, terms) != expected
    # prod (1 - q^{2m})(1 + q^m) = sum q^{m(m+1)/2}: one byte, though U needs 56 bits
    terms = [(c, m) for m in range(1, order + 1) for c in (-1, 1, 1)]
    assert product_at_width(monkeypatch, 1, order, terms) == chained_product(order, terms)


@pytest.mark.parametrize("slot_bytes", [1, 2])
def test_slot_edge_values_decode(monkeypatch, slot_bytes):
    # (1 ± q)^m at order 1 is 1 ± m·q: m = 2^{W-1} - 1 is the widest value a
    # W-bit slot holds, and one more breaks the decode
    edge = (1 << 8 * slot_bytes - 1) - 1
    for c in (1, -1):
        terms = [(c, 1)] * edge
        assert product_at_width(monkeypatch, slot_bytes, 1, terms) == chained_product(1, terms)
    terms = [(1, 1)] * (edge + 1)
    assert product_at_width(monkeypatch, slot_bytes, 1, terms) != chained_product(1, terms)


def test_slot_edge_values_decode_from_the_shift_loop(monkeypatch):
    # at order 2, (1 + q)^a (1 - q)^b = 1 + (a - b)·q + ((a - b)^2 - a - b)/2·q^2,
    # and every factor stays in the shift loop: ±127 fill a one-byte slot
    for a, b, coeffs in ((8255, 8128, (1, 127, -127)), (8128, 8255, (1, -127, -127))):
        terms = [(1, 1)] * a + [(-1, 1)] * b
        assert chained_product(2, terms).coeffs == coeffs
        assert product_at_width(monkeypatch, 1, 2, terms).coeffs == coeffs
    terms = [(1, 1)] * 8000 + [(-1, 1)] * 7873  # 1 + 127·q + 128·q^2
    assert product_at_width(monkeypatch, 1, 2, terms) != chained_product(2, terms)


def test_fold_boundary_matches_chain():
    # factors at order//2 stay in the shift loop, those from order//2 + 1 on
    # are folded into one multiply; duplicates above the half add up there
    for order in range(10):
        half = order // 2
        exps = sorted({e for e in (half, half + 1, order) if 1 <= e <= order + 1})
        options = [(c, e) for e in exps for c in (1, -1)]
        for length in range(4):
            for terms in product(options, repeat=length):
                assert binomial_product(order, terms) == chained_product(order, terms)


def test_mul_edge_cases_match_schoolbook():
    cases = [
        ((3, 0, -2, 5), (1, 1, 1, 1)),  # non-unit left coefficients
        ((1, -1, 0, 2), (-4, -7, 0, -(10**20))),  # negative right coefficients
        ((0, 0, 0), (5, -6, 7)),  # all-zero left factor
        ((5, -6, 7), (0, 0, 0)),  # all-zero right factor
        ((0, 0, 0), (0, 0, 0)),
        ((4,), (-9,)),  # order 0
        ((0,), (10**30,)),
        ((-1,), (-(10**30),)),
    ]
    for left, right in cases:
        a, b = QSeries(left), QSeries(right)
        assert a * b == schoolbook_mul(a, b)
        assert b * a == schoolbook_mul(b, a)


@pytest.mark.parametrize("slot_bytes", [1, 2, 3, 4, 5, 8, 9, 16])
def test_mul_decodes_the_widest_slot_values(slot_bytes):
    # a unit left factor makes the slot width the bit length of max|b| plus
    # the sign bit, so ±(2^{W-1} - 1) fill their slots exactly
    edge = (1 << 8 * slot_bytes - 1) - 1
    a = QSeries((1, 0, 0, 0))
    b = QSeries((edge, -edge, 0, edge))
    assert a * b == schoolbook_mul(a, b) == b
    a = QSeries((0, -1, 0, 0))
    assert a * b == schoolbook_mul(a, b)
