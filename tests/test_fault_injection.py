"""Every verifier can fail: corrupting one coefficient of one kernel result
yields a failing report located at the corrupted exponent."""

import os

import pytest

import qpl.divisors
import qpl.identities
import qpl.partitions
import qpl.series
from qpl.divisors import apostol_convolution_check, divisor_table, kim_identity_check
from qpl.figurate import ModularParams, signed_figurate_series
from qpl.identities import (
    verify_berger,
    verify_boundary_half,
    verify_hermite,
    verify_specialized,
    verify_sylvester,
    verify_triple_product,
)
from qpl.partitions import (
    SIGNED_DISTINCT,
    UNRESTRICTED,
    CountMode,
    at_most,
    bounded_mult_shift_identity,
    gf_count,
    oracle_table,
    partition_shift_identities,
    recursive_count_jbar,
)
from qpl.partsets import PartSet
from qpl.reports import compare_series
from qpl.series import PackedZRows, QSeries

ORDER = 40
E = 17


MEMOS = (
    qpl.partitions._gf_product,
    qpl.series._pochhammer_product,
)


@pytest.fixture(autouse=True)
def fresh_memos():
    """A patched kernel can neither be hidden by a table or product cached
    before the test nor leave a corrupted one cached after it."""
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


def corrupt(monkeypatch, module, name, e, *key):
    """Replace module.name so calls whose leading arguments equal ``key`` get
    one added to the coefficient at exponent e of the resulting QSeries;
    returns the true value there."""
    real = getattr(module, name)
    truth = []

    def corrupted(*args):
        table = real(*args)
        if args[: len(key)] != key:
            return table
        values = list(table.coeffs)
        truth.append(values[e])
        values[e] += 1
        return QSeries(tuple(values))

    monkeypatch.setattr(module, name, corrupted)
    return truth


def assert_fails_at(report, e, lhs, rhs, z=None):
    out = report.to_json_dict()
    assert out["outcome"] == "fail"
    assert out["location"] == {"q": e, "z": z}
    assert (out["lhs"], out["rhs"]) == (str(lhs), str(rhs))


@pytest.mark.parametrize("gamma", [1, -1])
def test_partition_shift_first_half(monkeypatch, gamma):
    params = ModularParams(4, 1)
    j_set = PartSet.plus_minus(4, 1)
    truth = corrupt(
        monkeypatch, qpl.partitions, "gf_count", E, j_set, CountMode(1, gamma == -1)
    )
    rep = partition_shift_identities(params, gamma, ORDER)
    assert_fails_at(rep, E, truth[0] + 1, truth[0])


def test_partition_shift_second_half(monkeypatch):
    params = ModularParams(5, 2)
    truth = corrupt(
        monkeypatch, qpl.partitions, "gf_count", E, PartSet.plus_minus(5, 2), UNRESTRICTED
    )
    rep = partition_shift_identities(params, 1, ORDER)
    assert_fails_at(rep, E, truth[0] + 1, truth[0])


def test_bounded_mult_shift(monkeypatch):
    params = ModularParams(4, 1)
    truth = corrupt(
        monkeypatch, qpl.partitions, "gf_count", E, PartSet.with_multiples(4, 1), at_most(2)
    )
    rep = bounded_mult_shift_identity(params, 2, ORDER)
    assert_fails_at(rep, E, truth[0] + 1, truth[0])


def test_kim_series_stage(monkeypatch):
    truth = corrupt(monkeypatch, qpl.divisors, "divisor_table", E)
    rep = kim_identity_check(ModularParams(5, 2), ORDER)
    assert_fails_at(rep, E, truth[0] + 1, truth[0])


def test_kim_formula_stage(monkeypatch):
    truth = corrupt(monkeypatch, qpl.divisors, "shift_formula_divisor_sums", E)
    rep = kim_identity_check(ModularParams(5, 2), ORDER)
    assert_fails_at(rep, E, truth[0], truth[0] + 1)
    assert truth[0] == divisor_table(PartSet.with_multiples(5, 2), ORDER).coeffs[E]


def test_triple_product(monkeypatch):
    real = PackedZRows.zcoeff

    def corrupted(rows, j):
        row = real(rows, j)
        if j != 2:
            return row
        coeffs = list(row.coeffs)
        coeffs[E] += 1
        return QSeries(tuple(coeffs))

    monkeypatch.setattr(PackedZRows, "zcoeff", corrupted)
    # z^2 carries q^1 alone, so the bumped coefficient was 0; the Euler
    # product has constant term 1 and leaves every exponent below E alone
    assert_fails_at(verify_triple_product(ORDER, 4), E, 1, 0, z=2)


def test_specialized(monkeypatch):
    truth = corrupt(monkeypatch, qpl.identities, "triple_pochhammer", E, 5, 2, 1)
    rep = verify_specialized(ModularParams(5, 2), 1, ORDER)
    assert_fails_at(rep, E, truth[0] + 1, truth[0])


def test_berger_second_sign(monkeypatch):
    truth = corrupt(monkeypatch, qpl.identities, "triple_pochhammer", E, 4, 1, -1)
    rep = verify_berger(4, ORDER)
    assert_fails_at(rep, E, truth[0] + 1, truth[0])
    assert rep.parameters == {"k": 4, "sign": -1}


def test_hermite_product_stage(monkeypatch):
    # [6 choose 4]_q feeds the z^1 coefficient at s = 3, whose shift q^0 is trivial
    truth = corrupt(monkeypatch, qpl.identities, "gaussian_binomial", 2, 6, 4)
    rep = verify_hermite(3)
    assert_fails_at(rep, 2, truth[0], truth[0] + 1, z=1)


def test_hermite_packed_rows(monkeypatch):
    # the z^1 row at s = 3 is [6 choose 4]_q, whose q^2 coefficient is 2
    real = PackedZRows.zcoeff

    def corrupted(rows, j):
        row = real(rows, j)
        if j != 1:
            return row
        coeffs = list(row.coeffs)
        coeffs[2] += 1
        return QSeries(tuple(coeffs))

    monkeypatch.setattr(PackedZRows, "zcoeff", corrupted)
    assert_fails_at(verify_hermite(3), 2, 3, 2, z=1)


def test_hermite_substituted_stage(monkeypatch):
    truth = corrupt(
        monkeypatch,
        qpl.identities,
        "gf_count",
        E,
        PartSet.finite_prefix(3, 1, 3),
        CountMode(1, True),
    )
    rep = verify_hermite(3)
    assert_fails_at(rep, E, truth[0] + 1, truth[0])
    assert rep.parameters == {"s": 3, "k": 3, "ell": 1, "gamma": -1}


def test_boundary_half(monkeypatch):
    real = qpl.identities.binomial_product
    calls = []

    def corrupted(order, terms):
        product = real(order, terms)
        calls.append(order)
        if len(calls) > 1:
            return product
        coeffs = list(product.coeffs)
        coeffs[E] += 1
        return QSeries(tuple(coeffs))

    monkeypatch.setattr(qpl.identities, "binomial_product", corrupted)
    # the first product is the quotient of (a), which moves by 1 at E;
    # sum_j q^{2j^2} has no term at 17
    assert_fails_at(verify_boundary_half(4, ORDER), E, 1, 0)
    assert calls == [ORDER, ORDER]


def test_sylvester(monkeypatch):
    truth = corrupt(
        monkeypatch,
        qpl.identities,
        "gf_count",
        E,
        PartSet.with_multiples(5, 2),
        SIGNED_DISTINCT,
    )
    rep = verify_sylvester(ModularParams(5, 2), ORDER)
    assert_fails_at(rep, E, truth[0] + 1, truth[0])


def test_apostol(monkeypatch):
    truth = corrupt(
        monkeypatch,
        qpl.divisors,
        "gf_count",
        E,
        PartSet.with_multiples(4, 1),
        SIGNED_DISTINCT,
    )
    rep = apostol_convolution_check(ModularParams(4, 1), ORDER)
    assert_fails_at(rep, E, E * (truth[0] + 1), E * truth[0])


# The same key runs honest, with a part dropped, and honest again: the patched
# run must compute its own oracle passes, and the run after it must not reuse them.
@pytest.mark.parametrize("patched", [False, True, False], ids=["before", "patched", "after"])
def test_oracle_sees_a_patched_members_upto(monkeypatch, patched):
    jbar = PartSet.with_multiples(3, 1)
    if patched:
        members_upto = PartSet.members_upto
        monkeypatch.setattr(
            PartSet, "members_upto", lambda ps, n: [m for m in members_upto(ps, n) if m != E]
        )
    oracle = oracle_table(jbar, UNRESTRICTED, ORDER)
    recursion = recursive_count_jbar(ModularParams(3, 1), ORDER)
    rep = compare_series("partitions_check", {"k": 3, "ell": 1}, ORDER, oracle, recursion)
    if patched:
        # only the one-part partition (E) used the dropped part at n = E
        assert_fails_at(rep, E, recursion[E] - 1, recursion[E])
    else:
        assert rep.passed


def test_gf_count_memo_sees_a_patched_members_upto(monkeypatch):
    jbar = PartSet.with_multiples(3, 1)
    recursion = recursive_count_jbar(ModularParams(3, 1), ORDER)
    honest = gf_count(jbar, UNRESTRICTED, ORDER)
    assert honest == recursion
    members_upto = PartSet.members_upto
    monkeypatch.setattr(
        PartSet, "members_upto", lambda ps, n: [m for m in members_upto(ps, n) if m != E]
    )
    misses = qpl.partitions._gf_product.cache_info().misses
    patched = gf_count(jbar, UNRESTRICTED, ORDER)
    # the warm entry is keyed by the members it ran over, so it cannot answer
    assert qpl.partitions._gf_product.cache_info().misses == misses + 1
    rep = compare_series("partitions_check", {"k": 3, "ell": 1}, ORDER, patched, recursion)
    # only the one-part partition (E) used the dropped part at n = E
    assert_fails_at(rep, E, recursion[E] - 1, recursion[E])
    monkeypatch.undo()
    assert gf_count(jbar, UNRESTRICTED, ORDER) is honest


def test_divisor_checks_see_a_patched_members_upto(monkeypatch):
    # the scans decide membership by the rule, the generating functions
    # expand over members_upto, so a dropped part splits the two sides
    params = ModularParams(3, 1)  # Jbar:3,1 is every positive integer
    sigma = divisor_table(PartSet.with_multiples(3, 1), ORDER)[E]
    members_upto = PartSet.members_upto
    monkeypatch.setattr(
        PartSet, "members_upto", lambda ps, n: [m for m in members_upto(ps, n) if m != E]
    )
    # F = -(q·g1')·f then sums the divisors other than E
    assert_fails_at(kim_identity_check(params, ORDER), E, sigma, sigma - E)
    # r(E) = 0 off the pentagonal numbers, and the one-part partition adds 1
    assert_fails_at(apostol_convolution_check(params, ORDER), E, E, 0)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_dilated_pentagonal_series_is_euler_product(k):
    euler = QSeries.one(ORDER)
    for m in range(1, ORDER // k + 1):
        euler = euler.mul_binomial(-1, k * m)
    assert signed_figurate_series(ModularParams(3, 1), -1, ORDER).dilate(k) == euler


@pytest.mark.usefixtures("deadline", "no_child_left")
def test_battery_worker_share(monkeypatch, cpus, tmp_path):
    # two processes pull the k-blocks; whichever runs k = 7 computes the
    # corrupted product there alone, records its pid, and its failing report
    # comes back
    cpus(2)
    key = (PartSet.with_multiples(7, 2), SIGNED_DISTINCT)
    truth = corrupt(monkeypatch, qpl.identities, "gf_count", E, *key)
    corrupted = qpl.identities.gf_count
    pids = tmp_path / "pids"

    def recorded(*args):
        if args[:2] == key:
            with open(pids, "a", encoding="utf-8") as out:
                out.write(f"{os.getpid()}\n")
        return corrupted(*args)

    monkeypatch.setattr(qpl.identities, "gf_count", recorded)
    reports = qpl.identities.battery(3, 8, ORDER, jobs=2)
    (ran_in,) = set(pids.read_text(encoding="utf-8").split())
    # only the process that ran the corrupted product saw its true value
    assert bool(truth) == (int(ran_in) == os.getpid())
    failing = [r for r in reports if not r.passed]
    assert [(r.identity, r.parameters) for r in failing] == [("sylvester", {"k": 7, "ell": 2})]
    value = signed_figurate_series(ModularParams(7, 2), -1, ORDER).coeffs[E]
    assert_fails_at(failing[0], E, value + 1, value)
