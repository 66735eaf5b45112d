"""Every verifier can fail: corrupting one coefficient of one kernel result
yields a failing report located at the corrupted exponent."""

import dataclasses

import pytest

import qpl.divisors
import qpl.partitions
from qpl.divisors import divisor_table, kim_identity_check
from qpl.figurate import ModularParams, signed_figurate_series
from qpl.partitions import (
    UNRESTRICTED,
    CountMode,
    at_most,
    bounded_mult_shift_identity,
    partition_shift_identities,
)
from qpl.partsets import PartSet
from qpl.series import QSeries

ORDER = 40
E = 17


def corrupt(monkeypatch, module, name, e, *key):
    """Replace module.name so calls whose leading arguments equal ``key`` get
    one added to the coefficient at exponent e; returns the true value there."""
    real = getattr(module, name)
    truth = []

    def corrupted(*args):
        table = real(*args)
        if args[: len(key)] != key:
            return table
        values = list(table.values)
        truth.append(values[e])
        values[e] += 1
        return dataclasses.replace(table, values=tuple(values))

    monkeypatch.setattr(module, name, corrupted)
    return truth


def assert_fails_at(report, e, lhs, rhs):
    out = report.to_json_dict()
    assert out["outcome"] == "fail"
    assert out["location"] == {"q": e, "z": None}
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
    assert truth[0] == divisor_table(PartSet.with_multiples(5, 2), ORDER).values[E]


@pytest.mark.parametrize("k", [1, 2, 5])
def test_dilated_pentagonal_series_is_euler_product(k):
    euler = QSeries.one(ORDER)
    for m in range(1, ORDER // k + 1):
        euler = euler.mul_binomial(-1, k * m)
    assert signed_figurate_series(ModularParams(3, 1), -1, ORDER).dilate(k) == euler
