"""The immutable value classes: pinned reprs, equality by type and fields,
hashing that keeps the memos hitting, and no assignment after construction."""

import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import qpl
from qpl.figurate import ModularParams
from qpl.partitions import UNRESTRICTED, CountMode, _gf_product, gf_count
from qpl.partsets import PartSet
from qpl.reports import Mismatch, VerificationReport
from qpl.series import PackedZRows, QSeries, ZLaurentSeries
from qpl.theta import ThetaPoint
from qpl.value import Value


def _examples():
    """(build, repr): a builder of each value class and the repr it had as a dataclass."""
    return [
        (lambda: ModularParams(5, 2), "ModularParams(k=5, ell=2)"),
        (lambda: CountMode(2, True), "CountMode(max_multiplicity=2, length_signed=True)"),
        (lambda: CountMode(), "CountMode(max_multiplicity=None, length_signed=False)"),
        (lambda: PartSet.plus_minus(5, 2), "PartSet(J:5,2)"),
        (lambda: PartSet.explicit([3, 1]), "PartSet(set:1,3)"),
        (lambda: QSeries((1, 2, 0, -3)), "QSeries(order=3: 1 + 2*q - 3*q^3)"),
        (
            lambda: ZLaurentSeries(-1, (QSeries((1, 0)), QSeries((0, 1)))),
            "ZLaurentSeries(zlo=-1, zcoeffs=(QSeries(order=1: 1), QSeries(order=1: q)))",
        ),
        (
            lambda: PackedZRows(1, (1, 2, 3), 2, 0),
            "PackedZRows(margin=1, packed=(1, 2, 3), slot_bytes=2, order=0)",
        ),
        (lambda: Mismatch(3, 1, 2), "Mismatch(q_exponent=3, lhs=1, rhs=2, z_exponent=None)"),
        (
            lambda: VerificationReport("kim", {"k": 3}, 5, False, Mismatch(3, 1, 2, -1)),
            "VerificationReport(identity='kim', parameters={'k': 3}, order=5, passed=False, "
            "mismatch=Mismatch(q_exponent=3, lhs=1, rhs=2, z_exponent=-1))",
        ),
        (lambda: ThetaPoint(0.3, 0.13), "ThetaPoint(q=(0.3+0j), z=(0.13+0j), nu=None, tau=None)"),
        (
            lambda: ThetaPoint.from_qz(0.3, 0.13),
            "ThetaPoint(q=(0.3+0j), z=(0.13+0j), nu=None, tau=None)",
        ),
        (
            lambda: ThetaPoint.from_nu_tau(0.1, 0.5j),
            "ThetaPoint(q=(0.04321391826377226+0j), z=(0.8090169943749475+0.5877852522924731j), "
            "nu=(0.1+0j), tau=0.5j)",
        ),
    ]


EXAMPLES = _examples()
IDS = [text.split("(", 1)[0] + str(i) for i, (_, text) in enumerate(EXAMPLES)]


def _qpl_value_classes():
    """Every Value subclass defined in a qpl module, each module imported first."""
    for info in pkgutil.iter_modules(qpl.__path__):
        importlib.import_module(f"qpl.{info.name}")
    found, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("qpl."):
                found.add(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


VALUE_CLASSES = _qpl_value_classes()


def test_every_value_class_has_an_example():
    assert len(VALUE_CLASSES) == 9
    assert {type(build()) for build, _ in EXAMPLES} == set(VALUE_CLASSES)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__qualname__)
def test_constructors_take_the_slots_in_order(cls):
    # pickling and the base constructor both pass the fields in slot order
    if "__init__" in vars(cls):
        names = list(inspect.signature(cls.__init__).parameters)[1:]
        assert names == list(cls.__slots__)


def test_the_base_constructor_needs_every_field():
    with pytest.raises(ValueError):
        PackedZRows(1, (1, 2, 3), 2)
    with pytest.raises(ValueError):
        PackedZRows(1, (1, 2, 3), 2, 0, 0)


def test_validated_integer_fields_hold_exact_ints():
    params = ModularParams(True, 0)
    assert type(params.k) is int and params.k == 1
    assert type(ModularParams(3, True).ell) is int
    mode = CountMode(True)
    assert type(mode.max_multiplicity) is int and mode.max_multiplicity == 1
    prefix = PartSet.finite_prefix(5, 2, True)
    assert type(prefix.s) is int and prefix.s == 1


@pytest.mark.parametrize("build,text", EXAMPLES, ids=IDS)
def test_repr_is_the_dataclass_one(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build,text", EXAMPLES, ids=IDS)
def test_equal_builds_are_equal_and_hash_alike(build, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    if not isinstance(a, VerificationReport):  # its parameters are a dict
        assert hash(a) == hash(b)


@pytest.mark.parametrize("build,text", EXAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(build, text):
    value = build()
    name = type(value).__slots__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1  # no __dict__ either
    assert getattr(value, name) is before


@pytest.mark.parametrize("build,text", EXAMPLES, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_value(build, text):
    value = build()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


class _Twin(Value):
    """A class with Mismatch's fields, which must still not equal a Mismatch."""

    __slots__ = ("q_exponent", "lhs", "rhs", "z_exponent")

    def __init__(self, q_exponent, lhs, rhs, z_exponent=None):
        super().__init__(q_exponent, lhs, rhs, z_exponent)


def test_equality_compares_the_type():
    m = Mismatch(3, 1, 2)
    assert m != (3, 1, 2, None)
    assert (3, 1, 2, None) != m
    assert m != _Twin(3, 1, 2) and _Twin(3, 1, 2) != m
    assert m.__eq__(_Twin(3, 1, 2)) is NotImplemented
    assert m.__eq__((3, 1, 2, None)) is NotImplemented
    assert ModularParams(3, 1) != CountMode(3, True)


def test_equality_compares_every_field():
    assert Mismatch(3, 1, 2) != Mismatch(3, 1, 2, 0)
    assert CountMode(2, True) != CountMode(2, False)
    assert PartSet.plus_minus(5, 2) != PartSet.with_multiples(5, 2)
    assert PartSet.finite_prefix(5, 2, 1) != PartSet.finite_prefix(5, 2, 2)
    assert ThetaPoint(0.3, 0.13) != ThetaPoint(0.3, 0.14)
    assert len({ModularParams(3, 1), ModularParams(3, 1), ModularParams(3, 2)}) == 2


def test_a_fresh_mode_hits_the_memo_filled_by_the_constant():
    # the product memo is keyed by the mode, so equal modes must hash alike
    fresh = CountMode(None, False)
    assert fresh is not UNRESTRICTED
    j_set = PartSet.plus_minus(5, 2)
    _gf_product.cache_clear()
    try:
        first = gf_count(j_set, UNRESTRICTED, 40)
        again = gf_count(j_set, fresh, 40)
        info = _gf_product.cache_info()
    finally:
        _gf_product.cache_clear()
    assert again is first
    assert (info.hits, info.misses) == (1, 1)
