"""The counting routes share no code beyond the vocabulary and the packed codec.

The cross-checks between the oracle (route 1), the generating functions
(route 2) and the figurate-shift recursions (route 3) prove something only
while the routes compute independently: a helper both sides call can be
wrong on both sides at once. A sys.setprofile hook records every qpl
function each route enters, and each pairwise intersection must equal a
written allowlist, so a new shared helper fails here until it is listed
with its reason. The three `divisors --method` routes are held to the same
rule.
"""

import sys

import pytest

from qpl.divisors import DIVISOR_METHODS, divisor_sums
from qpl.figurate import ModularParams
from qpl.partitions import (
    UNRESTRICTED,
    SIGNED_DISTINCT,
    _gf_product,
    at_most,
    gf_count,
    oracle_table,
    recursion_table,
)
from qpl.partsets import parse_part_set
from qpl.series import _pochhammer_product

SETS = ("J:5,2", "Jbar:5,2", "J:4,1", "Jbar:3,1")
MODES = (UNRESTRICTED, SIGNED_DISTINCT, at_most(2), at_most(3, True))
ORDER = 60

# every route builds its result as a QSeries, which enters the base
# constructor, and reads the mode's sign
VOCABULARY = {
    "qpl.series.QSeries.__init__",
    "qpl.value.Value.__init__",
    "qpl.partitions.CountMode.gamma",
}

COUNTING_SHARED = {
    # both enumerate the part set's members, the set's own rule
    ("oracle", "gf"): VOCABULARY | {"qpl.partsets.PartSet.members_upto"},
    ("oracle", "recursion"): VOCABULARY,
    # the packed codec: route 2 decodes binomial_product through it and route
    # 3 multiplies through QSeries.__mul__. Above the oracle bound only these
    # two routes compare, so the guard is that the tests check both packed
    # kernels against scalar references (chained_product, schoolbook_mul)
    ("gf", "recursion"): VOCABULARY
    | {
        "qpl.series._pack",
        "qpl.series._decode",
        "qpl.series._offset",
        "qpl.series._slot_format",
    },
}

# the residues-with-multiples parameters, checked by every route
PARAMS = {
    "qpl.divisors.divisor_sums",
    "qpl.figurate.ModularParams.boundary_class",
    "qpl.figurate.ModularParams.is_interior",
    "qpl.figurate.require_interior",
    "qpl.series.QSeries.__init__",
    # every route builds a QSeries, which enters the base constructor
    "qpl.value.Value.__init__",
}

DIVISOR_SHARED = {
    ("scan", "recursion"): PARAMS,
    # both build the Jbar part set: the scan sieves with its contains, the
    # Kim formula counts partitions over its members
    ("scan", "kim"): PARAMS
    | {
        "qpl.figurate.ModularParams.__init__",
        "qpl.figurate.require_integer",
        "qpl.partsets.PartSet.__init__",
        "qpl.partsets.PartSet.with_multiples",
    },
    # both start from -(q·T'), T the signed figurate series: the recursion
    # divides it by T, the Kim formula multiplies it by route 2's counts; the
    # scan shares none of it and anchors the check
    ("recursion", "kim"): PARAMS
    | {
        "qpl.figurate.figurate",
        "qpl.figurate.figurate_enumerate",
        "qpl.figurate.signed_figurate_series",
        "qpl.series.QSeries._require_same_order",
        "qpl.series.QSeries.order",
        "qpl.series.QSeries.q_dq",
        "qpl.series.QSeries.scale",
    },
}


def qpl_calls(fn, *args):
    """The qpl functions fn(*args) enters, each nested function, lambda or
    comprehension counted as the function that defines it."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module == "qpl" or module.startswith("qpl."):
                seen.add(f"{module}.{frame.f_code.co_qualname.split('.<locals>')[0]}")

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return seen


def clear_memos():
    _gf_product.cache_clear()
    _pochhammer_product.cache_clear()


@pytest.fixture(scope="module")
def counting_routes():
    routes = {"oracle": set(), "gf": set(), "recursion": set()}
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("QPL_ORACLE_BOUND", raising=False)
        for spec in SETS:
            part_set = parse_part_set(spec)
            for mode in MODES:
                clear_memos()
                routes["oracle"] |= qpl_calls(oracle_table, part_set, mode, ORDER)
                routes["gf"] |= qpl_calls(gf_count, part_set, mode, ORDER)
                routes["recursion"] |= qpl_calls(recursion_table, part_set, mode, ORDER)
    clear_memos()
    return routes


@pytest.fixture(scope="module")
def divisor_routes():
    routes = {}
    for method in DIVISOR_METHODS:
        routes[method] = set()
        for k, ell in ((5, 2), (4, 1), (3, 1)):
            clear_memos()
            routes[method] |= qpl_calls(divisor_sums, ModularParams(k, ell), ORDER, method)
    clear_memos()
    return routes


@pytest.mark.parametrize("pair", sorted(COUNTING_SHARED), ids="&".join)
def test_counting_routes_share_only_the_allowlist(counting_routes, pair):
    a, b = pair
    assert counting_routes[a] & counting_routes[b] == COUNTING_SHARED[pair]


@pytest.mark.parametrize("pair", sorted(DIVISOR_SHARED), ids="&".join)
def test_divisor_routes_share_only_the_allowlist(divisor_routes, pair):
    a, b = pair
    assert divisor_routes[a] & divisor_routes[b] == DIVISOR_SHARED[pair]


def test_slot_width_helpers_belong_to_route_2(counting_routes):
    helpers = {"qpl.series._slot_widths", "qpl.series._widen"}
    assert helpers <= counting_routes["gf"]
    assert not helpers & (counting_routes["oracle"] | counting_routes["recursion"])
