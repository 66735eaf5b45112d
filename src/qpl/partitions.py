"""Partition counting three independent ways.

Every counted family can be produced by (1) a brute-force dynamic program
over the actual parts and (2) expansion of the product generating function;
J and Jbar also by (3) one recursion rule over modular figurate shifts.  The
routes share no code beyond the part-set vocabulary, so exact agreement
between them is a meaningful check.  Each returns a QSeries whose
coefficient of q^n is the count of n.

Counting modes: parts may be unrestricted, distinct, or capped at d copies;
the length-signed variant weights a partition by (-1)^length.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator

from .errors import NotInvertibleError, OracleBoundError, ParameterError
from .figurate import ModularParams, require_integer, require_interior, signed_figurate_series
from .partsets import PartSet
from .reports import VerificationReport, compare_series
from .series import QSeries, binomial_product, triple_pochhammer

DEFAULT_ORACLE_BOUND = 120
ORACLE_BOUND_ENV = "QPL_ORACLE_BOUND"


@dataclass(frozen=True, slots=True)
class CountMode:
    """Multiplicity cap (None = unrestricted, 1 = distinct, d = at most d) and signing."""

    max_multiplicity: int | None = None
    length_signed: bool = False

    def __post_init__(self) -> None:
        cap = self.max_multiplicity
        if cap is not None and require_integer(cap, "multiplicity cap") < 1:
            raise ParameterError("multiplicity cap must be >= 1")

    @property
    def gamma(self) -> int:
        """Weight per part occurrence: +1 plain, -1 length-signed."""
        return -1 if self.length_signed else 1


UNRESTRICTED = CountMode()
DISTINCT = CountMode(1)
SIGNED_UNRESTRICTED = CountMode(None, True)
SIGNED_DISTINCT = CountMode(1, True)


def at_most(d: int, length_signed: bool = False) -> CountMode:
    return CountMode(d, length_signed)


def oracle_bound() -> int:
    """Current cap on oracle arguments; the environment may override the default."""
    raw = os.environ.get(ORACLE_BOUND_ENV)
    if raw is None:
        return DEFAULT_ORACLE_BOUND
    try:
        bound = int(raw)
    except ValueError:
        raise OracleBoundError(f"{ORACLE_BOUND_ENV} must be an integer, got {raw!r}")
    if bound < 0:
        raise OracleBoundError(
            f"{ORACLE_BOUND_ENV} must be a non-negative integer, got {raw!r}"
        )
    return bound


# --------------------------------------------------------------------------
# Route 1: brute force
# --------------------------------------------------------------------------


def oracle_count(n: int, part_set: PartSet, mode: CountMode) -> int:
    """Exact (signed) partition count by dynamic programming over the real parts.

    Deliberately simple so it stays obviously correct; refuses n beyond the
    configured bound.  Negative n counts nothing.
    """
    return _oracle_pass(part_set, mode, n)[n] if n >= 0 else 0


def oracle_table(part_set: PartSet, mode: CountMode, order: int) -> QSeries:
    """oracle_count for n = 0..order, as a series, from one pass to the order."""
    if order < 0:
        raise ParameterError("order must be non-negative")
    return QSeries(_oracle_pass(part_set, mode, order))


def _oracle_pass(part_set: PartSet, mode: CountMode, top: int) -> tuple[int, ...]:
    """ways[v] for v = 0..top, the counts of one dynamic-programming pass;
    refuses a top beyond the configured bound.

    A part m > v and a term with t·m > top never touch ways[v], so ways[v]
    is the same in a pass to v and in a pass to any top >= v.
    """
    bound = oracle_bound()
    if top > bound:
        raise OracleBoundError(
            f"oracle refuses n={top} above its bound {bound} "
            f"(set {ORACLE_BOUND_ENV} to raise it)"
        )
    g = mode.gamma
    cap = mode.max_multiplicity
    ways = [0] * (top + 1)
    ways[0] = 1
    for m in part_set.members_upto(top):
        if cap is None:
            for v in range(m, top + 1):
                ways[v] += g * ways[v - m]
        else:
            new = ways[:]
            weight = 1
            for t in range(1, cap + 1):
                weight *= g
                if t * m > top:
                    break
                for v in range(t * m, top + 1):
                    new[v] += weight * ways[v - t * m]
            ways = new
    return tuple(ways)


def generate_partitions(
    n: int, part_set: PartSet, mode: CountMode
) -> Iterator[tuple[int, ...]]:
    """Literally enumerate the partitions (ascending part tuples).

    Exponential; used to validate the dynamic program on small n, giving a
    second, independent layer underneath the oracle.
    """
    members = part_set.members_upto(n)
    cap = mode.max_multiplicity

    def extend(remaining: int, idx: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for i in range(idx, len(members)):
            m = members[i]
            if m > remaining:
                break
            top = remaining // m
            if cap is not None:
                top = min(top, cap)
            for t in range(1, top + 1):
                yield from extend(remaining - t * m, i + 1, prefix + (m,) * t)

    if n == 0:
        yield ()
    elif n > 0:
        yield from extend(n, 0, ())


# --------------------------------------------------------------------------
# Route 2: generating functions
# --------------------------------------------------------------------------


def gf_count(part_set: PartSet, mode: CountMode, order: int) -> QSeries:
    """Expand the product generating function over members <= order.

    Per part m the factor is 1/(1 - γq^m) unrestricted, (1 + γq^m) distinct,
    and (1 - γ^{d+1} q^{(d+1)m})/(1 - γq^m) with a cap of d, where γ is the
    per-occurrence weight.

    The product depends only on the members it runs over, so the memo is
    keyed by them, not by the set's name: J and Jbar for (k, ell) and
    (k, k - ell) share one entry.  A set and its reflection meet within one
    k block of the battery; an LRU replay of its calls needs 26 entries to
    catch every repeat, and 32 leave a margin.  A QSeries is frozen, so
    callers may share the cached one.
    """
    return _gf_product(tuple(part_set.members_upto(order)), mode, order)


@lru_cache(maxsize=32)
def _gf_product(members: tuple[int, ...], mode: CountMode, order: int) -> QSeries:
    """The product as one binomial_product term list.

    A division 1/(1 - γq^m) becomes (1 + γq^m)(1 + q^{2m})(1 + q^{4m})... up
    to the order, since 1/(1 - x) = prod_{t>=0} (1 + x^{2^t}) and γ^2 = 1;
    a cap of d adds the numerators (1 - γ^{d+1} q^{(d+1)m}).
    """
    g = mode.gamma
    cap = mode.max_multiplicity
    if cap == 1:
        return binomial_product(order, [(g, m) for m in members])
    terms = []
    for m in members:
        terms.append((g, m))
        e = 2 * m
        while e <= order:
            terms.append((1, e))
            e *= 2
    if cap is not None:
        g_top = g if (cap + 1) % 2 else 1  # γ^{d+1}
        terms.extend((-g_top, (cap + 1) * m) for m in members)
    return binomial_product(order, terms)


def quotient_series(
    params1: ModularParams, gamma1: int, params2: ModularParams, gamma2: int, order: int
) -> QSeries:
    """Series expansion of the quotient whose numerator carries (params2, γ2)
    and denominator (params1, γ1); the generating-function route for the
    quotient-sequence recursion."""
    if gamma1 not in (1, -1) or gamma2 not in (1, -1):
        raise ParameterError("gamma values must be +1 or -1")
    num = triple_pochhammer(params2.k, params2.ell, gamma2, order)
    den = triple_pochhammer(params1.k, params1.ell, -gamma1, order)
    return num * den.reciprocal()


# --------------------------------------------------------------------------
# Route 3: recursions over figurate shifts
# --------------------------------------------------------------------------
#
# Write T(P, s) = sum_j s^j q^{M(j)} for signed_figurate_series(P, s, order),
# E = T((3,1), -1) and P(t, s) = prod_{m in F} (1 + s·q^{tm}) for a family F.
# The specialized triple product T(P, ±1) = E(q^k)·prod_{m in J} (1 ± q^m) gives
#   J:     P(t, s) = T(P, s)(q^t)/E(q^{kt}),
#   Jbar:  P(t, -1) = T(P, -1)(q^t),  P(t, +1) = T(P, -1)(q^{2t})/T(P, -1)(q^t).
# Weighting each part by γ, distinct counts are P(1, γ), unrestricted ones
# 1/P(1, -γ), at most d copies P(d+1, -γ^{d+1})/P(1, -γ); matching coefficients
# of x·den = num gives the paper's shift recursion.


def _figurate_quotient(num: QSeries, den: QSeries) -> QSeries:
    """Coefficients of num/den for den[0] = 1, by long division:

        vals[n] = num[n] - sum_{m >= 1, den[m] != 0} den[m]·vals[n - m].

    Deliberately not QSeries.reciprocal: the generating-function route
    (quotient_series) inverts triple_pochhammer(k, ell, -γ), which equals
    T((k, ell), -γ) by the specialized identity, so a reciprocal bug shared by
    both routes would cancel out of their cross-check.
    """
    den._require_same_order(num)
    if den[0] != 1:
        raise NotInvertibleError(f"the divisor's constant term must be 1, got {den[0]}")
    terms = [(m, c) for m, c in enumerate(den.coeffs) if m and c]
    vals = list(num.coeffs)
    for n in range(1, len(vals)):
        acc = vals[n]
        for m, c in terms:
            if m > n:
                break
            acc -= c * vals[n - m]
        vals[n] = acc
    return QSeries(tuple(vals))


def _count_by_rule(family, gamma: int, cap: int | None, order: int) -> QSeries:
    """The mode rule above, with family(t, s) = P(t, s) as (numerator,
    denominator) lists of factors (P, s, t), each T(P, s)(q^t); for J and Jbar
    no factor lands on both sides.  The first numerator factor (else 1) times
    the rest is divided by one denominator factor at a time, as their product
    is far denser.  Calls no binomial_product, gf_count, reciprocal or oracle."""
    if gamma not in (1, -1):
        raise ParameterError("gamma must be +1 or -1")
    if cap is not None and cap < 1:
        raise ParameterError("multiplicity cap d must be >= 1")
    # P(1, γ) for distinct counts, else 1/P(1, -γ) times P(d+1, -γ^{d+1}) if capped
    num, den = family(1, gamma) if cap == 1 else family(1, -gamma)[::-1]
    if cap not in (None, 1):
        top_num, top_den = family(cap + 1, -(gamma ** (cap + 1)))
        num, den = top_num + num, den + top_den
    nums = [signed_figurate_series(p, s, order).dilate(t) for p, s, t in num]
    x = reduce(QSeries.__mul__, nums) if nums else QSeries.one(order)
    for p, s, t in den:
        x = _figurate_quotient(x, signed_figurate_series(p, s, order).dilate(t))
    return x


def recursive_count_jbar(
    params: ModularParams, order: int, *, gamma: int = 1, cap: int | None = None
) -> QSeries:
    """Jbar counts in the mode (γ, cap) by the rule above; by default the
    Euler-style p(n) = sum_{j != 0} (-1)^{j-1} p(n - M(j)), i.e. p = 1/T(P, -1)."""
    require_interior(params, "the Jbar recursion")
    return _count_by_rule(
        lambda t, s: ([(params, -1, t)], []) if s == -1
        else ([(params, -1, 2 * t)], [(params, -1, t)]),
        gamma, cap, order,
    )


def recursive_count_quotient(
    params1: ModularParams, gamma1: int, params2: ModularParams, gamma2: int, order: int
) -> QSeries:
    """The quotient sequence s = T(P2, γ2)/T(P1, -γ1): s(0) = 1 and for n >= 1

        s(n) = sum_{j != 0} -(-γ1)^j s(n - M1(j))  + sum_{i: M2(i) = n} γ2^i.
    """
    require_interior(params1, "the quotient recursion (denominator)")
    require_interior(params2, "the quotient recursion (numerator)")
    if gamma1 not in (1, -1) or gamma2 not in (1, -1):
        raise ParameterError("gamma values must be +1 or -1")
    return _figurate_quotient(
        signed_figurate_series(params2, gamma2, order),
        signed_figurate_series(params1, -gamma1, order),
    )


def recursive_count_j(
    params: ModularParams, gamma: int, order: int, *, cap: int | None = None
) -> QSeries:
    """J counts in the mode (γ, cap) by the rule above; by default unrestricted,
    x = T((3,1), -1)(q^k)/T(P, -γ) with ω the general pentagonal numbers:

        x(n) = sum_{j != 0} -(-γ)^j x(n - M(j))  [+ (-1)^i when n = k·ω(i)].
    """
    require_interior(params, "the J recursion")
    euler = ModularParams(3, 1)
    return _count_by_rule(
        lambda t, s: ([(params, s, t)], [(euler, -1, params.k * t)]), gamma, cap, order
    )


def recursive_count_distinct_j(params: ModularParams, gamma: int, order: int) -> QSeries:
    """Distinct-part counts on the plus/minus family (signed when γ = -1),
    x = T(P, γ)/T((3,1), -1)(q^k):

        x(n) = sum_{j != 0} (-1)^{j-1} x(n - k·ω(j))  [+ γ^i when n = M(i)].
    """
    return recursive_count_j(params, gamma, order, cap=1)


def recursive_count_bounded_jbar(params: ModularParams, d: int, order: int) -> QSeries:
    """Counts with every part used at most d times, on residues-with-multiples,
    x = T(P, -1)(q^{d+1})/T(P, -1):

        x(n) = sum_{j != 0} (-1)^{j-1} x(n - M(j))  [+ (-1)^i when n = (d+1)·M(i)].
    """
    return recursive_count_jbar(params, order, cap=d)


RECURSION_KINDS = ("J", "Jbar")  # the part-set kinds route 3 counts, in every mode


def recursion_table(part_set: PartSet, mode: CountMode, order: int) -> QSeries:
    """The recursion route; raises ParameterError outside RECURSION_KINDS."""
    if part_set.kind not in RECURSION_KINDS:
        raise ParameterError(f"no recursion is wired for part sets of kind {part_set.kind!r}")
    count = recursive_count_j if part_set.kind == "J" else recursive_count_jbar
    return count(part_set.params, order=order, gamma=mode.gamma, cap=mode.max_multiplicity)


# --------------------------------------------------------------------------
# Identities between partition families
# --------------------------------------------------------------------------


def partition_shift_identities(
    params: ModularParams, gamma: int, order: int
) -> VerificationReport:
    """Two convolution identities tying the plus/minus family to shifted counts:

    distinct^γ(n; J) = sum_j γ^j · p(n - M(j); multiples of k)
    p(n; J)          = sum_j (-1)^j · p(n - k·ω(j); J with multiples)

    Both sides are expanded as series and compared coefficient-wise.
    """
    require_interior(params, "the partition shift identities")
    if gamma not in (1, -1):
        raise ParameterError("gamma must be +1 or -1")
    k, ell = params.k, params.ell
    ident = "partition_shift"
    parameters = {"k": k, "ell": ell, "gamma": gamma}

    j_set = PartSet.plus_minus(k, ell)
    jbar_set = PartSet.with_multiples(k, ell)
    mult_set = PartSet.multiples(k)

    lhs1 = gf_count(j_set, CountMode(1, gamma == -1), order)
    rhs1 = signed_figurate_series(params, gamma, order) * gf_count(
        mult_set, UNRESTRICTED, order
    )
    rep = compare_series(ident, parameters, order, lhs1, rhs1)
    if not rep.passed:
        return rep

    lhs2 = gf_count(j_set, UNRESTRICTED, order)
    rhs2 = signed_figurate_series(ModularParams(3, 1), -1, order).dilate(k) * gf_count(
        jbar_set, UNRESTRICTED, order
    )
    return compare_series(ident, parameters, order, lhs2, rhs2)


def bounded_mult_shift_identity(
    params: ModularParams, d: int, order: int
) -> VerificationReport:
    """Bounded-multiplicity counts as signed shifts of the unrestricted counts:

    p_{<=d}(n; Jbar) = sum_j (-1)^j · p(n - (d+1)·M(j); Jbar).
    """
    require_interior(params, "the bounded-multiplicity shift identity")
    if d < 1:
        raise ParameterError("multiplicity cap d must be >= 1")
    parameters = {"k": params.k, "ell": params.ell, "d": d}
    jbar_set = PartSet.with_multiples(params.k, params.ell)

    lhs = gf_count(jbar_set, at_most(d), order)
    rhs = signed_figurate_series(params, -1, order).dilate(d + 1) * gf_count(
        jbar_set, UNRESTRICTED, order
    )
    return compare_series("bounded_mult_shift", parameters, order, lhs, rhs)
