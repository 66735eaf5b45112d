"""Restricted divisor sums and their relations to partition counts.

f_J(n) sums the divisors of n lying in a part set J; for the
residues-with-multiples family it satisfies a finite recursion over modular
figurate shifts, a convolution equivalence against the signed distinct
counts, and a generating-function relation F = -(q·g1')·f that unwinds to an
explicit figurate-shift formula.  Below, T is the signed figurate series
sum_j (-1)^j q^{M(j)}.
"""

from __future__ import annotations

from math import isqrt

from .errors import ParameterError
from .figurate import ModularParams, require_interior, signed_figurate_series
from .partsets import PartSet
from .partitions import SIGNED_DISTINCT, UNRESTRICTED, _figurate_quotient, gf_count
from .reports import VerificationReport, compare_series
from .series import QSeries


def divisor_sum(part_set: PartSet, n: int) -> int:
    """Sum of the divisors of n that belong to the part set; 0 for n < 1.

    Divisors are scanned in pairs up to sqrt(n); exactness over speed.
    """
    if n < 1:
        return 0
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            if part_set.contains(d):
                total += d
            e = n // d
            if e != d and part_set.contains(e):
                total += e
    return total


def divisor_table(part_set: PartSet, order: int) -> QSeries:
    """Generating function of the restricted divisor sums (constant term 0).

    A sieve: each member d <= order is added to f[d], f[2d], ...  Membership
    comes from ``contains``, the rule itself, so the divisor-sum checks still
    test ``members_upto``, which the generating functions expand over.
    """
    if order < 0:
        raise ParameterError("order must be non-negative")
    f = [0] * (order + 1)
    for d in range(1, order + 1):
        if part_set.contains(d):
            for n in range(d, order + 1, d):
                f[n] += d
    return QSeries(tuple(f))


def recursive_divisor_sums(params: ModularParams, order: int) -> QSeries:
    """f(n) for the residues-with-multiples family by the finite recursion

        f(n) = sum_{j != 0} (-1)^{j-1} f(n - M(j))  [+ (-1)^{i-1} M(i) when n = M(i)]

    with f vanishing at zero and below, i.e. f = -(q·T')/T.
    """
    require_interior(params, "the divisor-sum recursion")
    den = signed_figurate_series(params, -1, order)
    return _figurate_quotient(den.q_dq().scale(-1), den)


def shift_formula_divisor_sums(params: ModularParams, order: int) -> QSeries:
    """f(n) by the figurate-shift formula unwound from F = -(q·g1')·f:

        f(n) = sum_{j != 0} (-1)^{j-1} M(j) · p(n - M(j); Jbar)

    with p the unrestricted counts from their generating function; as series,
    f = -(q·T')·p, a product whose left factor is sparse.
    """
    jbar = PartSet.with_multiples(params.k, params.ell)
    p = gf_count(jbar, UNRESTRICTED, order)
    shifts = signed_figurate_series(params, -1, order).q_dq().scale(-1)
    return shifts * p


# the routes of divisor_sums, as `divisors --method` names them
DIVISOR_METHODS = ("scan", "recursion", "kim")


def divisor_sums(params: ModularParams, order: int, method: str) -> QSeries:
    """The restricted divisor sums of the residues-with-multiples family to
    ``order`` by one route: direct divisor scans, the finite recursion, or
    the figurate-shift formula of Kim's identity."""
    if method == "scan":
        return divisor_table(PartSet.with_multiples(params.k, params.ell), order)
    if method == "recursion":
        return recursive_divisor_sums(params, order)
    if method == "kim":
        return shift_formula_divisor_sums(params, order)
    raise ParameterError(
        f"unknown divisor method {method!r}; expected one of {', '.join(DIVISOR_METHODS)}"
    )


def apostol_convolution_check(params: ModularParams, order: int) -> VerificationReport:
    """Check n·r(n) = -f(n) - sum_{j=1}^{n-1} r(j)·f(n-j) for 1 <= n <= order,

    where r is the signed distinct count on the residues-with-multiples family
    (from its generating function) and f the restricted divisor sum (from
    direct divisor scans).  As series, with r0 the series r without its
    constant term and f(0) = 0, this is q·r' = -(f + r0·f): one product whose
    left factor r0 is sparse (supported on the figurate numbers, by the
    Sylvester identity), so it costs one pass per nonzero term.
    """
    require_interior(params, "the divisor convolution check")
    parameters = {"k": params.k, "ell": params.ell}
    jbar = PartSet.with_multiples(params.k, params.ell)
    r = gf_count(jbar, SIGNED_DISTINCT, order)
    f = divisor_table(jbar, order)
    r0 = QSeries((0,) + r.coeffs[1:])
    return compare_series("apostol", parameters, order, r.q_dq(), (f + r0 * f).scale(-1))


def kim_identity_check(params: ModularParams, order: int) -> VerificationReport:
    """Check F = -(q·g1')·f as series, then the unwound divisor-sum formula.

    g1 is the signed distinct generating function, f the unrestricted one,
    F the divisor-sum generating function.  Since g1 is supported on the
    figurate numbers with signs (-1)^j, expanding -(q·g1')·f yields the
    formula of shift_formula_divisor_sums, which is checked value by value
    against direct divisor scans.
    """
    require_interior(params, "the divisor-sum identity check")
    parameters = {"k": params.k, "ell": params.ell}
    jbar = PartSet.with_multiples(params.k, params.ell)

    g1 = gf_count(jbar, SIGNED_DISTINCT, order)
    f_series = gf_count(jbar, UNRESTRICTED, order)
    scan = divisor_table(jbar, order)

    rep = compare_series("kim", parameters, order, scan, g1.q_dq().scale(-1) * f_series)
    if not rep.passed:
        return rep
    formula = shift_formula_divisor_sums(params, order)
    return compare_series("kim", parameters, order, scan, formula)
