"""Verification harness: expand both sides of each identity, compare exactly.

Every check here is an exact integer comparison at an explicit truncation
order; there is no tolerance anywhere in this module.  A report either passes
at the verified order or carries the first mismatching coefficient.
"""

from __future__ import annotations

from types import SimpleNamespace

from . import reports
from .divisors import apostol_convolution_check, kim_identity_check
from .errors import ParameterError
from .figurate import (
    ModularParams,
    figurate,
    gaussian_binomial,
    signed_figurate_series,
)
from .partsets import PartSet
from .partitions import (
    CountMode,
    SIGNED_DISTINCT,
    bounded_mult_shift_identity,
    gf_count,
    partition_shift_identities,
)
from .reports import VerificationReport, compare_series
from .series import QSeries, binomial_product, inverse_terms, triple_pochhammer, triple_product_rows


# --------------------------------------------------------------------------
# Two-variable triple product
# --------------------------------------------------------------------------


def verify_triple_product(q_order: int, z_window: int) -> VerificationReport:
    """Expand prod_m (1-q^m)(1+q^m z^{-1})(1+q^{m-1}z) and compare the
    coefficient of z^j with q^{(j^2-j)/2} for |j| <= z_window, up to q_order.

    triple_product_rows stores the rows |j| <= B, B(B-1)/2 > q_order; past
    them both the rows and q^{(j^2-j)/2} lie beyond the order, so only
    |j| <= min(z_window, B) is compared, however large the window. Each
    compared row is then multiplied by prod_m (1-q^m), built factor by
    factor rather than from the pentagonal series the identity is about:
    multiplying every row by one q-series commutes with the z-shifts and
    with truncation, so the order of the factors changes no coefficient.
    """
    if q_order < 0 or z_window < 0:
        raise ParameterError("q_order and z_window must be non-negative")
    rows = triple_product_rows(q_order, q_order + 1)
    euler = binomial_product(q_order, [(-1, m) for m in range(1, q_order + 1)])
    j_win = min(z_window, rows.margin)
    parameters = {"z_window": z_window}
    for j in range(-j_win, j_win + 1):
        e = (j * j - j) // 2
        expected = (
            QSeries.monomial(e, q_order) if e <= q_order else QSeries.zero(q_order)
        )
        rep = compare_series(
            "triple_product", parameters, q_order, euler * rows.zcoeff(j), expected, j
        )
        if not rep.passed:
            return rep
    return reports.passed("triple_product", parameters, q_order)


# --------------------------------------------------------------------------
# One-variable specializations
# --------------------------------------------------------------------------


def verify_specialized(
    params: ModularParams, sign: int, q_order: int
) -> VerificationReport:
    """Triple product at q -> q^k, z -> sign·q^ell against the figurate series.

    Valid for every 0 <= ell <= k including the boundary classes, where the
    colliding indices either double (sign +1) or cancel (sign -1, ell in
    {0, k}: both sides vanish identically).
    """
    if sign not in (1, -1):
        raise ParameterError("sign must be +1 or -1")
    lhs = triple_pochhammer(params.k, params.ell, sign, q_order)
    rhs = signed_figurate_series(params, sign, q_order)
    return compare_series(
        "specialized",
        {"k": params.k, "ell": params.ell, "sign": sign},
        q_order,
        lhs,
        rhs,
    )


def verify_berger(k: int, q_order: int) -> VerificationReport:
    """Polygonal-number identities (ell = 1, both signs; k+2 polygon sides)."""
    if k < 1:
        raise ParameterError("k must be a positive integer")
    params = ModularParams(k, 1)
    for sign in (1, -1):
        rep = verify_specialized(params, sign, q_order)
        if not rep.passed:
            return VerificationReport(
                "berger", {"k": k, "sign": sign}, q_order, False, rep.mismatch
            )
    return reports.passed("berger", {"k": k}, q_order)


# --------------------------------------------------------------------------
# Finite (Hermite-style) product
# --------------------------------------------------------------------------

_HERMITE_GRID = (ModularParams(3, 1), ModularParams(4, 1), ModularParams(5, 2))
_HERMITE_MAX_S = 6


def verify_hermite(s: int) -> VerificationReport:
    """Exact check of the finite two-variable product identity

        prod_{m=1}^{s} (1+q^m z^{-1})(1+q^{m-1}z)
            = sum_{j=-s}^{s} [2s choose s+j]_q q^{(j^2-j)/2} z^j

    (both sides are polynomials of q-degree at most s^2, so order s^2 makes
    the comparison exact), followed by the substituted forms: the distinct
    (plain and signed) generating functions on each finite prefix family
    equal the matching Gaussian-coefficient sums in q^k.

    The left side is the triple product's packed rows cut after s factors
    (series.triple_product_rows); its rows |j| > s are zero, so only
    |j| <= s are compared.
    """
    if s < 0:
        raise ParameterError("s must be non-negative")
    if s > _HERMITE_MAX_S:
        raise ParameterError(f"s is capped at {_HERMITE_MAX_S} for the exact expansion")
    parameters = {"s": s}
    order = s * s
    rows = triple_product_rows(order, s)
    for j in range(-s, s + 1):
        e = (j * j - j) // 2
        # degree (s^2 - j^2) + (j^2 - j)/2 <= s^2: padding and shifting drop nothing
        gauss = gaussian_binomial(2 * s, s + j)
        expected = QSeries.from_coeffs(gauss.coeffs, order).shift(e)
        rep = compare_series("hermite", parameters, order, rows.zcoeff(j), expected, j)
        if not rep.passed:
            return rep

    if s >= 1:
        for params in _HERMITE_GRID:
            rep = _verify_hermite_substituted(params, s)
            if not rep.passed:
                return rep
    return reports.passed("hermite", parameters, order)


def _verify_hermite_substituted(params: ModularParams, s: int) -> VerificationReport:
    """Finite-prefix generating functions against Gaussian sums in q^k.

    The prefix family sums to k·s^2, so that order keeps both polynomials
    whole: term j has degree k(s^2 - j^2) + M(j) <= k·s^2.
    """
    k, ell = params.k, params.ell
    order = k * s * s
    prefix = PartSet.finite_prefix(k, ell, s)
    for gamma in (1, -1):
        lhs = gf_count(prefix, CountMode(1, gamma == -1), order)
        rhs = QSeries.zero(order)
        for j in range(-s, s + 1):
            gauss = gaussian_binomial(2 * s, s + j)
            term = QSeries.from_coeffs(gauss.coeffs, order).dilate(k)
            term = term.shift(figurate(params, j))
            if j % 2 and gamma == -1:
                term = term.scale(-1)
            rhs = rhs + term
        rep = compare_series(
            "hermite", {"s": s, "k": k, "ell": ell, "gamma": gamma}, order, lhs, rhs
        )
        if not rep.passed:
            return rep
    return reports.passed("hermite", {"s": s, "k": k, "ell": ell}, order)


# --------------------------------------------------------------------------
# Boundary identities (k even, ell = k/2)
# --------------------------------------------------------------------------


def verify_boundary_half(k: int, q_order: int) -> VerificationReport:
    """The two printed identities of the half-boundary case:

    (a) prod (1-q^{km})(1+q^{km-k/2}) / ((1+q^{km})(1-q^{km-k/2}))
          = sum_j q^{(k/2)j^2}
    (b) prod (1+q^{km})(1+q^{km-k/2})(1-q^{km-k/2}) = 1

    The quotient in (a) is one binomial_product, its denominator by inverse_terms.
    """
    if k < 2 or k % 2:
        raise ParameterError("the half-boundary identities need an even k >= 2")
    if q_order < 0:
        raise ParameterError("q_order must be non-negative")
    half = k // 2
    parameters = {"k": k}

    numerator, denominator, extra = [], [], []
    m = 1
    while k * m - half <= q_order:
        numerator += [(-1, k * m), (1, k * m - half)]
        denominator += [(1, k * m), (-1, k * m - half)]
        extra += [(1, k * m), (1, k * m - half), (-1, k * m - half)]
        m += 1
    quotient = binomial_product(q_order, numerator + inverse_terms(denominator, q_order))
    extra = binomial_product(q_order, extra)

    # M(j) = (k/2)j^2 for (k, k/2), and the indices j and -j collide
    rhs = signed_figurate_series(ModularParams(k, half), 1, q_order)
    rep = compare_series("boundary_half", parameters, q_order, quotient, rhs)
    if not rep.passed:
        return rep
    return compare_series("boundary_half", parameters, q_order, extra, QSeries.one(q_order))


# --------------------------------------------------------------------------
# Signed distinct counts supported on figurate numbers
# --------------------------------------------------------------------------


def verify_sylvester(params: ModularParams, q_order: int) -> VerificationReport:
    """Signed distinct counts on residues-with-multiples equal the signed
    figurate indicator: (-1)^j at M(j), zero elsewhere (interior parameters)."""
    lhs = gf_count(PartSet.with_multiples(params.k, params.ell), SIGNED_DISTINCT, q_order)
    rhs = signed_figurate_series(params, -1, q_order)
    return compare_series(
        "sylvester", {"k": params.k, "ell": params.ell}, q_order, lhs, rhs
    )


# --------------------------------------------------------------------------
# Grid battery
# --------------------------------------------------------------------------


def interior_grid(k_lo: int, k_hi: int) -> list[ModularParams]:
    """All interior parameter pairs with k in [k_lo, k_hi]."""
    out = []
    for k in range(max(k_lo, 3), k_hi + 1):
        for ell in range(1, k):
            p = ModularParams(k, ell)
            if p.is_interior:
                out.append(p)
    return out


_BATTERY_HERMITE_MAX_S = 4
_BATTERY_D_VALUES = (1, 2, 3)


def battery(k_lo: int, k_hi: int, order: int, z_window: int = 8) -> list[VerificationReport]:
    """Run every verification over a k-grid, one after another, in a fixed
    order, so the report is reproducible byte for byte.

    Each task is an IDENTITIES name and the flags its entry reads, run
    through verify_identity: `verify --all` and `verify --identity` share
    one call path, and a verifier's arguments are written only in the table.
    """
    tasks = [("triple_product", {})]
    tasks += [("hermite", {"s": s}) for s in range(_BATTERY_HERMITE_MAX_S + 1)]
    for k in range(k_lo, k_hi + 1):
        tasks.append(("berger", {"k": k}))
        if k % 2 == 0:
            tasks.append(("boundary_half", {"k": k}))
        for ell in range(k + 1):
            tasks += [("specialized", {"k": k, "ell": ell, "sign": sign}) for sign in (1, -1)]
    for params in interior_grid(k_lo, k_hi):
        kl = {"k": params.k, "ell": params.ell}
        tasks.append(("sylvester", kl))
        tasks += [("partition_shift", {**kl, "gamma": gamma}) for gamma in (1, -1)]
        tasks += [("bounded_mult_shift", {**kl, "d": d}) for d in _BATTERY_D_VALUES]
        tasks += [("apostol", kl), ("kim", kl)]
    return [
        verify_identity(name, SimpleNamespace(order=order, zwindow=z_window, **flags))
        for name, flags in tasks
    ]


# --------------------------------------------------------------------------
# Identity names
# --------------------------------------------------------------------------


def _params(f) -> ModularParams:
    return ModularParams(f.k, f.ell)


# each verifier's one call site: `verify --identity NAME` and every battery
# task run an entry on their flags. An entry looks its verifier up when it
# runs, so a rebound module name (a tracer's span, a test's patch) is the one
# called
IDENTITIES = {
    "triple_product": lambda f: verify_triple_product(f.order, f.zwindow),
    "specialized": lambda f: verify_specialized(_params(f), f.sign, f.order),
    "berger": lambda f: verify_berger(f.k, f.order),
    "hermite": lambda f: verify_hermite(f.s),
    "boundary_half": lambda f: verify_boundary_half(f.k, f.order),
    "sylvester": lambda f: verify_sylvester(_params(f), f.order),
    "partition_shift": lambda f: partition_shift_identities(_params(f), f.gamma, f.order),
    "bounded_mult_shift": lambda f: bounded_mult_shift_identity(_params(f), f.d, f.order),
    "apostol": lambda f: apostol_convolution_check(_params(f), f.order),
    "kim": lambda f: kim_identity_check(_params(f), f.order),
}


def verify_identity(name: str, flags) -> VerificationReport:
    """Run IDENTITIES[name] on flags: any object with the `qpl verify` flags as
    attributes (the parsed command line, say), so defaults live in the parser."""
    run = IDENTITIES.get(name)
    if run is None:
        raise ParameterError(f"unknown identity {name!r}")
    return run(flags)
