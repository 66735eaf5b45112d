"""Floating-point evaluation of the theta function and its variants.

The base function is the bilateral series T(z|q) = sum_{n in Z} q^{n(n-1)/2} z^n
for |q| < 1 and z != 0.  Terms are summed in the symmetric pairs n = -m and
n = m+1, which share the q-exponent m(m+1)/2; that keeps the cancellation at
z = -1 exact and gives a clean geometric tail bound.  All fractional powers
(q^{-1/8}, q^{1/2}, z^{1/2}) take the principal branch.

The calls at one point repeat most of their work, and the module shares it
without changing a float operation: each exact (q, z, tol) is summed once,
each pair count is found once per (|q|, max(|z|, 1/|z|), tol), and each q
keeps one table of q^{m(m+1)/2}.  The memos are small and bounded.  A series
or a q table is memoized only when == on its key implies identical bits, so
never by ThetaPoint equality and never when a component of q or z is ±0.0.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

__all__ = [
    "ThetaPoint",
    "theta_series",
    "theta_product",
    "aux_theta",
    "quasi_periodicity_residual",
    "substituted_point",
    "theta_class",
]

_TWO_PI_I = 2j * math.pi

# Cap on the pairs one series may sum: |q| = 0.99999 at |z| = 1 needs 69 314.
MAX_PAIRS = 100_000


@dataclass(frozen=True)
class ThetaPoint:
    """Evaluation point: q with |q| < 1 strictly, z nonzero.

    May carry the (nu, tau) coordinates it was converted from, in which case
    q = exp(2*pi*i*tau) and z = exp(2*pi*i*nu) with Im(tau) > 0.
    """

    q: complex
    z: complex
    nu: complex | None = None
    tau: complex | None = None

    def __post_init__(self) -> None:
        _check_qz(self.q, self.z)

    @classmethod
    def from_qz(cls, q: complex, z: complex) -> "ThetaPoint":
        return cls(_as_complex(q), _as_complex(z))

    @classmethod
    def from_nu_tau(cls, nu: complex, tau: complex) -> "ThetaPoint":
        tau = complex(tau)
        nu = complex(nu)
        if tau.imag <= 0:
            raise ValueError("Im(tau) must be positive")
        return cls(
            cmath.exp(_TWO_PI_I * tau), cmath.exp(_TWO_PI_I * nu), nu=nu, tau=tau
        )


def _check_qz(q, z) -> None:
    if not abs(q) < 1:  # also rejects NaN
        raise ValueError(f"|q| must be < 1, got |q| = {abs(q)}")
    try:
        finite = cmath.isfinite(z)
    except OverflowError:  # a number past the float range, such as a big int
        finite = False
    if not finite:
        raise ValueError(f"z must be finite, got {z}")
    if z == 0:
        raise ValueError("z must be nonzero")


def _as_complex(x):
    """complex(x), or x itself when it lies past the float range, for
    _check_qz to refuse with the ValueError of its domain checks."""
    try:
        return complex(x)
    except OverflowError:
        return x


def _qz(q, z) -> tuple[complex, complex]:
    """The q and z of ThetaPoint.from_qz(q, z), checked alike, building no point."""
    q, z = _as_complex(q), _as_complex(z)
    _check_qz(q, z)
    return q, z


def _moved_point(q0, z0, q: complex, z: complex) -> tuple[complex, complex]:
    """The point (q, z) as a pair, where z was computed from z0 by a power of q0.

    For nonzero q0 a z of 0 can only be an underflow, and is reported as the
    OverflowError of a float range failure.  At q0 = 0 it is the exact
    q^ell·z of substituted_point (the other callers refuse q = 0 first), and
    the ValueError names that cause, not z0, which is nonzero.
    """
    if z == 0:
        if q0 == 0:
            raise ValueError("q^ell·z is 0 at q = 0")
        raise OverflowError(f"z underflows to 0 at |q| = {abs(q0)}, |z| = {abs(z0)}")
    return _qz(q, z)


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError("tol must be positive")


def _larger_root(a: float, b: float, c: float) -> float:
    """Larger real root of a·t² + b·t + c for a < 0, or -inf if there is none.

    With no real root the parabola stays below zero, so the bound it encodes
    holds for every t.  That includes tol = inf, where c = -inf and the
    discriminant is -inf.
    """
    disc = b * b - 4 * a * c
    if not disc >= 0:
        return -math.inf
    return (-b - math.sqrt(disc)) / (2 * a)


def _pairs_needed(abs_q: float, big_z: float, tol: float) -> int:
    """Smallest pair count T certifying |tail beyond T| < tol.

    Pair m has magnitude at most 2·|q|^{m(m+1)/2}·Z^{m+1} with Z =
    max(|z|, 1/|z|).  Once |q|^{T+1}·Z <= 1/2 the pair magnitudes shrink at
    least geometrically with ratio 1/2, so the tail is below four times the
    first omitted bound.  The coarser published bound
    |q|^{T(T-1)/2}·Z^{T+1}/(1-|q|) < tol is enforced as well.  Raises
    ValueError when T would pass MAX_PAIRS (|q| near 1 or Z huge).

    T is the first t >= 1 passing all three float tests below, found by a
    forward scan that starts two below the floor of the largest real root of
    the tests: the ratio test is linear in t, the two bounds are concave
    quadratics.  The start never skips T.  The ratio test is monotone in t,
    even in floats, so no t below its root passes.  From the ratio root on,
    the tail bound falls by at least log 2 per step, and the published bound
    does so from one step later; where that bound still holds at the first
    t passing the ratio test, its larger root is less than 3 past that t.
    Float error in the roots is far below the remaining slack.
    """
    log_q = math.log(abs_q)  # < 0
    log_z = math.log(big_z)  # >= 0
    log_tol = math.log(tol)
    log_2 = math.log(2)
    log_4 = math.log(4)
    log_1mq = math.log(1 - abs_q)
    largest_root = max(
        (log_2 + log_z) / -log_q - 1,
        _larger_root(
            log_q / 2, 1.5 * log_q + log_z, log_q + 2 * log_z + log_4 - log_tol
        ),
        _larger_root(log_q / 2, log_z - log_q / 2, log_z - log_1mq - log_tol),
    )
    for t in range(max(1, math.floor(largest_root) - 2), MAX_PAIRS + 1):
        ratio_ok = (t + 1) * log_q + log_z <= -log_2
        log_tail = log_4 + ((t + 1) * (t + 2) // 2) * log_q + (t + 2) * log_z
        log_doc = (t * (t - 1) // 2) * log_q + (t + 1) * log_z - log_1mq
        if ratio_ok and log_tail < log_tol and log_doc < log_tol:
            return t
    raise ValueError(
        f"theta series needs more than {MAX_PAIRS} term pairs at |q| = {abs_q}, "
        f"max(|z|, 1/|z|) = {big_z}"
    )


# T(z|q) and T(-z|q) share a pair count, and so do variants c and d.
_pair_count = functools.lru_cache(maxsize=8)(_pairs_needed)


def _exact(x) -> bool:
    """Whether x == y implies identical bits: a complex with no zero component.

    0.0 == -0.0, and both hash alike, while a power of 2 - 0j and of 2 + 0j
    can differ in sign.
    """
    return type(x) is complex and x.real != 0 and x.imag != 0


# The q ** (m(m+1)//2) tables of at most two exact q, each kept only up to
# _Q_TABLE_MAX + 1 entries (together under 100 kB).  A longer table replaces
# a shorter one and is never grown in place, so every reader gets a whole one.
_q_tables: dict[complex, tuple[complex, ...]] = {}
_Q_TABLE_MAX = 1000


def _q_powers(q, t: int) -> tuple[complex, ...]:
    """q ** (m(m+1)//2) for m = 0..t (the table may run further)."""
    keep = _exact(q) and t <= _Q_TABLE_MAX
    powers = _q_tables.get(q, ()) if keep else ()
    if len(powers) <= t:
        powers += tuple(q ** (m * (m + 1) // 2) for m in range(len(powers), t + 1))
        if keep:
            if q not in _q_tables and len(_q_tables) >= 2:
                _q_tables.clear()
            _q_tables[q] = powers
    return powers


def _sum_series(q, z, tol: float) -> complex:
    """theta_series at raw q and z, for a tol already checked."""
    if q == 0:
        return 1 + z
    if z == -1:
        return 0j
    abs_z = abs(z)
    big_z = max(abs_z, 1 / abs_z)
    if math.isinf(big_z):
        raise OverflowError(f"1/|z| overflows a float at |z| = {abs_z}")
    t = _pair_count(abs(q), big_z, tol)
    q_powers = _q_powers(q, t)
    total = 0j
    try:
        for m in range(t, -1, -1):  # small terms first
            total += q_powers[m] * (z ** (-m) + z ** (m + 1))
    except ZeroDivisionError:  # z**(-m) is 1/z**m, and z**m underflowed to 0
        raise OverflowError(f"1/z^{m} overflows a float at |z| = {abs_z}") from None
    return total


# The series of the last few exact (q, z, tol): T(z|q) alone is asked for by
# theta_series, the residual and theta_class(1, 0, "a").
_series_memo = functools.lru_cache(maxsize=8)(_sum_series)

# The LRU memos, for tests that start from empty ones (with _q_tables).
_CACHES = (_pair_count, _series_memo)


def _series(q, z, tol: float) -> complex:
    if _exact(q) and _exact(z):
        return _series_memo(q, z, tol)
    return _sum_series(q, z, tol)


def theta_series(point: ThetaPoint, tol: float) -> complex:
    """Partial sum of the bilateral series, accurate to tol in absolute value.

    q = 0 degenerates to 1 + z exactly (only n = 0, 1 survive); z = -1 returns
    exactly 0 by the n <-> 1-n pairing.  Raises OverflowError when 1/|z|
    or a term overflows a float, or a power of z underflows to 0.
    """
    _check_tol(tol)
    return _series(point.q, point.z, tol)


def theta_product(point: ThetaPoint, factors: int) -> complex:
    """Finite product prod_{m=1}^{factors} (1-q^m)(1+q^m/z)(1+q^{m-1}z)."""
    if factors < 1:
        raise ValueError("the product needs at least one factor")
    q, z = point.q, point.z
    acc = 1 + 0j
    qm = 1 + 0j
    for m in range(1, factors + 1):
        qm_prev = qm  # q^{m-1}
        qm = qm * q
        acc *= (1 - qm) * (1 + qm / z) * (1 + qm_prev * z)
    return acc


def aux_theta(variant: str, point: ThetaPoint, tol: float) -> complex:
    """The four auxiliary variants:

    a: T(z|q)          b: T(-z|q)
    c: q^{-1/8} z^{1/2} T(q^{1/2} z | q)
    d: q^{-1/8} z^{1/2} T(-q^{1/2} z | q)

    Variants c and d require q != 0 and use principal branches; the inner
    series is evaluated tightly enough that the scaled result meets tol.
    """
    _check_tol(tol)
    return _aux(variant, point.q, point.z, tol)


def _aux(variant: str, q, z, tol: float) -> complex:
    if variant == "a":
        return _series(q, z, tol)
    if variant == "b":
        return _series(*_qz(q, -z), tol)
    if variant not in ("c", "d"):
        raise ValueError(f"unknown variant {variant!r}")
    if q == 0:
        raise ValueError("variants c and d need q != 0 (q^{-1/8} is taken)")
    prefactor = q ** (-0.125) * z**0.5
    inner_z = (q**0.5) * z
    if variant == "d":
        inner_z = -inner_z
    inner_tol = tol / max(abs(prefactor), 1e-300)
    inner_q, inner_z = _moved_point(q, z, q, inner_z)
    _check_tol(inner_tol)  # tol / |prefactor| can underflow to 0
    return prefactor * _series(inner_q, inner_z, inner_tol)


def quasi_periodicity_residual(
    point: ThetaPoint, tol: float
) -> tuple[float, float]:
    """Residuals of the two functional equations at the point.

    First: |T(qz|q) - z^{-1} T(z|q)|, each side evaluated to tol.  Second: the
    shift nu -> nu + 1, which in the z-picture leaves z unchanged, so without
    stored (nu, tau) coordinates it is exactly zero; with them, the two
    exponentials are recomputed and compared.  q = 0 is excluded: the
    substitution q·z collapses and the relation is not the stated one there.
    """
    _check_tol(tol)
    q, z = point.q, point.z
    if q == 0:
        raise ValueError("the quasi-periodicity relation is checked for 0 < |q| < 1")
    lhs = _series(*_moved_point(q, z, q, q * z), tol)
    rhs = _series(q, z, tol) / z
    first = abs(lhs - rhs)
    if point.nu is None or point.tau is None:
        second = 0.0
    else:
        shifted = cmath.exp(_TWO_PI_I * (point.nu + 1))
        second = abs(_series(*_qz(q, shifted), tol) - _series(q, z, tol))
    return (first, second)


def _substituted_qz(point: ThetaPoint, k: int, ell: int) -> tuple[complex, complex]:
    if k < 1:
        raise ValueError("k must be a positive integer")
    if ell < 0:
        raise ValueError("ell must be non-negative")
    q, z = point.q, point.z
    return _moved_point(q, z, q**k, (q**ell) * z)


def substituted_point(point: ThetaPoint, k: int, ell: int) -> ThetaPoint:
    """The point after the substitution q -> q^k, z -> q^ell·z.

    (k, ell) = (1, 0) is the identity substitution; (2, 1) produces the
    classical Jacobi normalization.  Raises OverflowError when q^ell·z
    underflows to 0, and ValueError when it is 0 because q = 0 and ell >= 1.
    """
    return ThetaPoint(*_substituted_qz(point, k, ell))


def theta_class(
    k: int, ell: int, variant: str, point: ThetaPoint, tol: float
) -> complex:
    """Variant evaluated at substituted_point(point, k, ell)."""
    qz = _substituted_qz(point, k, ell)
    _check_tol(tol)
    return _aux(variant, *qz, tol)
