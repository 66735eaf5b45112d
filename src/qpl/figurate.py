"""Gnomons, modular figurate numbers, and Gaussian binomial coefficients.

A parameter pair (k, ell) with 0 <= ell <= k indexes the arithmetic
progression k(i-1) + ell; partial sums of that progression are the modular
figurate numbers M(j) = (k/2)j(j-1) + ell·j, defined for every integer j.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import index

from .errors import ParameterError
from .series import QSeries

INTERIOR_HYPOTHESIS = "k >= 3, 0 < ell < k, ell != k/2"


class BoundaryClass(Enum):
    INTERIOR = "interior"
    BOUNDARY_ZERO = "boundary-zero"  # ell = 0 or ell = k
    BOUNDARY_HALF = "boundary-half"  # k even, ell = k/2


@dataclass(frozen=True, slots=True)
class ModularParams:
    """The pair (k, ell) with k >= 1 and 0 <= ell <= k."""

    k: int
    ell: int

    def __post_init__(self) -> None:
        if require_integer(self.k, "k") < 1:
            raise ParameterError("k must be a positive integer")
        if not 0 <= require_integer(self.ell, "ell") <= self.k:
            raise ParameterError(
                f"ell must satisfy 0 <= ell <= k, got ell={self.ell}, k={self.k}"
            )

    @property
    def boundary_class(self) -> BoundaryClass:
        if self.ell in (0, self.k):
            return BoundaryClass.BOUNDARY_ZERO
        if self.k % 2 == 0 and 2 * self.ell == self.k:
            return BoundaryClass.BOUNDARY_HALF
        # remaining cases force k >= 3 automatically
        return BoundaryClass.INTERIOR

    @property
    def is_interior(self) -> bool:
        return self.boundary_class is BoundaryClass.INTERIOR


def require_integer(value, name: str) -> int:
    """``value`` as an int through operator.index; a float, str or None is a ParameterError."""
    try:
        return index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


def require_interior(params: ModularParams, context: str) -> None:
    """Raise ParameterError naming the violated hypothesis for boundary parameters."""
    if not params.is_interior:
        raise ParameterError(
            f"{context} requires interior parameters ({INTERIOR_HYPOTHESIS}); "
            f"got (k={params.k}, ell={params.ell}), a "
            f"{params.boundary_class.value} case"
        )


def gnomon(params: ModularParams, i: int) -> int:
    """The i-th member k(i-1) + ell of the progression; indexing starts at 1."""
    if i < 1:
        raise IndexError("gnomon index starts at 1")
    return params.k * (i - 1) + params.ell


def figurate(params: ModularParams, j: int) -> int:
    """M(j) = (k/2)·j·(j-1) + ell·j for any integer j; j(j-1) is always even."""
    return params.k * j * (j - 1) // 2 + params.ell * j


_OMEGA = ModularParams(3, 1)


def pentagonal(j: int) -> int:
    """General pentagonal number: the (3, 1) figurate value at index j."""
    return figurate(_OMEGA, j)


def figurate_enumerate(params: ModularParams, bound: int) -> list[tuple[int, int]]:
    """All pairs (j, M(j)) with 0 <= M(j) <= bound, sorted by value then j.

    Values are strictly increasing in each direction past |j| = 1, so the
    outward scan stops after two consecutive misses per direction (margin for
    the flat prefix at the boundary classes).  Boundary parameter pairs report
    both colliding indices.
    """
    if bound < 0:
        raise ParameterError("bound must be non-negative")
    out: list[tuple[int, int]] = []
    for j, step in ((0, 1), (-1, -1)):
        misses = 0
        while misses < 2:
            v = figurate(params, j)
            if v <= bound:
                out.append((j, v))
                misses = 0
            else:
                misses += 1
            j += step
    out.sort(key=lambda t: (t[1], t[0]))
    return out


def signed_figurate_series(params: ModularParams, sign: int, order: int) -> QSeries:
    """sum_j sign^j q^{M(j)} over all integers j with M(j) <= order.

    Colliding indices at the boundary classes add up.  The scaled forms
    sum_j sign^j q^{c·M(j)} are this series dilated by c.
    """
    if order < 0:
        raise ParameterError("order must be non-negative")
    coeffs = [0] * (order + 1)
    for j, v in figurate_enumerate(params, order):
        coeffs[v] += sign if j % 2 else 1
    return QSeries(tuple(coeffs))


def gaussian_binomial(n: int, m: int) -> QSeries:
    """The q-binomial coefficient [n choose m]_q as a series whose order is its
    degree m(n-m); the zero series of order 0 outside 0 <= m <= n.

    Computed by the product formula prod_{i=1}^{m} (1 - q^{n-m+i}) / (1 - q^i)
    on the m(n-m) + 1 coefficients: each factor is a shift-subtract and each
    division an integral running sum, and truncating at the degree commutes
    with both. At q = 1 the coefficients sum to comb(n, m).
    """
    try:
        n, m = index(n), index(m)
    except TypeError:
        raise ParameterError(f"n and m must be integers, got n={n!r}, m={m!r}") from None
    if n < 0:
        raise ParameterError("n must be non-negative")
    if not 0 <= m <= n:
        return QSeries((0,))
    m = min(m, n - m)  # [n choose m] = [n choose n-m]: fewer factors
    coeffs = [1] + [0] * (m * (n - m))
    for i in range(1, m + 1):
        e = n - m + i
        coeffs[e:] = [a - b for a, b in zip(coeffs[e:], coeffs)]
        for r in range(i):
            coeffs[r::i] = accumulate(coeffs[r::i])
    return QSeries(tuple(coeffs))
