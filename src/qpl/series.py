"""Exact truncated series arithmetic: power series in q, Laurent series in z.

Every value carries an inclusive truncation order N and stores integer
coefficients for q^0 .. q^N.  Binary operations demand equal orders and raise
OrderMismatchError otherwise; nothing is promoted or truncated silently.
Coefficients are Python integers throughout, so results are exact at any size.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, index, mul, sub

from .errors import NotInvertibleError, OrderMismatchError, ParameterError
from .value import Value

__all__ = [
    "PackedZRows",
    "QSeries",
    "ZLaurentSeries",
    "binomial_product",
    "inverse_terms",
    "triple_pochhammer",
    "triple_product_rows",
]


class QSeries(Value):
    """Formal power series in q, truncated after the coefficient of q^order."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if len(coeffs) < 1:
            raise ValueError("a QSeries needs at least its constant coefficient")
        super().__init__(coeffs)

    # construction -----------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "QSeries":
        """Build a series from integers, padding or truncating to ``order``."""
        c = []
        for x in coeffs:
            try:
                c.append(int(index(x)))
            except TypeError:
                raise ParameterError(f"series coefficients must be integers, got {x!r}") from None
        if order is not None:
            if order < 0:
                raise ParameterError("order must be non-negative")
            del c[order + 1 :]
            c.extend([0] * (order + 1 - len(c)))
        return cls(tuple(c))

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        if order < 0:
            raise ParameterError("order must be non-negative")
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "QSeries":
        if order < 0:
            raise ParameterError("order must be non-negative")
        return cls((1,) + (0,) * order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: int = 1) -> "QSeries":
        if not 0 <= exponent <= order:
            raise ParameterError(f"monomial exponent {exponent} outside 0..{order}")
        c = [0] * (order + 1)
        c[exponent] = coeff
        return cls(tuple(c))

    # basic queries -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _require_same_order(self, other: "QSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"operand orders differ: {self.order} != {other.order}"
            )

    # ring operations ----------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        self._require_same_order(other)
        return QSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "QSeries") -> "QSeries":
        self._require_same_order(other)
        return QSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Cauchy product through one packed signed integer.

        The right factor is packed once as sum b_j·2^{jW} (see _pack); each
        nonzero left coefficient a_i adds a_i times that integer shifted by
        i slots, and the sum decodes once modulo 2^{W(order+1)}. Every
        coefficient of the product is at most sum|a_i|·max|b_j| in absolute
        value, so W is that bound's bit length plus a sign bit, in whole
        bytes, and no slot of the result can overflow; sum|a_i| counts as at
        least 1, so that every b_j fits a slot of the packed right factor. A sparse left factor
        such as an Euler product costs one big-int shift-add per nonzero term.
        """
        self._require_same_order(other)
        bound = max(sum(map(abs, self.coeffs)), 1) * max(map(abs, other.coeffs))
        slot_bytes = bound.bit_length() // 8 + 1
        width = 8 * slot_bytes
        b = _pack(other.coeffs, slot_bytes)
        acc = 0
        for i, a in enumerate(self.coeffs):
            if a == 1:
                acc += b << width * i
            elif a == -1:
                acc -= b << width * i
            elif a:
                acc += a * b << width * i
        return QSeries(_decode(acc, slot_bytes, self.order))

    def reciprocal(self) -> "QSeries":
        """Multiplicative inverse at the same order.

        Requires constant term +1 or -1 so the inverse stays integral.
        """
        a0 = self.coeffs[0]
        if a0 not in (1, -1):
            raise NotInvertibleError(
                f"constant term must be +1 or -1 to invert exactly, got {a0}"
            )
        n = self.order
        nz = [(i, c) for i, c in enumerate(self.coeffs) if i and c]
        inv = [0] * (n + 1)
        inv[0] = a0
        for m in range(1, n + 1):
            s = 0
            for i, c in nz:
                if i > m:
                    break
                s += c * inv[m - i]
            inv[m] = -a0 * s
        return QSeries(tuple(inv))

    def dilate(self, k: int) -> "QSeries":
        """Substitute q -> q^k, keeping the original truncation order.

        Source coefficients past order//k are dropped: they would land beyond
        the retained exponents.
        """
        if k < 1:
            raise ParameterError("dilation factor must be a positive integer")
        if k == 1:
            return self
        n = self.order
        out = [0] * (n + 1)
        for i in range(n // k + 1):
            out[k * i] = self.coeffs[i]
        return QSeries(tuple(out))

    def q_dq(self) -> "QSeries":
        """Apply q·d/dq: the coefficient of q^n becomes n times itself."""
        return QSeries(tuple(n * c for n, c in enumerate(self.coeffs)))

    def shift(self, e: int) -> "QSeries":
        """Multiply by q^e, dropping coefficients pushed past the order."""
        if e < 0:
            raise ParameterError("shift exponent must be non-negative")
        if e == 0:
            return self
        return QSeries(((0,) * e + self.coeffs)[: self.order + 1])

    def scale(self, c: int) -> "QSeries":
        if c == 1:
            return self
        return QSeries(tuple(c * x for x in self.coeffs))

    # sparse-factor kernels ------------------------------------------------------

    def mul_binomial(self, coeff: int, exp: int) -> "QSeries":
        """Multiply by (1 + coeff·q^exp) in O(order) time; exp must be >= 1.

        A factor whose exponent exceeds the order is 1 + O(q^{order+1}) and is
        skipped entirely.
        """
        if exp < 1:
            raise ParameterError("binomial factor exponent must be >= 1")
        if exp > self.order:
            return self
        c = self.coeffs
        if coeff == 1:
            tail = tuple(map(add, c[exp:], c))
        elif coeff == -1:
            tail = tuple(map(sub, c[exp:], c))
        else:
            tail = tuple(map(add, c[exp:], map(mul, c, repeat(coeff))))
        return QSeries(c[:exp] + tail)

    def div_binomial(self, coeff: int, exp: int) -> "QSeries":
        """Divide by (1 + coeff·q^exp) in O(order) time; exp must be >= 1."""
        if exp < 1:
            raise ParameterError("binomial factor exponent must be >= 1")
        n = self.order
        if exp > n:
            return self
        out = list(self.coeffs)
        if coeff == 1:
            for i in range(exp, n + 1):
                out[i] -= out[i - exp]
        elif coeff == -1:
            for i in range(exp, n + 1):
                out[i] += out[i - exp]
        else:
            for i in range(exp, n + 1):
                out[i] -= coeff * out[i - exp]
        return QSeries(tuple(out))

    # display ----------------------------------------------------------------------

    def terms_str(self, max_terms: int = 10) -> str:
        parts: list[str] = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            if len(parts) == max_terms:
                parts.append("...")
                break
            if n == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "q" if n == 1 else f"q^{n}"
                sign = "-" if c < 0 else ("+" if parts else "")
                parts.append(f"{sign} {mag}{var}" if parts else f"{sign}{mag}{var}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"QSeries(order={self.order}: {self.terms_str()})"


class ZLaurentSeries(Value):
    """Laurent polynomial in z whose coefficients are QSeries of one shared q-order.

    The support is the inclusive z-exponent range [zlo, zlo + len(zcoeffs) - 1].
    No library path multiplies one: triple_product_rows expands the
    two-variable products, and the tests use this class as its independent
    reference. It stays in the package while perfbench/spans.py traces __mul__.
    """

    __slots__ = ("zlo", "zcoeffs")
    zlo: int
    zcoeffs: tuple[QSeries, ...]

    def __init__(self, zlo: int, zcoeffs: tuple[QSeries, ...]) -> None:
        if not zcoeffs:
            raise ValueError("support must contain at least one z-exponent")
        order = zcoeffs[0].order
        for s in zcoeffs[1:]:
            if s.order != order:
                raise OrderMismatchError("all z-coefficients must share one q-order")
        super().__init__(zlo, zcoeffs)

    @classmethod
    def one(cls, order: int) -> "ZLaurentSeries":
        return cls(0, (QSeries.one(order),))

    @classmethod
    def qz_binomial(cls, coeff: int, q_exp: int, z_exp: int, order: int) -> "ZLaurentSeries":
        """The factor 1 + coeff·q^{q_exp}·z^{z_exp}, z_exp = ±1; the q-term vanishes past the order."""
        if q_exp < 0:
            raise ParameterError("q-exponent must be non-negative")
        if z_exp not in (1, -1):
            raise ParameterError(f"z-exponent must be +1 or -1, got {z_exp}")
        one = QSeries.one(order)
        if q_exp > order:
            term = QSeries.zero(order)
        else:
            term = QSeries.monomial(q_exp, order, coeff)
        return cls(-1, (term, one)) if z_exp == -1 else cls(0, (one, term))

    # queries ---------------------------------------------------------------------

    @property
    def zhi(self) -> int:
        return self.zlo + len(self.zcoeffs) - 1

    @property
    def order(self) -> int:
        return self.zcoeffs[0].order

    def zcoeff(self, j: int) -> QSeries:
        """Coefficient of z^j; zero outside the stored support."""
        if self.zlo <= j <= self.zhi:
            return self.zcoeffs[j - self.zlo]
        return QSeries.zero(self.order)

    # arithmetic ------------------------------------------------------------------

    def __mul__(self, other: "ZLaurentSeries") -> "ZLaurentSeries":
        """Laurent convolution in z; the support is the sum of the supports."""
        if self.order != other.order:
            raise OrderMismatchError("q-orders differ")
        lo = self.zlo + other.zlo
        width = len(self.zcoeffs) + len(other.zcoeffs) - 1
        acc: list[QSeries] = [QSeries.zero(self.order) for _ in range(width)]
        for i, a in enumerate(self.zcoeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.zcoeffs):
                if b.is_zero():
                    continue
                acc[i + j] = acc[i + j] + a * b
        return ZLaurentSeries(lo, tuple(acc))


def triple_pochhammer(k: int, ell: int, sign: int, order: int) -> QSeries:
    """Expand prod_{m>=1} (1 - q^{km})(1 + sign·q^{km-ell})(1 + sign·q^{k(m-1)+ell}).

    The factors go to binomial_product as one term list, which skips those
    whose exponent passes ``order``: such a factor is 1 + O(q^{order+1}) and
    cannot change retained coefficients. Exponent-zero factors (ell = 0 or
    ell = k at m = 1) are the constants (1 + sign), applied as a scale; for
    sign = -1 the whole product is the zero series, returned without
    expanding the other factors.

    Replacing ell by k - ell swaps the last two factors of each m, so the
    memo is keyed by min(ell, k - ell).  10 entries hold every repeat of the
    battery, whose reflected pairs lie within one k block of at most 10 keys.
    A QSeries is frozen, so callers may share the cached one.
    """
    if k < 1:
        raise ParameterError("k must be a positive integer")
    if sign not in (1, -1):
        raise ParameterError("sign must be +1 or -1")
    if not 0 <= ell <= k:
        raise ParameterError(f"ell must satisfy 0 <= ell <= k, got ell={ell}, k={k}")
    return _pochhammer_product(k, min(ell, k - ell), sign, order)


@lru_cache(maxsize=10)
def _pochhammer_product(k: int, ell: int, sign: int, order: int) -> QSeries:
    const, terms = _pochhammer_terms(k, ell, sign, order)
    return binomial_product(order, terms).scale(const)


def _pochhammer_terms(k: int, ell: int, sign: int, order: int) -> tuple[int, list]:
    """triple_pochhammer's factors as (const, binomial_product terms): const is
    the exponent-zero factor 1 + sign for ell = 0 or k (m = 1), else 1."""
    if ell in (0, k) and sign == -1:
        return 0, []
    terms = []
    m = 1
    while min(k * m - ell, k * (m - 1) + ell) <= order:
        factors = ((-1, k * m), (sign, k * m - ell), (sign, k * (m - 1) + ell))
        terms += [(c, e) for c, e in factors if e]
        m += 1
    return (2 if ell in (0, k) else 1), terms


def binomial_product(order: int, terms) -> QSeries:
    """Expand prod (1 + c·q^e) over (c, e) in ``terms``, truncated at ``order``.

    Every c must be +1 or -1 and every e at least 1; factors with e > order
    are 1 + O(q^{order+1}) and are skipped.

    The partial product is one Python int x taken modulo M = 2^{W·(order+1)}.
    q -> 2^W maps Z[q]/(q^{order+1}) onto Z/MZ as a ring homomorphism, so
    partial products need no borrow rule: a factor is one shift, one add or
    subtract and one reduction mod M. Any two factors with e > order//2
    multiply past q^order, so all of them together are 1 + S, S the sum of
    their c·q^e, and x starts as the packed 1 + S. The factors with
    e <= order//2 follow from the largest exponent down.

    Each coefficient of a partial product, 1 + S included, has |c_i| <= U_i,
    the coefficient of the unsigned product U = prod (1 + q^e) over the
    factors applied so far. _slot_widths over the exponents in the order they
    are applied, after one extra e = 0 (a factor 2), bounds 2·U of every
    prefix, so each value is below 2^{W-1} in absolute value at its prefix's
    width: _pack packs 1 + S and _decode recovers every final c_i. Before a
    factor whose prefix needs wider slots, x is widened (_widen); the prefix
    before it fits its own width, so x decodes exactly there.
    """
    if order < 0:
        raise ParameterError("order must be non-negative")
    half = order // 2
    upper = [1] + [0] * order
    exps = [0]
    low = []
    for c, e in terms:
        if c not in (1, -1):
            raise ParameterError(f"binomial factor coefficient must be +1 or -1, got {c}")
        if e < 1:
            raise ParameterError("binomial factor exponent must be >= 1")
        if e > order:
            continue
        if e > half:
            upper[e] += c
            exps.append(e)
        else:
            low.append((e, c))
    low.sort(reverse=True)
    start = len(exps)
    exps.extend(e for e, _ in low)
    widths = _slot_widths(order, exps)
    slot_bytes = max(b for k, b in widths if k < start)
    widen_at = {k: b for k, b in widths if k >= start}
    x = _pack(upper, slot_bytes)
    width, mask = 8 * slot_bytes, (1 << 8 * slot_bytes * (order + 1)) - 1
    for k, (e, c) in enumerate(low, start):
        if k in widen_at:
            x = _widen(x, slot_bytes, widen_at[k], order + 1)
            slot_bytes = widen_at[k]
            width, mask = 8 * slot_bytes, (1 << 8 * slot_bytes * (order + 1)) - 1
        if c == 1:
            x = (x + (x << width * e)) & mask
        else:
            x = (x - (x << width * e)) & mask
    return QSeries(_decode(x, slot_bytes, order))


def inverse_terms(terms, order: int) -> list[tuple[int, int]]:
    """The binomial_product terms of 1/prod (1 + c·q^e) over (c, e) in ``terms``:
    since 1/(1 - x) = prod_{t>=0} (1 + x^{2^t}) and c^2 = 1, each factor in turn
    gives (-c, e), then (1, 2e), (1, 4e), ... up to ``order``."""
    out = []
    for c, e in terms:
        out.append((-c, e))
        while 0 < e <= order // 2:
            e *= 2
            out.append((1, e))
    return out


class PackedZRows(Value):
    """The z-rows -margin..margin of a two-variable series, each packed into
    one int with a slot per q-exponent and decoded only when read."""

    __slots__ = ("margin", "packed", "slot_bytes", "order")
    margin: int
    packed: tuple[int, ...]
    slot_bytes: int
    order: int

    def zcoeff(self, j: int) -> QSeries:
        """Coefficient of z^j; zero outside the stored rows."""
        idx = j + self.margin
        if 0 <= idx < len(self.packed) and self.packed[idx]:
            return QSeries(_decode(self.packed[idx], self.slot_bytes, self.order))
        return QSeries.zero(self.order)


def triple_product_rows(order: int, factors: int) -> PackedZRows:
    """Expand prod_{m=1}^{factors} (1 + q^m z^{-1})(1 + q^{m-1} z), truncated at ``order``.

    Factors with m - 1 > order are 1 + O(q^{order+1}), so only m up to
    min(factors, order + 1) are multiplied: factors = order + 1 is the whole
    infinite product, and factors = s the finite product of the Hermite
    identity, whose rows |j| > s are zero.

    A term of z^j uses at least |j| z-moves with distinct q-costs, so row j
    is zero below q^{j(j-1)/2} in every partial product. Rows -B..B are
    stored, B the least margin with B(B-1)/2 > order: rows j >= B and
    j <= -(B-1) lie wholly past q^order, and every factor only raises
    q-exponents, so the descendants of a term that leaves the stored rows
    stay past the order too and truncation alone keeps every row exact.
    That argument needs nothing of the factor count, so B holds for a
    finite product as well.

    The factors go from the largest m down: row j of a product of large-m
    factors starts far above q^{j(j-1)/2}, so most masked sources are 0 (at
    order 400, 4755 of 46458 row updates add a nonzero one; 28719 going up).

    Multiplying by (1 + q^s z^{±1}) adds to each row a masked, shifted copy
    of its neighbour. Every factor has non-negative coefficients and
    truncation only drops terms, so each slot of each partial product is at
    most the matching coefficient of the whole product at z = 1,
    U = 2·prod_{m<=order} (1+q^m)^2. As in binomial_product, _slot_widths
    over e = 0, 0 and each m twice bounds 2·U (80 bits at order 400), so no
    slot carries into its neighbour and _decode reads every row. A finite
    product multiplies a subset of the same factors, each at least 1
    coefficientwise, so the same width holds.
    """
    if order < 0 or factors < 0:
        raise ParameterError("order and factors must be non-negative")
    n = order
    b = 2
    while b * (b - 1) // 2 <= n:
        b += 1
    size = 2 * b + 1
    slot_bytes = _slot_widths(n, [0, 0] + [m for m in range(1, n + 1) for _ in range(2)])[-1][1]
    width = 8 * slot_bytes
    rows = [0] * size
    rows[b] = 1
    for m in range(min(factors, n + 1), 0, -1):
        # (1 + q^{m-1} z), descending so each source row is still the pre-multiply value
        s = m - 1
        keep = (1 << width * (n + 1 - s)) - 1
        shift = width * s
        for idx in range(size - 1, 0, -1):
            rows[idx] += (rows[idx - 1] & keep) << shift
        if m <= n:
            # (1 + q^m z^{-1}), ascending for the same reason
            keep = (1 << width * (n + 1 - m)) - 1
            shift = width * m
            for idx in range(size - 1):
                rows[idx] += (rows[idx + 1] & keep) << shift
    return PackedZRows(b, tuple(rows), slot_bytes, n)


def _pack(coeffs, slot_bytes: int) -> int:
    """sum c_i·2^{8·slot_bytes·i} over ``coeffs``, for |c_i| < 2^{8·slot_bytes-1}.

    Each slot is packed as c_i + 2^{W-1}, which lies in [0, 2^W), and the
    offset is taken off the whole int at once.
    """
    count = len(coeffs)
    half = 1 << 8 * slot_bytes - 1
    shifted = map(add, coeffs, repeat(half))
    if slot_bytes not in _FORMATS:
        shifted = map(int.to_bytes, shifted, repeat(slot_bytes), repeat("little"))
    data = struct.pack(_slot_format(slot_bytes, count), *shifted)
    return int.from_bytes(data, "little") - _offset(slot_bytes, count)


def _decode(packed: int, slot_bytes: int, order: int) -> tuple[int, ...]:
    """The coefficients of q^0 .. q^order of ``packed`` read modulo
    2^{W·(order+1)}, W = 8·slot_bytes, each known to satisfy |c| < 2^{W-1}:
    every product, quotient and triple-product row is read here.

    Adding 2^{W-1} to every slot maps each coefficient into [0, 2^W), so the
    offset sum, reduced mod 2^{W·(order+1)}, has no carries or borrows
    between slots, unpacks slot by slot and loses 2^{W-1} per slot again.
    """
    count = order + 1
    mask = (1 << 8 * slot_bytes * count) - 1
    data = ((packed + _offset(slot_bytes, count)) & mask).to_bytes(slot_bytes * count, "little")
    slots = struct.unpack(_slot_format(slot_bytes, count), data)
    if slot_bytes not in _FORMATS:
        slots = map(int.from_bytes, slots, repeat("little"))
    return tuple(map(sub, slots, repeat(1 << 8 * slot_bytes - 1)))


def _offset(slot_bytes: int, count: int) -> int:
    """2^{W-1} in each of ``count`` slots of W = 8·slot_bytes bits."""
    return int.from_bytes((bytes(slot_bytes - 1) + b"\x80") * count, "little")


# struct codes of the slot widths struct packs as integers; other widths go
# through byte strings and int.to_bytes/int.from_bytes
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_format(slot_bytes: int, count: int) -> str:
    """The little-endian struct format of ``count`` unsigned slots of slot_bytes bytes."""
    code = _FORMATS.get(slot_bytes)
    return f"<{count}{code}" if code else "<" + f"{slot_bytes}s" * count


def _slot_widths(order: int, exps) -> list[tuple[int, int]]:
    """Whole bytes per slot for U = prod (1 + q^e) over each prefix of ``exps``
    (each 0 <= e <= order; e = 0 is a factor 2), truncated at ``order``, as
    (k, bytes) pairs, k ascending from 0: exps[:j + 1] needs the last pair's
    bytes with k <= j.

    U has non-negative coefficients, so for every 0 < x < 1 and i <= order,
    U_i·x^order <= U_i·x^i <= U(x): each U_i is at most U(x)/x^order (the
    saddle-point bound of Apostol's proof that p(n) < e^{π·sqrt(2n/3)}). Any
    x gives a valid bound for every prefix, so log2 U(x) - order·log2 x is
    evaluated in floats at one x = e^{-t}, t = π·sqrt(len(exps)/12)/order,
    the saddle point of the product of (1 + q^m) over m = 1..len(exps),
    summing the prefixes' logs with accumulate; 2 bits cover the rounding of
    the float sum, and the width is rounded up to whole bytes. At order 0 t
    is taken as if the order were 1, which is just another x. Each factor
    raises U(x), so widths only grow, and bisection finds where they change.
    """
    t = math.pi * math.sqrt(len(exps) / 12) / max(order, 1)
    log_u = list(accumulate(map(math.log1p, map(math.exp, map(mul, exps, repeat(-t))))))

    def need(log_prefix):
        bits = int((log_prefix + order * t) / math.log(2) + 2) + 1
        return -(-bits // 8)

    widths = []
    k = 0
    while k < len(log_u):
        widths.append((k, need(log_u[k])))
        k = bisect_right(log_u, widths[-1][1], lo=k, key=need)
    return widths


def _widen(packed: int, old: int, new: int, count: int) -> int:
    """``packed``, ``count`` slots of ``old`` bytes read modulo 2^{8·old·count}
    with each |c_i| < 2^{8·old-1}, re-spaced into slots of ``new`` bytes.

    As in _decode, the offset puts every slot in [0, 2^{8·old}); byte j of
    each old slot is copied into byte j of each new slot, and the offset
    comes off again at the new spacing.
    """
    data = ((packed + _offset(old, count)) & (1 << 8 * old * count) - 1).to_bytes(old * count, "little")
    out = bytearray(new * count)
    for j in range(old):
        out[j::new] = data[j::old]
    return int.from_bytes(out, "little") - (_offset(new, count) >> 8 * (new - old))
