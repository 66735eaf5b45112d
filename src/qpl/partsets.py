"""Symbolic part sets for partition counting.

A part set is a residue rule (or a finite set) over the positive integers:

* ``residues``      -- integers congruent to ell mod k
* ``plus_minus``    -- integers congruent to +ell or -ell mod k
* ``with_multiples``-- the previous family united with the multiples of k
* ``finite_prefix`` -- the first s members of each of the two progressions
* ``multiples``     -- the multiples of k
* ``explicit``      -- a hand-given finite set

Sets are never materialized beyond a requested bound; membership is decided
from the rule.
"""

from __future__ import annotations

from .errors import ParameterError
from .figurate import ModularParams, require_integer, require_interior
from .value import Value

__all__ = ["PartSet", "parse_part_set"]

_KINDS = ("I", "J", "Jbar", "Js", "mult", "set")


class PartSet(Value):
    """Symbolic description of a set of positive integer parts."""

    __slots__ = ("kind", "params", "s", "parts")
    kind: str
    params: ModularParams | None
    s: int | None
    parts: frozenset[int] | None

    def __init__(
        self,
        kind: str,
        params: ModularParams | None = None,
        s: int | None = None,
        parts: frozenset[int] | None = None,
    ) -> None:
        if kind not in _KINDS:
            raise ParameterError(f"unknown part-set kind {kind!r}")
        super().__init__(kind, params, s, parts)

    # constructors -------------------------------------------------------------

    @classmethod
    def residues(cls, k: int, ell: int) -> "PartSet":
        """Positive integers congruent to ell modulo k."""
        return cls("I", params=ModularParams(k, ell))

    @classmethod
    def plus_minus(cls, k: int, ell: int) -> "PartSet":
        """Positive integers congruent to +ell or -ell modulo k; interior only."""
        params = ModularParams(k, ell)
        require_interior(params, "the plus/minus residue family")
        return cls("J", params=params)

    @classmethod
    def with_multiples(cls, k: int, ell: int) -> "PartSet":
        """Positive integers congruent to 0, +ell or -ell modulo k; interior only."""
        params = ModularParams(k, ell)
        require_interior(params, "the residue-with-multiples family")
        return cls("Jbar", params=params)

    @classmethod
    def finite_prefix(cls, k: int, ell: int, s: int) -> "PartSet":
        """First s members of each of the two progressions; interior only."""
        s = require_integer(s, "prefix length s")
        if s < 1:
            raise ParameterError("prefix length s must be >= 1")
        params = ModularParams(k, ell)
        require_interior(params, "the finite prefix family")
        return cls("Js", params=params, s=s)

    @classmethod
    def multiples(cls, k: int) -> "PartSet":
        return cls("mult", params=ModularParams(k, 0))

    @classmethod
    def explicit(cls, parts) -> "PartSet":
        fs = frozenset(require_integer(p, "explicit part") for p in parts)
        if not fs:
            raise ParameterError("an explicit part set needs at least one part")
        if any(p < 1 for p in fs):
            raise ParameterError("explicit parts must be positive integers")
        return cls("set", parts=fs)

    # queries ---------------------------------------------------------------------

    def contains(self, x: int) -> bool:
        """Membership under the residue or finite rule; x below 1 is never a member."""
        if x < 1:
            return False
        if self.kind == "set":
            return x in self.parts
        k, ell = self.params.k, self.params.ell
        r = x % k
        if self.kind == "I":
            return r == ell % k
        if self.kind == "mult":
            return r == 0
        if self.kind == "J":
            return r == ell or r == k - ell
        if self.kind == "Jbar":
            return r == 0 or r == ell or r == k - ell
        # finite prefix: the member must also sit within the first s terms
        if r == ell and (x - ell) // k + 1 <= self.s:
            return True
        return r == k - ell and (x - (k - ell)) // k + 1 <= self.s

    def members_upto(self, n: int) -> list[int]:
        """Members <= n, ascending, without duplicates."""
        if n < 1:
            return []
        if self.kind == "set":
            return sorted(p for p in self.parts if p <= n)
        k, ell = self.params.k, self.params.ell
        if self.kind == "I":
            start = ell % k or k
            return list(range(start, n + 1, k))
        if self.kind == "mult":
            return list(range(k, n + 1, k))
        if self.kind == "J":
            return sorted(list(range(ell, n + 1, k)) + list(range(k - ell, n + 1, k)))
        if self.kind == "Jbar":
            return sorted(
                list(range(ell, n + 1, k))
                + list(range(k - ell, n + 1, k))
                + list(range(k, n + 1, k))
            )
        # finite prefix: each progression stops at its s-th member or at n
        return sorted(
            list(range(ell, min(n, k * (self.s - 1) + ell) + 1, k))
            + list(range(k - ell, min(n, k * (self.s - 1) + k - ell) + 1, k))
        )

    # display -------------------------------------------------------------------------

    def label(self) -> str:
        if self.kind == "set":
            return "set:" + ",".join(str(p) for p in sorted(self.parts))
        if self.kind == "mult":
            return f"mult:{self.params.k}"
        if self.kind == "Js":
            return f"Js:{self.params.k},{self.params.ell},{self.s}"
        return f"{self.kind}:{self.params.k},{self.params.ell}"

    def __repr__(self) -> str:
        return f"PartSet({self.label()})"


def parse_part_set(text: str) -> PartSet:
    """Parse compact set syntax: I:k,l  J:k,l  Jbar:k,l  Js:k,l,s  mult:k  set:1,3,7."""
    head, sep, body = text.partition(":")
    if not sep:
        raise ParameterError(f"malformed part-set spec {text!r}")
    try:
        nums = [int(p) for p in body.split(",")] if body else []
    except ValueError as exc:
        raise ParameterError(f"malformed part-set spec {text!r}: {exc}") from None
    if head == "I" and len(nums) == 2:
        return PartSet.residues(*nums)
    if head == "J" and len(nums) == 2:
        return PartSet.plus_minus(*nums)
    if head == "Jbar" and len(nums) == 2:
        return PartSet.with_multiples(*nums)
    if head == "Js" and len(nums) == 3:
        return PartSet.finite_prefix(*nums)
    if head == "mult" and len(nums) == 1:
        return PartSet.multiples(nums[0])
    if head == "set" and nums:
        return PartSet.explicit(nums)
    raise ParameterError(f"malformed part-set spec {text!r}")
