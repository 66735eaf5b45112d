"""Pass/fail reports produced by the identity-verification operations."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderMismatchError
from .series import QSeries


@dataclass(frozen=True, slots=True)
class Mismatch:
    """First differing coefficient: q-exponent, optional z-exponent, both values."""

    q_exponent: int
    lhs: int
    rhs: int
    z_exponent: int | None = None


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    parameters: dict
    order: int
    passed: bool
    mismatch: Mismatch | None = None

    def __post_init__(self) -> None:
        if not self.passed and self.mismatch is None:
            raise ValueError("a failing report must carry its first mismatch")

    def to_json_dict(self) -> dict:
        out = {
            "schema": 1,
            "identity": self.identity,
            "parameters": {k: v for k, v in sorted(self.parameters.items())},
            "order": self.order,
            "outcome": "pass" if self.passed else "fail",
        }
        if self.mismatch is not None:
            out["location"] = {
                "q": self.mismatch.q_exponent,
                "z": self.mismatch.z_exponent,
            }
            # decimal strings keep arbitrary-precision values intact in JSON
            out["lhs"] = str(self.mismatch.lhs)
            out["rhs"] = str(self.mismatch.rhs)
        return out


def passed(identity: str, parameters: dict, order: int) -> VerificationReport:
    return VerificationReport(identity, parameters, order, True)


def compare_series(
    identity: str,
    parameters: dict,
    order: int,
    lhs: QSeries,
    rhs: QSeries,
    z_exponent: int | None = None,
) -> VerificationReport:
    """Exact coefficient comparison; a fail pinpoints the first bad exponent
    (and the z-exponent of the row compared, when given).

    Both sides must be truncated at ``order``: series of other orders would
    be compared only up to the shorter one, so they raise OrderMismatchError.
    """
    if lhs.order != order or rhs.order != order:
        raise OrderMismatchError(
            f"compared orders {lhs.order} and {rhs.order} differ from the order {order}"
        )
    if lhs.coeffs != rhs.coeffs:
        for n, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
            if a != b:
                mismatch = Mismatch(n, a, b, z_exponent)
                return VerificationReport(identity, parameters, order, False, mismatch)
    return passed(identity, parameters, order)
