"""Pass/fail reports produced by the identity-verification operations."""

from __future__ import annotations

from .errors import OrderMismatchError
from .series import QSeries
from .value import Value


class Mismatch(Value):
    """First differing coefficient: q-exponent, optional z-exponent, both values."""

    __slots__ = ("q_exponent", "lhs", "rhs", "z_exponent")
    q_exponent: int
    lhs: int
    rhs: int
    z_exponent: int | None

    def __init__(self, q_exponent: int, lhs: int, rhs: int, z_exponent: int | None = None) -> None:
        super().__init__(q_exponent, lhs, rhs, z_exponent)


class VerificationReport(Value):
    __slots__ = ("identity", "parameters", "order", "passed", "mismatch")
    identity: str
    parameters: dict
    order: int
    passed: bool
    mismatch: Mismatch | None

    def __init__(
        self,
        identity: str,
        parameters: dict,
        order: int,
        passed: bool,
        mismatch: Mismatch | None = None,
    ) -> None:
        if not passed and mismatch is None:
            raise ValueError("a failing report must carry its first mismatch")
        super().__init__(identity, parameters, order, passed, mismatch)

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
