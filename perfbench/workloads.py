"""The benchmark's workloads: what one pass of each runs, drawn from a seed.

A CLI workload's pass is a list of ``Invocation``s, each run in a fresh
interpreter.  The ``theta`` pass is a list of points evaluated through the
library.  Nothing here imports ``qpl``: the inputs are built from the seed
alone, and the CLI receives only the generated arguments.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

WORKLOADS = ("battery", "battery-jobs2", "tables", "theta")

ORACLE_BOUND = 300  # QPL_ORACLE_BOUND for the partitions checks
PARTITIONS_N = 300
DIVISORS_N = 3000
THETA_POINTS = 10_000
THETA_TOL = 1e-12

# The ROADMAP's headline battery and its --jobs variant; both ignore the seed.
BATTERY_ARGV = ("verify", "--all", "--grid", "k=3..8", "--order", "400")
BATTERY_REPORTS = 285
SERIAL_200_ARGV = ("verify", "--all", "--grid", "k=3..8", "--order", "200")
JOBS2_ARGV = SERIAL_200_ARGV + ("--jobs", "2")

# One partitions --check per slot: (set kind, --mode, --d, k, gammas).  Each
# family has a recursion, so a check runs the oracle, the generating function
# and the recursion.  The seed draws ell among the interior values of k, and
# --gamma where a slot lists both signs.  Kind, mode, cap and k stay fixed
# because they set the cost of a check (density ~ 1/k, integer size, cap):
# drawing them too made the per-invocation median move by a quarter from seed
# to seed.  ell and k - ell name the same set, and at k >= 5 the sign does
# not change the work.
PARTITION_SLOTS = (
    ("Jbar", "unrestricted", None, 5, (1,)),
    ("Jbar", "at-most", 2, 7, (1,)),
    ("Jbar", "at-most", 3, 3, (1,)),
    ("J", "unrestricted", None, 4, (1,)),
    ("J", "distinct", None, 6, (1, -1)),
    ("J", "unrestricted", None, 8, (1, -1)),
)
# One divisors --check per k; the seed draws ell.  A dense and a sparse set.
DIVISOR_SLOTS = (5, 8)


@dataclass(frozen=True)
class Invocation:
    """One ``qpl`` command line and the work it stands for."""

    argv: tuple[str, ...]
    oracle_bound: int | None = None  # QPL_ORACLE_BOUND, unset when None
    ops: int = 0  # reports (verify) or cross-checked table rows

    @property
    def key(self) -> str:
        """The name under which the golden digest of its stdout is stored."""
        prefix = (
            f"QPL_ORACLE_BOUND={self.oracle_bound} " if self.oracle_bound else ""
        )
        return prefix + "qpl " + " ".join(self.argv)


def interior_ells(k: int) -> list[int]:
    """ell with 0 < ell < k and 2·ell != k: the recursions' hypothesis for k >= 3."""
    return [ell for ell in range(1, k) if 2 * ell != k]


def partitions_invocation(kind, mode, gamma, d, k, ell) -> Invocation:
    argv = ["partitions", "--set", f"{kind}:{k},{ell}", "--mode", mode]
    if gamma == -1:
        argv += ["--gamma", "-1"]
    if d is not None:
        argv += ["--d", str(d)]
    argv += ["--n", str(PARTITIONS_N), "--check"]
    return Invocation(tuple(argv), ORACLE_BOUND, PARTITIONS_N + 1)


def divisors_invocation(k: int, ell: int) -> Invocation:
    argv = ("divisors", "--k", str(k), "--ell", str(ell), "--n", str(DIVISORS_N), "--check")
    return Invocation(argv, None, DIVISORS_N)


def tables_pool() -> list[Invocation]:
    """Every invocation the tables workload can draw."""
    pool = [
        partitions_invocation(kind, mode, gamma, d, k, ell)
        for kind, mode, d, k, gammas in PARTITION_SLOTS
        for gamma in gammas
        for ell in interior_ells(k)
    ]
    return pool + [divisors_invocation(k, ell) for k in DIVISOR_SLOTS for ell in interior_ells(k)]


def battery_plan() -> list[Invocation]:
    return [Invocation(BATTERY_ARGV, None, BATTERY_REPORTS)]


def jobs2_plan() -> list[Invocation]:
    return [Invocation(JOBS2_ARGV, None, BATTERY_REPORTS)]


def tables_plan(seed: int) -> list[Invocation]:
    """Six partitions checks and two divisors checks, drawn from the seed."""
    rng = random.Random(f"tables:{seed}")
    plan = [
        partitions_invocation(kind, mode, rng.choice(gammas), d, k, rng.choice(interior_ells(k)))
        for kind, mode, d, k, gammas in PARTITION_SLOTS
    ]
    return plan + [divisors_invocation(k, rng.choice(interior_ells(k))) for k in DIVISOR_SLOTS]


@dataclass(frozen=True)
class ThetaInput:
    """A theta input: q and z, the (k, ell) substitution, the product length."""

    q: complex
    z: complex
    k: int
    ell: int
    factors: int


# (k, ell) substitutions for theta_class: identity, Jacobi's (2, 1), and two
# with k = 3.
THETA_CLASSES = ((1, 0), (2, 1), (3, 1), (3, 2))


def product_factors(abs_q: float, big_z: float) -> int:
    """Factors after which the rest of the triple product is 1 to ~1e-17.

    The tail prod_{m>F} differs from 1 by about |q|^F·Z/(1-|q|), with
    Z = max(|z|, 1/|z|).
    """
    return max(1, math.ceil(math.log(1e-17 * (1 - abs_q) / big_z) / math.log(abs_q)) + 2)


def theta_points(seed: int, count: int = THETA_POINTS) -> list[ThetaInput]:
    """Points with |q| uniform in [0.02, 0.9], |z| log-uniform in [0.1, 10].

    Known limit: NaN q, subnormal z and |q| extremely close to 1 are left
    out, because theta evaluation does not terminate on them yet
    (ROADMAP item 4; |q| = 0.999 still finishes in about 4 ms).  Adding them
    is a separate benchmark change once that item lands.
    """
    rng = random.Random(f"theta:{seed}")
    # Stratified: point i takes |q| from the i-th of count equal slices and
    # log|z| from a shuffled slice, so every seed covers the costly corner
    # (|q| near 0.9, |z| far from 1) about equally.
    z_slices = list(range(count))
    rng.shuffle(z_slices)
    points = []
    for i in range(count):
        abs_q = 0.02 + 0.88 * (i + rng.random()) / count
        abs_z = math.exp(math.log(0.1) + math.log(100.0) * (z_slices[i] + rng.random()) / count)
        q = cmath.rect(abs_q, rng.uniform(0.0, 2 * math.pi))
        z = cmath.rect(abs_z, rng.uniform(0.0, 2 * math.pi))
        k, ell = rng.choice(THETA_CLASSES)
        factors = product_factors(abs_q, max(abs_z, 1 / abs_z))
        points.append(ThetaInput(q, z, k, ell, factors))
    rng.shuffle(points)
    return points


def cli_plan(workload: str, seed: int) -> list[Invocation]:
    """One pass of a CLI workload; the battery workloads ignore the seed."""
    if workload == "battery":
        return battery_plan()
    if workload == "battery-jobs2":
        return jobs2_plan()
    if workload == "tables":
        return tables_plan(seed)
    raise ValueError(f"{workload!r} is not a CLI workload")
