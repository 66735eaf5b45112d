"""Independent reference for the theta workload's outputs.

T(z|q) = sum_n q^{n(n-1)/2} z^n is summed outward from its largest term
until the terms fall below 1e-20 of it, with no code from ``qpl``.  Every
comparison is scaled by the sum of the terms' magnitudes, which bounds the
rounding error any summation order or product form can make.
"""

from __future__ import annotations

import math

REL_TOL = 1e-10  # of the magnitude sum; qpl's theta rounding stays below 1e-13 of it
_CUTOFF = math.log(1e-20)


def theta_reference(q: complex, z: complex) -> tuple[complex, float]:
    """(T(z|q), sum of |terms|) for 0 < |q| < 1, z != 0."""
    log_q, log_z = math.log(abs(q)), math.log(abs(z))
    # log|term n| = n(n-1)/2·log|q| + n·log|z| is concave with its top at n0
    n0 = round(0.5 - log_z / log_q)
    top = n0 * (n0 - 1) / 2 * log_q + n0 * log_z
    start = q ** (n0 * (n0 - 1) // 2) * z**n0
    total, scale = start, abs(start)
    term, n = start, n0  # upward: term(n+1) = term(n)·q^n·z
    while True:
        term *= q**n * z
        n += 1
        if n * (n - 1) / 2 * log_q + n * log_z - top < _CUTOFF:
            break
        total += term
        scale += abs(term)
    term, n = start, n0  # downward: term(n-1) = term(n) / (q^(n-1)·z)
    while True:
        n -= 1
        term /= q**n * z
        if n * (n - 1) / 2 * log_q + n * log_z - top < _CUTOFF:
            break
        total += term
        scale += abs(term)
    return total, scale


def close(value: complex, reference: complex, scale: float) -> bool:
    return abs(value - reference) <= REL_TOL * scale


def point_ok(point, row) -> bool:
    """Check one output row of theta_pass.py against the reference.

    row = [series, product (re, im pairs), residual 1, residual 2,
    classes a-d (re, im pairs)].
    """
    if not all(math.isfinite(x) for x in row):
        return False
    q, z, k, ell = point.q, point.z, point.k, point.ell
    series, product = complex(row[0], row[1]), complex(row[2], row[3])
    residual_1, residual_2 = row[4], row[5]
    ref, scale = theta_reference(q, z)
    if not (close(series, ref, scale) and close(product, ref, scale)):
        return False
    _, scale_qz = theta_reference(q, q * z)
    if residual_1 > REL_TOL * (scale_qz + scale / abs(z)) or residual_2 != 0.0:
        return False
    # theta_class: q -> q^k, z -> q^ell·z, then the variant; principal branches
    q_s, z_s = q**k, (q**ell) * z
    prefactor = q_s ** (-0.125) * z_s**0.5
    half = q_s**0.5
    expected = (
        (1, z_s),
        (1, -z_s),
        (prefactor, half * z_s),
        (prefactor, -half * z_s),
    )
    for i, (factor, inner_z) in enumerate(expected):
        value = complex(row[6 + 2 * i], row[7 + 2 * i])
        ref, scale = theta_reference(q_s, inner_z)
        if not close(value, factor * ref, abs(factor) * scale):
            return False
    return True
