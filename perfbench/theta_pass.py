"""Evaluate a batch of theta points through the library, timing each point.

    python3 theta_pass.py POINTS_JSON OUT_JSON [SPANS_JSON SPAWN_MONOTONIC]

Each point runs theta_series, theta_product, quasi_periodicity_residual and
theta_class for variants a-d.  OUT_JSON gets the per-point seconds and the
values as [re, im] pairs; the caller checks them.  With SPANS_JSON the run
is traced as in traced_cli.py.
"""

import json
import sys
import time

import qpl.theta

ready = time.monotonic()

VARIANTS = "abcd"


def main() -> int:
    points_path, out_path = sys.argv[1], sys.argv[2]
    tracer = None
    if len(sys.argv) > 3:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    theta = qpl.theta  # looked up after patching
    with open(points_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tol = spec["tol"]
    times, values = [], []
    clock = time.perf_counter
    for qr, qi, zr, zi, k, ell, factors in spec["points"]:
        start = clock()
        point = theta.ThetaPoint.from_qz(complex(qr, qi), complex(zr, zi))
        series = theta.theta_series(point, tol)
        product = theta.theta_product(point, factors)
        residual = theta.quasi_periodicity_residual(point, tol)
        classes = [theta.theta_class(k, ell, v, point, tol) for v in VARIANTS]
        times.append(clock() - start)
        row = [series.real, series.imag, product.real, product.imag, *residual]
        for c in classes:
            row += [c.real, c.imag]
        values.append(row)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"times": times, "values": values}, handle)
    if tracer is not None:
        tracer.dump(sys.argv[3], startup_s=ready - float(sys.argv[4]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
