"""The qpl benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and runs the program
from ``src``.  Workloads (see BENCHMARK.json for why each was chosen):

* ``battery``       qpl verify --all --grid k=3..8 --order 400 (285 reports)
* ``battery-jobs2`` the same grid at order 200 with --jobs 2 (not in
                    BENCHMARK.json: too sensitive to host CPU steal, see README)
* ``tables``        seed-drawn partitions --check (n=300) and divisors --check
                    (n=3000) invocations
* ``theta``         a seed-drawn batch of 10k theta points through the library

The loop is closed: one invocation at a time, the next after the previous
exits.  Each CLI invocation runs in a fresh interpreter in a fresh working
directory; a pass is the workload's list of invocations (for ``theta``, one
interpreter evaluating every point).  Passes repeat until ``--seconds`` have
been measured.  Every output is checked: CLI stdout against the golden
sha256 digests in golden.json (made by make_golden.py from the reference
commit), ``verify`` reports for a pass outcome, theta values against an
independent reference (theta_ref.py) and against the run's first pass.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate: the traced ones run the
program under spans.py, which wraps each ``qpl`` module's public functions
from outside, and the last line holds the per-layer metrics, including the
tracing overhead.  Spans from process-pool children are not collected yet.

``fail_ratio`` (failed over attempted operations) is 0 for a correct
program, and a metric with a bound must never be 0, so BENCHMARK.json bounds
its complement ``ok_ratio``; the table prints both.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness
import layers
import spans
import theta_ref
import workloads

ROOT = harness.HERE.parent
SETUP_REPEATS = 11
HARD_LIMIT_S = 150.0  # no child may run past this many seconds after start
FAILURES_SHOWN = 5


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    op_times: list[float] = field(default_factory=list)
    layer: dict | None = None  # per-layer metrics of a traced pass

    def add_child(self, run: harness.ChildRun) -> None:
        self.wall_s += run.wall_s
        self.cpu_s += run.cpu_s
        self.rss_mb = max(self.rss_mb, run.rss_mb)


class Workload:
    """Set-up and passes of one workload; subclasses know what a pass runs."""

    def __init__(self, name: str, seed: int, workdir: Path, deadline: float) -> None:
        self.name, self.seed, self.workdir, self.deadline = name, seed, workdir, deadline
        self.failures: list[str] = []

    def generate(self) -> None:
        raise NotImplementedError

    def ops_per_pass(self) -> int:
        raise NotImplementedError

    def run_pass(self, traced: bool) -> Pass:
        raise NotImplementedError

    def op_samples(self, passes: list[Pass]) -> list[float]:
        """Each operation's median time over the passes.

        Every pass runs the same operations.  Pooling their timings would put
        the percentiles in the gaps between operations of different cost,
        where a little noise moves them far; a theta point takes a fraction
        of a millisecond, so one timing of it is mostly scheduler noise.
        """
        timed = [p.op_times for p in passes if p.op_times]  # a failed theta pass has none
        return [statistics.median(times) for times in zip(*timed)] or [p.wall_s for p in passes]

    def timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def traced_process(self, spans_path: Path, wall_s: float) -> dict:
        header, records = spans.load(str(spans_path))
        return layers.process_metrics(header, records, wall_s)


class CliWorkload(Workload):
    def generate(self) -> None:
        self.plan = workloads.cli_plan(self.name, self.seed)
        self.golden = harness.load_golden()

    def ops_per_pass(self) -> int:
        return sum(inv.ops for inv in self.plan)

    def run_pass(self, traced: bool) -> Pass:
        result = Pass()
        processes, out_bytes = [], 0
        for i, inv in enumerate(self.plan):
            out = self.workdir / f"{i}.out"
            spans_path = self.workdir / f"{i}.spans" if traced else None
            run = harness.run_child(
                harness.cli_command(inv, spans_path),
                harness.child_env(ROOT, inv.oracle_bound),
                self.workdir, out, self.timeout(),
            )
            result.add_child(run)
            result.op_times.append(run.wall_s)
            result.attempted += 1
            reason = harness.check_cli_output(inv, run, out, self.golden)
            if reason:
                result.failed += 1
                self.failures.append(f"{inv.key}: {reason}{' (traced)' if traced else ''}")
            out_bytes += out.stat().st_size
            if traced and run.returncode == 0:
                processes.append(self.traced_process(spans_path, run.wall_s))
        if traced:
            result.layer = layers.pass_metrics(processes, out_bytes)
        return result


class ThetaWorkload(Workload):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.first_rows: list | None = None
        self.bad_rows: set[int] = set()

    def generate(self) -> None:
        self.points = workloads.theta_points(self.seed)
        self.points_path = self.workdir / "points.json"
        payload = {
            "tol": workloads.THETA_TOL,
            "points": [[p.q.real, p.q.imag, p.z.real, p.z.imag, p.k, p.ell, p.factors] for p in self.points],
        }
        self.points_path.write_text(json.dumps(payload), encoding="utf-8")

    def ops_per_pass(self) -> int:
        return len(self.points)

    def run_pass(self, traced: bool) -> Pass:
        result = Pass(attempted=len(self.points))
        out = self.workdir / "theta.out"
        cmd = [sys.executable, str(harness.THETA_PASS), str(self.points_path), str(out)]
        spans_path = self.workdir / "theta.spans"
        if traced:
            cmd += [str(spans_path), repr(time.monotonic())]
        run = harness.run_child(cmd, harness.child_env(ROOT), self.workdir, self.workdir / "theta.stdout", self.timeout())
        result.add_child(run)
        if run.timed_out or run.returncode != 0:
            result.failed = len(self.points)
            self.failures.append(f"theta pass: {'timeout' if run.timed_out else f'exit status {run.returncode}'}")
            return result
        data = json.loads(out.read_text(encoding="utf-8"))
        rows = data["values"]
        result.op_times = data["times"]
        if self.first_rows is None:
            self.first_rows = rows
            self.bad_rows = {i for i, (p, r) in enumerate(zip(self.points, rows)) if not theta_ref.point_ok(p, r)}
            for i in sorted(self.bad_rows)[:FAILURES_SHOWN]:
                self.failures.append(f"theta point {i}: outside tolerance of the reference")
        changed = {i for i, (a, b) in enumerate(zip(self.first_rows, rows)) if a != b}
        if len(rows) != len(self.points) or changed:
            self.failures.append(f"theta pass{' (traced)' if traced else ''}: values differ from the first pass")
        result.failed = len(self.bad_rows | changed) + max(len(self.points) - len(rows), 0)
        if traced:
            process = self.traced_process(spans_path, run.wall_s)
            result.layer = layers.pass_metrics([process], 0)
        return result


class SetupTimer:
    """Times set-up: a fresh interpreter importing qpl.cli, plus generating the
    workload's inputs.  The repeats are spread over the run, because the
    machine's speed drifts over seconds and one burst at the start would
    sample only one moment of it."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.cmd = [sys.executable, "-c", "import qpl.cli"]
        self.env = harness.child_env(ROOT)
        self.sink = workload.workdir / "setup.out"
        self.times: list[float] = []
        warm = self.import_once()  # fills the bytecode caches; not counted
        if warm.returncode != 0:
            raise SystemExit(f"perfbench: cannot import qpl.cli from {ROOT / 'src'}")

    def import_once(self) -> harness.ChildRun:
        return harness.run_child(self.cmd, self.env, self.workload.workdir, self.sink, self.workload.timeout())

    def measure(self, count: int = 1) -> None:
        for _ in range(min(count, SETUP_REPEATS - len(self.times))):
            run = self.import_once()
            if run.returncode != 0:
                raise SystemExit("perfbench: importing qpl.cli failed during set-up")
            start = time.perf_counter()
            self.workload.generate()
            self.times.append(run.wall_s + time.perf_counter() - start)

    def measure_share(self, passes_left: float) -> None:
        """Take this interval's share of the repeats still to do."""
        left = SETUP_REPEATS - len(self.times)
        self.measure(math.ceil(left / max(passes_left, 1.0)))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that still
    has 10 samples beyond it; the maximum when there are fewer than 11."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(workload: Workload, passes: list[Pass], setup: list[float], failed: int, attempted: int) -> dict:
    """The end-to-end metrics, each with a note on how it was taken.

    Times are medians over the run's passes; the best pass is printed too.
    """
    wall = statistics.median(p.wall_s for p in passes)
    best_wall = min(p.wall_s for p in passes)
    samples = workload.op_samples(passes)
    tail_value, tail_pct, beyond = tail(samples)
    return {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} set-ups"),
        "wall_s": (wall, f"median of {len(passes)} passes; best {best_wall:.6g}"),
        "ops_per_s": (workload.ops_per_pass() / wall, f"{workload.ops_per_pass()} ops per pass"),
        "op_ms_p50": (1e3 * statistics.median(samples), f"median of {len(samples)} ops, each its median"),
        "op_ms_tail": (1e3 * tail_value, f"p{tail_pct:.2f} of {len(samples)} ops, {beyond} beyond"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "user+sys per pass, median"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "largest process per pass, median"),
        "ok_ratio": (1.0 - failed / attempted, f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)"),
    }


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    """Median over traced passes of every per-layer figure, plus the overhead.

    A pass whose program failed has no spans and is left out of the medians.
    """
    layered = [p.layer for p in traced if p.layer is not None]
    keys = set().union(*layered)
    out = {key: statistics.median(layer.get(key, 0.0) for layer in layered) for key in keys}
    out["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
    return out


def print_report(workload: Workload, e2e: dict, layer: dict | None) -> None:
    print(f"workload {workload.name}  seed {workload.seed}")
    for name, (value, note) in e2e.items():
        print(f"  {name:<12} {value:>14.6g}  {note}")
    if layer is not None:
        print("  layer shares of traced thread time (self time, median of traced passes):")
        for key in [f"share.{n}" for n in ("startup", *layers.LAYERS, "untraced")]:
            print(f"    {key[6:]:<12} {100 * layer.get(key, 0.0):6.2f}%")
    for reason in workload.failures[:FAILURES_SHOWN]:
        print(f"  FAILED {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its working directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "qpl" / "cli.py").is_file():
        print(f"perfbench: no qpl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = time.perf_counter()
    workdir = ROOT / ".bench_work" / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        kind = ThetaWorkload if args.workload == "theta" else CliWorkload
        workload = kind(args.workload, args.seed, workdir, started + HARD_LIMIT_S)
        setup = SetupTimer(workload)
        setup.measure()
        untraced, traced = [], []
        measure_start = time.perf_counter()
        while True:
            untraced.append(workload.run_pass(traced=False))
            if args.trace:
                traced.append(workload.run_pass(traced=True))
            elapsed = time.perf_counter() - measure_start
            if elapsed >= args.seconds or workload.timeout() <= 0:
                break
            per_pass = elapsed / len(untraced)
            setup.measure_share((args.seconds - elapsed) / per_pass)
        setup.measure(SETUP_REPEATS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = untraced + traced
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    e2e = end_to_end(workload, untraced, setup.times, failed, attempted)
    layer = per_layer(traced, untraced) if args.trace else None
    print_report(workload, e2e, layer)

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else {name: value for name, (value, _) in e2e.items()}
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in section}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
