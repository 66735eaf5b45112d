"""Tests of the benchmark itself:  python3 -m pytest perfbench

They check that a broken output is counted as a failure, that patching by
identity finds every binding, that the seeded inputs repeat, and that tracing
leaves the program's stdout unchanged.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

import harness
import layers
import run
import spans
import theta_ref
import workloads

sys.path.insert(0, str(harness.HERE.parent / "src"))

SMALL = workloads.Invocation(("partitions", "--set", "Jbar:3,1", "--n", "12", "--check"), None, 13)


def _run_small(tmp_path, spans_path=None):
    out = tmp_path / ("traced.out" if spans_path else "plain.out")
    child = harness.run_child(
        harness.cli_command(SMALL, spans_path), harness.child_env(harness.HERE.parent), tmp_path, out, 60
    )
    return child, out


def test_corrupted_digest_raises_fail_ratio(tmp_path):
    child, out = _run_small(tmp_path)
    good = {SMALL.key: harness.sha256_file(out)}
    assert harness.check_cli_output(SMALL, child, out, good) is None

    workload = run.CliWorkload("tables", 0, tmp_path, time.perf_counter() + 60)
    workload.plan = [SMALL]
    workload.golden = good
    clean = workload.run_pass(traced=False)
    workload.golden = {SMALL.key: "0" * 64}
    corrupted = workload.run_pass(traced=False)
    assert (clean.failed, corrupted.failed) == (0, 1)
    ok = run.end_to_end(workload, [clean, corrupted], [0.1], corrupted.failed, 2)["ok_ratio"][0]
    assert ok == 0.5


def test_failing_or_missing_report_fails():
    passing = {"identity": "kim", "outcome": "pass"}
    failing = {"identity": "kim", "outcome": "fail"}
    assert harness.check_reports(json.dumps([passing, passing]), 2) is None
    assert "failing" in harness.check_reports(json.dumps([passing, failing]), 2)
    assert "expected" in harness.check_reports(json.dumps([passing]), 2)
    stalled = harness.ChildRun(0, 1.0, 1.0, 10.0, timed_out=True)
    assert harness.check_cli_output(SMALL, stalled, None, {}) == "timeout"


def test_patching_finds_every_binding_of_gf_count():
    import qpl.cli  # noqa: F401  (loads every module that binds gf_count)
    from qpl.partitions import gf_count

    holders = {n for n, m in sys.modules.items() if n.split(".")[0] == "qpl" and gf_count in vars(m).values()}
    assert {"qpl", "qpl.partitions", "qpl.identities", "qpl.divisors", "qpl.cli"} <= holders
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.bindings["qpl.partitions.gf_count"] == len(holders)
        left = [n for n, m in sys.modules.items() if n.split(".")[0] == "qpl" and gf_count in vars(m).values()]
        assert left == []
        from qpl.series import QSeries

        assert QSeries.mul_binomial.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert sys.modules["qpl.cli"].gf_count is gf_count


def test_each_thread_keeps_its_own_parent_stack():
    tracer = spans.Tracer()
    leaf = tracer.wrap("series.leaf", lambda: None, None)

    def task():
        leaf()

    wrapped_task = tracer.wrap("identities.task", task, None)

    def battery():
        workers = [threading.Thread(target=wrapped_task) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    tracer.wrap("identities.battery", battery, None)()
    width = len(spans.FIELDS)
    records = [tuple(tracer.records[i : i + width]) for i in range(0, len(tracer.records), width)]
    name = {r[0]: tracer.names[int(r[2])] for r in records}
    parent = {r[0]: r[1] for r in records}
    battery_id = next(i for i, n in name.items() if n == "identities.battery")
    tasks = [i for i, n in name.items() if n == "identities.task"]
    assert len(tasks) == 2 and all(parent[i] == battery_id for i in tasks)
    leaves = [i for i, n in name.items() if n == "series.leaf"]
    assert sorted(parent[i] for i in leaves) == sorted(tasks)


def test_traced_stdout_equals_untraced(tmp_path):
    plain, plain_out = _run_small(tmp_path)
    spans_path = tmp_path / "small.spans"
    traced, traced_out = _run_small(tmp_path, spans_path)
    assert plain.returncode == traced.returncode == 0
    assert plain_out.read_bytes() == traced_out.read_bytes()
    header, records = spans.load(str(spans_path))
    metrics = layers.process_metrics(header, records, traced.wall_s)
    assert metrics["cli.main.calls"] == 1
    assert metrics["partitions.oracle_count.calls"] == 13
    assert metrics["partitions.recursion.calls"] == 1


def test_seeded_inputs_repeat_and_battery_ignores_the_seed():
    assert workloads.tables_plan(7) == workloads.tables_plan(7)
    assert workloads.tables_plan(7) != workloads.tables_plan(8)
    assert workloads.theta_points(7, 50) == workloads.theta_points(7, 50)
    assert workloads.theta_points(7, 50) != workloads.theta_points(8, 50)
    for name in ("battery", "battery-jobs2"):
        assert workloads.cli_plan(name, 1) == workloads.cli_plan(name, 2)


def test_every_drawable_invocation_has_a_golden_digest():
    golden = harness.load_golden()
    pool = workloads.tables_pool() + workloads.battery_plan() + workloads.jobs2_plan()
    assert all(inv.key in golden for inv in pool)
    serial = workloads.Invocation(workloads.SERIAL_200_ARGV).key
    assert golden[serial] == golden[workloads.jobs2_plan()[0].key]


def test_tables_draws_one_check_per_slot_from_its_pool():
    pool = set(workloads.tables_pool())
    for seed in range(20):
        plan = workloads.tables_plan(seed)
        assert len(plan) == len(workloads.PARTITION_SLOTS) + len(workloads.DIVISOR_SLOTS)
        assert set(plan) <= pool


def test_theta_reference_accepts_qpl_and_rejects_a_perturbed_value():
    from qpl.theta import ThetaPoint, theta_series

    for p in workloads.theta_points(3, 20):
        value = theta_series(ThetaPoint.from_qz(p.q, p.z), workloads.THETA_TOL)
        ref, scale = theta_ref.theta_reference(p.q, p.z)
        assert theta_ref.close(value, ref, scale)
        assert not theta_ref.close(value + 1e-6 * scale, ref, scale)


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, pct, beyond = run.tail(samples)
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert sum(s > value for s in samples) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_covered_merges_overlapping_children():
    assert layers.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert layers.covered([(0, 4), (3, 12)], 1, 10) == pytest.approx(9)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((harness.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = run.end_to_end(_OnePassWorkload(), [run.Pass(1.0, 1.0, 1.0, 1, 0, [1.0])], [0.1], 0, 1)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    span_names = {name for name, *_ in spans.TARGETS}
    for metric in spec["per_layer"]:
        name = metric["name"]
        base = name.rsplit(".", 1)[0]
        assert base in span_names or name.split(".")[0] in ("share", "trace") or base in (
            "cli", "identities.battery", "partitions.gf_count", "series.mul"
        ), name


class _OnePassWorkload:
    def ops_per_pass(self):
        return 1

    def op_samples(self, passes):
        return [t for p in passes for t in p.op_times]
