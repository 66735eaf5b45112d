"""Per-layer metrics from the spans of a traced pass.

A layer is the first part of a span name (``series.mul`` is in ``series``).
``busy_s`` is the time inside a name's spans; ``self_s`` is that minus the
part of each span's interval that its child spans cover.  Counts named
``*_ops`` are computed from the call arguments, not measured.
"""

from __future__ import annotations

from collections import defaultdict

from spans import NO_PARENT

LAYERS = ("cli", "identities", "partitions", "series", "figurate", "partsets", "divisors", "theta")
OPS_SPANS = ("series.mul", "series.mul_binomial", "series.div_binomial")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def process_metrics(header: dict, spans: list[tuple], wall_s: float) -> dict[str, float]:
    """Sums over one traced process; wall_s is its spawn-to-reap time."""
    names = header["names"]
    name_of = {sid: names[int(code)] for sid, _p, code, *_ in spans}
    children = defaultdict(list)
    for sid, parent, _c, t0, t1, *_ in spans:
        children[parent].append((t0, t1))
    m: dict[str, float] = defaultdict(float)
    gf_keys = set()
    battery_capacity = 0.0
    for sid, parent, _c, t0, t1, _thread, a, b in spans:
        name = name_of[sid]
        layer = name.split(".", 1)[0]
        busy = t1 - t0
        own = busy - covered(children.get(sid, ()), t0, t1)
        m[f"{name}.calls"] += 1
        m[f"{name}.busy_s"] += busy
        m[f"{name}.self_s"] += own
        m[f"{layer}.self_s"] += own
        if parent == NO_PARENT:
            m["root_busy_s"] += busy
        if name == "identities.battery":
            battery_capacity += busy * a
        elif layer == "identities":
            m[f"{name}.failed"] += a
            if name_of.get(parent) == "identities.battery":
                m["identities.battery.task_busy_s"] += b
        if name in OPS_SPANS:
            m[f"{name}.coeff_ops"] += a
            if name == "series.mul" and b:
                m["series.mul.dense_coeff_ops"] += a
        if name == "partitions.gf_count":
            gf_keys.add(a)
    m["partitions.gf_count.distinct"] = len(gf_keys)
    m["battery_capacity_s"] = battery_capacity
    startup = header.get("startup_s", 0.0)
    m["cli.startup_s"] = startup
    m["trace.spans"] = len(spans)
    m["trace.bindings"] = sum(header["bindings"].values())
    m["untraced_s"] = max(wall_s - startup - m["root_busy_s"], 0.0)
    return m


def pass_metrics(processes: list[dict[str, float]], out_bytes: int) -> dict[str, float]:
    """Combine a pass's processes; add ratios and each layer's share.

    A share is the layer's self time over the pass's traced thread time:
    start-up, every layer's self time, and time outside any span.  With one
    thread that is the pass's wall time; with worker threads it is more.
    """
    m: dict[str, float] = defaultdict(float)
    for proc in processes:
        for key, value in proc.items():
            m[key] += value
    calls = m["partitions.gf_count.calls"]
    m["partitions.gf_count.repeat_share"] = (calls - m["partitions.gf_count.distinct"]) / calls if calls else 0.0
    capacity = m["battery_capacity_s"]
    m["identities.battery.parallel_eff"] = m["identities.battery.task_busy_s"] / capacity if capacity else 0.0
    m["cli.out_bytes"] = out_bytes
    m["trace.bindings"] = max((proc["trace.bindings"] for proc in processes), default=0)
    thread_time = m["cli.startup_s"] + m["untraced_s"] + sum(m[f"{layer}.self_s"] for layer in LAYERS)
    for layer in LAYERS:
        m[f"share.{layer}"] = m[f"{layer}.self_s"] / thread_time if thread_time else 0.0
    m["share.startup"] = m["cli.startup_s"] / thread_time if thread_time else 0.0
    m["share.untraced"] = m["untraced_s"] / thread_time if thread_time else 0.0
    return m
