"""Spans around the public functions of each ``qpl`` module, patched in from outside.

The benchmark does not change the program: it wraps functions after import.
Wrapping is by identity: for each target function, every attribute of every
loaded ``qpl`` module that *is* the original is replaced, so a name
re-exported by another module (``gf_count`` is bound in ``partitions``,
``identities``, ``divisors``, ``cli`` and the package) cannot be missed.
Methods are patched on their class.  The number of bindings patched is
recorded per target so that a missed one shows.

Each thread keeps its own parent stack (the ``--jobs`` executor runs tasks
on threads).  A thread's outermost span takes as parent the span open on the
thread that installed the tracer, since that span is waiting for it.  Spans
are held in memory and written out once, at the end.  Spans from
process-pool children are not collected yet: only the process that
installed the tracer records.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from array import array
from typing import Callable


# An extra maps (tracer, args, kwargs, result) to the span's two numeric
# fields (a, b).


def _report_extra(tracer, args, kwargs, result) -> tuple[float, float]:
    """a: 1 when the returned report fails."""
    return (0.0 if result.passed else 1.0, 0.0)


def _gf_key_extra(tracer, args, kwargs, result) -> tuple[float, float]:
    """a: index of the call's (part set, mode, order) key among those seen."""
    return (float(tracer.key_index(repr((args, sorted(kwargs.items()))))), 0.0)


def _binomial_ops_extra(tracer, args, kwargs, result) -> tuple[float, float]:
    """a: coefficients touched by a multiply or divide by (1 + c·q^e) (computed)."""
    series, _coeff, exp = args
    return (float(max(series.order + 1 - exp, 0)), 0.0)


def _mul_ops_extra(tracer, args, kwargs, result) -> tuple[float, float]:
    """a: multiply-adds of the schoolbook product, which skips zeros of the left
    factor (computed); b: 1 when the left factor is more than half nonzero."""
    left = args[0].coeffs
    size = len(left)
    nonzero = [i for i, c in enumerate(left) if c]
    return (float(sum(size - i for i in nonzero)), 1.0 if 2 * len(nonzero) > size else 0.0)


def _battery_extra(tracer, args, kwargs, result) -> tuple[float, float]:
    """a: worker count."""
    return (float(max(kwargs.get("jobs", 1), 1)), 0.0)


# (span name, owner, attribute, extra): the owner is a module, or a class as
# "module:Class".  The first part of a span name is its layer.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "qpl.cli", "main", None),
    ("identities.battery", "qpl.identities", "battery", _battery_extra),
    ("identities.triple_product", "qpl.identities", "verify_triple_product", _report_extra),
    ("identities.specialized", "qpl.identities", "verify_specialized", _report_extra),
    ("identities.berger", "qpl.identities", "verify_berger", _report_extra),
    ("identities.hermite", "qpl.identities", "verify_hermite", _report_extra),
    ("identities.boundary_half", "qpl.identities", "verify_boundary_half", _report_extra),
    ("identities.sylvester", "qpl.identities", "verify_sylvester", _report_extra),
    ("identities.partition_shift", "qpl.partitions", "partition_shift_identities", _report_extra),
    ("identities.bounded_mult_shift", "qpl.partitions", "bounded_mult_shift_identity", _report_extra),
    ("identities.apostol", "qpl.divisors", "apostol_convolution_check", _report_extra),
    ("identities.kim", "qpl.divisors", "kim_identity_check", _report_extra),
    ("partitions.gf_count", "qpl.partitions", "gf_count", _gf_key_extra),
    ("partitions.oracle_table", "qpl.partitions", "oracle_table", None),
    ("partitions.oracle_count", "qpl.partitions", "oracle_count", None),
    ("partitions.recursion", "qpl.partitions", "recursive_count_jbar", None),
    ("partitions.recursion", "qpl.partitions", "recursive_count_bounded_jbar", None),
    ("partitions.recursion", "qpl.partitions", "recursive_count_j", None),
    ("partitions.recursion", "qpl.partitions", "recursive_count_distinct_j", None),
    ("partitions.recursion", "qpl.partitions", "recursive_count_quotient", None),
    ("series.mul", "qpl.series:QSeries", "__mul__", _mul_ops_extra),
    ("series.mul_binomial", "qpl.series:QSeries", "mul_binomial", _binomial_ops_extra),
    ("series.div_binomial", "qpl.series:QSeries", "div_binomial", _binomial_ops_extra),
    ("series.reciprocal", "qpl.series:QSeries", "reciprocal", None),
    ("series.triple_pochhammer", "qpl.series", "triple_pochhammer", None),
    ("series.zlaurent_mul", "qpl.series:ZLaurentSeries", "__mul__", None),
    ("figurate.enumerate", "qpl.figurate", "figurate_enumerate", None),
    ("figurate.gaussian_binomial", "qpl.figurate", "gaussian_binomial", None),
    ("partsets.members_upto", "qpl.partsets:PartSet", "members_upto", None),
    ("divisors.divisor_sum", "qpl.divisors", "divisor_sum", None),
    ("divisors.recursive", "qpl.divisors", "recursive_divisor_sums", None),
    ("theta.series", "qpl.theta", "theta_series", None),
    ("theta.product", "qpl.theta", "theta_product", None),
    ("theta.residual", "qpl.theta", "quasi_periodicity_residual", None),
    ("theta.class", "qpl.theta", "theta_class", None),
)

# Spans whose b field is the thread CPU time instead: on threads, wall time
# inside a span includes waiting for the interpreter lock.
CPU_TIMED_LAYERS = ("identities",)

# A span is FIELDS doubles in one flat array, which the garbage collector
# does not scan however many spans there are.
FIELDS = ("id", "parent", "name", "t0", "t1", "thread", "a", "b")
NO_PARENT = -1.0


class Tracer:
    """Records a span per call of each patched function, in memory."""

    def __init__(self) -> None:
        self.records = array("d")
        self.names: list[str] = []
        self.bindings: dict[str, int] = {}
        self._keys: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._stacks: dict[int, list[float]] = {}
        self._threads: dict[int, float] = {}
        self._ids = itertools.count()
        self._home = threading.get_ident()
        self._lock = threading.Lock()

    def key_index(self, key: str) -> int:
        return self._keys.setdefault(key, len(self._keys))

    def _thread_stack(self, tid: int) -> list[float]:
        """A new thread's parent stack; its index is the order of first span."""
        with self._lock:
            self._threads.setdefault(tid, float(len(self._threads)))
            return self._stacks.setdefault(tid, [])

    def wrap(self, name: str, fn: Callable, extra: Callable | None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        code = float(self.names.index(name))
        record, stacks, threads, ids, home = (
            self.records.extend, self._stacks, self._threads, self._ids, self._home,
        )
        new_stack = self._thread_stack
        perf_counter, thread_time, get_ident = time.perf_counter, time.thread_time, threading.get_ident
        with_cpu = name.split(".", 1)[0] in CPU_TIMED_LAYERS
        tracer = self

        def traced(*args, **kwargs):
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = new_stack(tid)
            if stack:
                parent = stack[-1]
            else:  # a thread's outermost span: the home thread's open span caused it
                try:
                    parent = stacks[home][-1] if tid != home else NO_PARENT
                except (KeyError, IndexError):
                    parent = NO_PARENT
            sid = float(next(ids))
            stack.append(sid)
            cpu0 = thread_time() if with_cpu else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                record((sid, parent, code, t0, t1, threads[tid], 0.0, 0.0))
                raise
            t1 = perf_counter()
            stack.pop()
            a, b = extra(tracer, args, kwargs, result) if extra is not None else (0.0, 0.0)
            if with_cpu:
                b = thread_time() - cpu0
            record((sid, parent, code, t0, t1, threads[tid], a, b))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS) -> None:
        """Patch every target in every loaded ``qpl`` module; count the bindings.

        A target whose module is not loaded counts 0 bindings.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qpl" or n.startswith("qpl.")]
        for name, owner, attr, extra in targets:
            module_name, _, class_name = owner.partition(":")
            holder = sys.modules.get(module_name)
            if holder is None:  # not loaded by this program: nothing to patch
                self.bindings[f"{owner}.{attr}"] = 0
                continue
            if class_name:
                holder = getattr(holder, class_name)
            original = vars(holder)[attr]
            wrapper = self.wrap(name, original, extra)
            places = [holder] if class_name else modules
            count = 0
            for place in places:
                for key, value in list(vars(place).items()):
                    if value is original:
                        setattr(place, key, wrapper)
                        self._undo.append((place, key, original))
                        count += 1
            self.bindings[f"{owner}.{attr}"] = count

    def uninstall(self) -> None:
        for place, key, original in reversed(self._undo):
            setattr(place, key, original)
        self._undo.clear()

    def dump(self, path: str, **facts) -> None:
        """Write the names, binding counts and facts to path as JSON, and the
        span records to path + ".bin" as raw doubles (FIELDS per span)."""
        header = {"names": self.names, "bindings": self.bindings, "fields": FIELDS, **facts}
        with open(path + ".bin", "wb") as handle:
            self.records.tofile(handle)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(header, handle)


def load(path: str) -> tuple[dict, list[tuple]]:
    """Read what ``Tracer.dump`` wrote: the header and one tuple per span."""
    with open(path, encoding="utf-8") as handle:
        header = json.load(handle)
    records = array("d")
    with open(path + ".bin", "rb") as handle:
        records.frombytes(handle.read())
    width = len(FIELDS)
    return header, [tuple(records[i : i + width]) for i in range(0, len(records), width)]
