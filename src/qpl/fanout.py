"""Running blocks of tasks on forked worker processes, with a serial run's result.

Tasks are numbered 0..n-1 and grouped into blocks.  The blocks wait in one
queue, an ``os.pipe()`` filled before forking, and the caller and up to one
``os.fork()`` worker per other usable CPU each pull the next block when idle
until the queue is empty or their first exception.  A worker pickles its
outcomes, an exception with its formatted traceback, back over a pipe of its
own; it leaves only through ``os._exit``, so it never flushes the caller's
stdio buffers, and it exits before its next task once the caller is gone.

Workers are forked, not spawned: a spawned one would pay interpreter start-up
and imports again, about as long as a whole share of the battery, and the
task function is a closure, which pickle cannot send.  qpl starts no thread,
so forking it is safe; a caller running threads of its own keeps jobs at 1.
"""

from __future__ import annotations

import os

def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(jobs: int, blocks: int) -> int:
    """Processes that run `blocks` blocks when `jobs` are asked for, this one
    included: min(jobs, usable CPUs, blocks), and 1 without os.fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(jobs, usable_cpus(), blocks))


def run_blocks(blocks: list[list[int]], run, jobs: int) -> list:
    """[run(i) for i in range(n)], the blocks partitioning range(n), on up to
    worker_count(jobs, len(blocks)) processes.  Walking i in order, it takes
    the outcome a process pulled or runs a missing index here, and raises the
    first exception met: a serial run's, whatever a worker, fork or pickle did."""
    workers = worker_count(jobs, len(blocks))
    outcomes = _fan_out(blocks, run, workers) if workers > 1 else {}
    results = []
    for i in range(sum(map(len, blocks))):
        outcome = outcomes[i] if i in outcomes else run(i)
        if isinstance(outcome, BaseException):
            raise outcome
        results.append(outcome)
    return results


class RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a worker."""


class _Shipped:
    """An exception and its formatted traceback: unpickles as the exception,
    with the traceback chained as its cause."""

    def __init__(self, exc: BaseException):
        import traceback

        self.exc = exc
        self.text = '\n"""\n' + "".join(traceback.format_exception(exc)) + '"""'

    def __reduce__(self):
        return _rebuild, (self.exc, self.text)


def _rebuild(exc: BaseException, text: str) -> BaseException:
    exc.__cause__ = RemoteTraceback(text)
    return exc


def _pull(queue: int, runs: list[list[int]], run, parent: int | None = None) -> dict:
    """{i: run(i)} for the tasks that the records pulled from the queue name,
    one record at a time, until it is empty or a task raises: {i: exception}
    comes last.  A worker, given the pid that forked it, ships the exception
    with its traceback and exits before a task once the caller is gone."""
    outcomes = {}
    while record := os.read(queue, 4):
        for i in runs[int.from_bytes(record, "little")]:
            if parent is not None and os.getppid() != parent:
                os._exit(1)
            try:
                outcomes[i] = run(i)
            except Exception as exc:
                outcomes[i] = exc if parent is None else _Shipped(exc)
                return outcomes
    return outcomes


def _fan_out(blocks: list[list[int]], run, workers: int) -> dict:
    """The outcomes, by task index, that this process and `workers` - 1
    forked ones pulled from a queue of the blocks and sent back."""
    import pickle
    import signal

    # at most 1024 4-byte records fill the one page a pipe holds, so writing never blocks
    step = -(-len(blocks) // 1024)
    runs = [sum(blocks[lo:lo + step], []) for lo in range(0, len(blocks), step)]
    parent = os.getpid()
    queue, feed = os.pipe()
    os.write(feed, b"".join(r.to_bytes(4, "little") for r in range(len(runs))))
    os.close(feed)
    pipes = {}  # pid -> read end of its outcome pipe, until reaped
    try:
        for _ in range(workers - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the others pull its runs
                os.close(read)
                os.close(write)
                continue
            if pid == 0:
                try:
                    payload = pickle.dumps(_pull(queue, runs, run, parent), pickle.HIGHEST_PROTOCOL)
                    with open(write, "wb") as pipe:
                        pipe.write(payload)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            pipes[pid] = open(read, "rb")
        outcomes = _pull(queue, runs, run)
        for pid, pipe in list(pipes.items()):
            payload = pipe.read()
            os.waitpid(pid, 0)
            pipes.pop(pid).close()
            try:
                outcomes.update(pickle.loads(payload))
            except Exception:  # cut short by a kill, or an exception that does not unpickle
                pass
    finally:
        os.close(queue)
        for pid, pipe in pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outcomes

