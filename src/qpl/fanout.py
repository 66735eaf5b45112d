"""Running blocks of tasks on forked worker processes, with a serial run's result.

Tasks are numbered 0..n-1 and grouped into blocks.  The blocks are dealt to
at most one process per usable CPU: the calling process runs the first
share, and each other share runs in an ``os.fork()`` child that sends back
``(task index, result or exception)`` pairs, pickled, over an ``os.pipe()``.
The caller gets the results in index order, or the exception that a serial
run in index order would raise: every process stops at its first exception,
and the one with the lowest index wins.

A worker that dies before sending its whole payload costs time, not bytes:
the calling process runs that share itself.  A worker leaves only through
``os._exit``, so it never flushes the caller's stdio buffers, and it exits
before its next task once the process that forked it is gone.

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


def deal(blocks: list[list[int]], workers: int) -> list[list[int]]:
    """Cut the blocks, in order, into `workers` contiguous runs of near-equal
    length (the first runs take the extra blocks); each share lists its task
    indices in increasing order."""
    cuts = [-(-len(blocks) * w // workers) for w in range(workers + 1)]
    return [
        sorted(i for block in blocks[lo:hi] for i in block)
        for lo, hi in zip(cuts, cuts[1:])
    ]


def run_blocks(blocks: list[list[int]], run, jobs: int) -> list:
    """[run(i) for i in range(n)], the blocks partitioning range(n), on up to
    worker_count(jobs, len(blocks)) processes; raises what that serial list
    would raise first."""
    workers = worker_count(jobs, len(blocks))
    if workers == 1:
        return [run(i) for i in range(sum(map(len, blocks)))]
    return _in_order(_fan_out(deal(blocks, workers), run))


def _run_share(share: list[int], run, parent: int | None = None) -> list:
    """(i, run(i)) for i in share, ending early with (i, exception) at the
    first task that raises.  Given the pid of the process that forked it, a
    worker compares it with its parent's before each task and exits at once
    when they differ: the caller is gone and nobody reads the result."""
    outcomes = []
    for i in share:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        try:
            outcomes.append((i, run(i)))
        except Exception as exc:
            outcomes.append((i, exc))
            break
    return outcomes


def _fan_out(shares: list[list[int]], run) -> list:
    """Every share's outcomes: shares[0] in this process, each other share in
    a forked worker or, when the fork or the worker fails, here too."""
    import pickle
    import signal

    parent = os.getpid()
    outcomes = []
    local = [shares[0]]
    workers = {}  # pid -> (read end of its pipe, its share), until reaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: run the share here
                os.close(read)
                os.close(write)
                local.append(share)
                continue
            if pid == 0:
                status = 1
                try:
                    payload = pickle.dumps(_run_share(share, run, parent), pickle.HIGHEST_PROTOCOL)
                    with open(write, "wb") as pipe:
                        pipe.write(payload)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            workers[pid] = (open(read, "rb"), share)
        for share in local:
            outcomes += _run_share(share, run)
        for pid in list(workers):
            pipe, share = workers[pid]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            try:
                shipped = pickle.loads(payload) if status == 0 else None
            except Exception:
                shipped = None
            # a worker killed, out of memory or unable to pickle its outcomes
            outcomes += _run_share(share, run) if shipped is None else shipped
    finally:
        for pid, (pipe, _) in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outcomes


def _in_order(outcomes: list) -> list:
    """The results by task index; raises the exception of the lowest index.

    Each process stopped at its first exception, so every index below the
    lowest one that raised is present."""
    results = []
    for _, outcome in sorted(outcomes, key=lambda pair: pair[0]):
        if isinstance(outcome, BaseException):
            raise outcome
        results.append(outcome)
    return results
