"""Block fan-out: the worker-count rule, the deal, and what a worker does,
without forking.  tests/test_identities.py runs the battery on real workers."""

import os

import pytest

from qpl import fanout
from qpl.errors import ParameterError


@pytest.fixture
def failing_fork(monkeypatch):
    """os.fork raises OSError and counts its calls: no process is started,
    and every share runs in this process."""
    calls = []

    def fork():
        calls.append(1)
        raise OSError("no fork in this test")

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
def test_usable_cpus_is_the_affinity_mask():
    assert fanout.usable_cpus() == len(os.sched_getaffinity(0)) >= 1


@pytest.mark.parametrize(
    "jobs,n_cpus,blocks,workers",
    [
        (1, 2, 7, 1),
        (2, 2, 7, 2),
        (8, 2, 7, 2),
        (3, 8, 7, 3),
        (8, 8, 7, 7),
        (2, 1, 7, 1),
        (4, 4, 1, 1),
        # verify --all --grid k=3..100000 --jobs 100000: 99 999 blocks
        (100_000, 2, 99_999, 2),
    ],
)
def test_worker_count_is_the_least_of_jobs_cpus_and_blocks(cpus, jobs, n_cpus, blocks, workers):
    cpus(n_cpus)
    assert fanout.worker_count(jobs, blocks) == workers


def test_one_worker_without_fork(cpus, monkeypatch):
    cpus(8)
    monkeypatch.delattr(os, "fork")
    assert fanout.worker_count(8, 7) == 1


def test_deal_cuts_contiguous_runs_the_first_ones_longer():
    blocks = [[0, 7], [1, 8], [2], [3, 9], [4], [5], [6]]
    assert fanout.deal(blocks, 2) == [[0, 1, 2, 3, 7, 8, 9], [4, 5, 6]]
    assert fanout.deal(blocks, 3) == [[0, 1, 2, 7, 8], [3, 4, 9], [5, 6]]
    assert fanout.deal(blocks, 7) == [sorted(b) for b in blocks]


@pytest.mark.parametrize("jobs,forks", [(1, 0), (2, 1), (3, 2), (100_000, 2)])
def test_fork_is_called_once_per_worker_beyond_this_process(cpus, failing_fork, jobs, forks):
    cpus(3)
    blocks = [[i] for i in range(99_999)]
    assert fanout.run_blocks(blocks, lambda i: i * i, jobs) == [i * i for i in range(99_999)]
    assert len(failing_fork) == forks


def test_failed_fork_still_raises_the_lowest_exception(cpus, failing_fork):
    cpus(2)

    def run(i):
        if i in (1, 5):
            raise ParameterError(f"task {i}")
        return i

    with pytest.raises(ParameterError, match="task 1"):
        fanout.run_blocks([[0, 1], [2, 3], [4, 5]], run, 2)
    assert failing_fork == [1]


def test_share_stops_at_its_first_exception():
    ran = []

    def run(i):
        ran.append(i)
        if i == 4:
            raise ParameterError("four")
        return -i

    outcomes = fanout._run_share([2, 4, 6], run)
    assert ran == [2, 4]
    assert outcomes[0] == (2, -2)
    assert outcomes[1][0] == 4 and isinstance(outcomes[1][1], ParameterError)


def test_orphaned_worker_exits_before_its_next_task(monkeypatch):
    class Exited(BaseException):
        pass

    def exit_(status):
        raise Exited(status)

    monkeypatch.setattr(os, "_exit", exit_)
    ran = []
    # the pid it was forked by is still its parent: every task runs
    assert fanout._run_share([0, 1], ran.append, os.getppid()) == [(0, None), (1, None)]
    # a parent pid that differs from os.getppid(): the caller is gone
    with pytest.raises(Exited):
        fanout._run_share([2, 3], ran.append, os.getppid() + 1)
    assert ran == [0, 1]


def test_results_come_back_in_index_order_or_the_lowest_exception():
    assert fanout._in_order([(2, "c"), (0, "a"), (1, "b")]) == ["a", "b", "c"]
    outcomes = [(0, "a"), (3, ParameterError("three")), (1, "b"), (2, ParameterError("two"))]
    with pytest.raises(ParameterError, match="two"):
        fanout._in_order(outcomes)
