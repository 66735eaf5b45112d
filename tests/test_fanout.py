"""Block fan-out: the worker-count rule, the pull loop, the in-order rule for
missing tasks and the traceback a worker ships, mostly without forking;
TestRealWorkers forks.  tests/test_identities.py runs the battery on real
workers."""

import fcntl
import os
import pickle
import time

import pytest

from qpl import fanout
from qpl.errors import ParameterError

# every test here drives the fan-out's pipes, where a mistake hangs instead
# of failing
pytestmark = pytest.mark.usefixtures("deadline")


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


def queue_of(records):
    """The read end of a pipe that holds these 4-byte records and no writer."""
    read, write = os.pipe()
    os.write(write, b"".join(r.to_bytes(4, "little") for r in records))
    os.close(write)
    return read


def test_share_stops_at_its_first_exception():
    # a process pulls one record at a time and leaves the rest queued
    ran = []

    def run(i):
        ran.append(i)
        if i == 4:
            raise ParameterError("four")
        return -i

    queue = queue_of([0, 1, 2])
    try:
        outcomes = fanout._pull(queue, [[2, 4, 5], [6], [8]], run)
        assert ran == [2, 4]
        assert outcomes[2] == -2 and isinstance(outcomes[4], ParameterError)
        assert os.read(queue, 64) == b"".join(r.to_bytes(4, "little") for r in (1, 2))
    finally:
        os.close(queue)


def test_orphaned_worker_exits_before_its_next_task(monkeypatch):
    class Exited(BaseException):
        pass

    def exit_(status):
        raise Exited(status)

    monkeypatch.setattr(os, "_exit", exit_)
    ran = []
    runs = [[0, 1], [2, 3]]
    queue = queue_of([0, 1])
    try:
        # the pid it was forked by is still its parent: every task runs
        assert fanout._pull(queue, runs, ran.append, os.getppid()) == dict.fromkeys(range(4))
    finally:
        os.close(queue)
    queue = queue_of([1])
    try:
        # a parent pid that differs from os.getppid(): the caller is gone
        with pytest.raises(Exited):
            fanout._pull(queue, runs, ran.append, os.getppid() + 1)
    finally:
        os.close(queue)
    assert ran == [0, 1, 2, 3]


def raise_type_error(i):
    raise TypeError(f"task {i}")


def test_a_worker_ships_its_exception_with_its_traceback():
    queue = queue_of([0])
    try:
        shipped = fanout._pull(queue, [[5]], raise_type_error, os.getppid())[5]
    finally:
        os.close(queue)
    exc = pickle.loads(pickle.dumps(shipped))
    assert type(exc) is TypeError and str(exc) == "task 5"
    assert isinstance(exc.__cause__, fanout.RemoteTraceback)
    assert "in raise_type_error\n" in str(exc.__cause__)


def test_results_come_back_in_index_order_or_the_lowest_exception(cpus, failing_fork):
    # this process alone pulls the blocks in schedule order, then walks the
    # indices in order and runs every one that is missing
    cpus(2)
    ran = []

    def run(i):
        ran.append(i)
        if i in (2, 3):
            raise ParameterError(f"task {i}")
        return "abcd"[i]

    assert fanout.run_blocks([[1], [0]], run, 2) == ["a", "b"]
    assert ran == [1, 0]
    ran.clear()
    # task 3 stops the pull; 0 and 1 are missing, and 2 raises first
    with pytest.raises(ParameterError, match="task 2"):
        fanout.run_blocks([[3], [2], [0, 1]], run, 2)
    assert ran == [3, 0, 1, 2]


@pytest.mark.usefixtures("no_child_left")
class TestRealWorkers:
    """run_blocks on forked workers.  In the tests that make this process
    wait for a worker's first task, the worker pulls whatever this process
    is not holding."""

    @pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipe size is fixed")
    def test_more_blocks_than_records_fit_one_page(self, cpus, monkeypatch, tmp_path):
        # every pipe holds one page: 2049 one-task blocks go out as 683
        # records of 3 blocks, 2732 bytes, and writing them never blocks;
        # each task runs once, in whichever process pulled it, and a worker
        # pulls some while this process holds its first
        cpus(2)
        real_pipe = os.pipe

        def one_page_pipe():
            read, write = real_pipe()
            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)
            return read, write

        monkeypatch.setattr(os, "pipe", one_page_pipe)
        log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        held = self.worker_first(tmp_path, lambda i: None)

        def run(i):
            os.write(log, f"{i}\n".encode())
            return held(i) ** 2

        try:
            blocks = [[i] for i in range(2049)]
            assert fanout.run_blocks(blocks, run, 2) == [i * i for i in range(2049)]
        finally:
            os.close(log)
        assert sorted(map(int, (tmp_path / "ran").read_text().split())) == list(range(2049))

    @staticmethod
    def worker_first(tmp_path, fault):
        """A task function that returns i.  In a worker it calls fault(i)
        first; in this process it waits, up to 10 s, until a worker has run
        a task."""
        here = os.getpid()
        met = tmp_path / "met"

        def run(i):
            if os.getpid() != here:
                met.touch()
                fault(i)
            for _ in range(10_000):
                if met.exists():
                    return i
                time.sleep(0.001)
            raise AssertionError("no worker pulled a task")

        return run

    def test_a_worker_exception_comes_back_with_its_traceback(self, cpus, tmp_path):
        cpus(2)
        run = self.worker_first(tmp_path, raise_type_error)
        with pytest.raises(TypeError, match="task ") as info:
            fanout.run_blocks([[i] for i in range(8)], run, 2)
        assert "in raise_type_error\n" in str(info.value.__cause__)

    @pytest.mark.parametrize(
        "exc",
        [
            # pickles, but its class cannot be rebuilt from the args
            lambda i: UnbuildableError(i, "worker"),
            # holds a function defined here, which pickle cannot send
            lambda i: ParameterError(lambda: i),
        ],
        ids=["unbuildable", "unpicklable"],
    )
    def test_an_exception_that_does_not_pickle_leaves_its_task_here(self, cpus, tmp_path, exc):
        cpus(2)

        def fault(i):
            raise exc(i)

        run = self.worker_first(tmp_path, fault)
        assert fanout.run_blocks([[i] for i in range(8)], run, 2) == list(range(8))


class UnbuildableError(Exception):
    def __init__(self, i, where):
        super().__init__(f"task {i} in the {where}")
