"""Shared fixtures."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import qpl


@pytest.fixture
def qpl_env():
    """Environment for a child `python -m qpl.cli` that imports this checkout's qpl."""
    return dict(os.environ, PYTHONPATH=str(Path(qpl.__file__).resolve().parents[1]))


@pytest.fixture
def newly_loaded(qpl_env):
    """newly_loaded(code): the modules a fresh interpreter holds after running
    code that a fresh interpreter running `pass` does not (the site hooks of
    the environment load some modules before any code runs)."""

    def modules_after(code: str) -> set[str]:
        probe = f"import sys\n{code}\nprint('\\n'.join(sys.modules))\n"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=60, env=qpl_env,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    baseline = modules_after("pass")
    return lambda code: modules_after(code) - baseline


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n): qpl.fanout reads n usable CPUs, whatever the machine has."""
    from qpl import fanout

    return lambda n: monkeypatch.setattr(fanout, "usable_cpus", lambda: n)


@pytest.fixture
def deadline():
    """Raise TimeoutError in this process if the test runs past 60 s, so a
    fan-out stuck on a pipe fails the test, and its `finally` reaps the
    workers, instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def no_child_left():
    """After the test, this process has no child left to reap."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
