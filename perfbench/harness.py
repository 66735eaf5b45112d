"""Running one ``qpl`` invocation in a fresh interpreter and checking its output.

Every invocation gets a new interpreter and a new, empty working directory,
as a user's ``qpl`` run does, so no cache inside the program survives from
one timed invocation to the next.  Wall time runs from spawn to reap; CPU
time and peak RSS come from the kernel's accounting for the reaped child.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Invocation

HERE = Path(__file__).resolve().parent
# What the ``qpl`` console script runs.
CLI_BOOT = "import sys; from qpl.cli import main; sys.exit(main())"
TRACED_CLI = HERE / "traced_cli.py"
THETA_PASS = HERE / "theta_pass.py"


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


def child_env(root: Path, oracle_bound: int | None = None) -> dict[str, str]:
    """The caller's environment with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("QPL_ORACLE_BOUND", None)
    if oracle_bound is not None:
        env["QPL_ORACLE_BOUND"] = str(oracle_bound)
    return env


def run_child(cmd, env, workdir: Path, stdout_path: Path, timeout: float) -> ChildRun:
    """Run cmd in a fresh directory under workdir, stdout to a file; wait for it.

    A child still running after ``timeout`` seconds is killed and reported
    as timed out.
    """
    cwd = Path(tempfile.mkdtemp(dir=workdir))
    try:
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd, env=env)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(max(timeout, 0.1), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    return ChildRun(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
        killed.is_set(),
    )


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def cli_command(inv: Invocation, spans_path: Path | None = None) -> list[str]:
    """The command line of an invocation, under the tracer when spans_path is set."""
    if spans_path is None:
        return [sys.executable, "-c", CLI_BOOT, *inv.argv]
    return [
        sys.executable, str(TRACED_CLI), str(spans_path), repr(time.monotonic()), "--", *inv.argv,
    ]


def check_cli_output(inv: Invocation, run: ChildRun, stdout_path: Path, golden: dict) -> str | None:
    """Why an invocation failed, or None when it passed.

    It fails on a timeout, a nonzero exit, a stdout digest that differs from
    the golden one, or (for ``verify``) a report that is not a pass.
    """
    if run.timed_out:
        return "timeout"
    if run.returncode != 0:
        return f"exit status {run.returncode}"
    if inv.argv[0] == "verify":
        reason = check_reports(stdout_path.read_text(encoding="utf-8"), inv.ops)
        if reason:
            return reason
    expected = golden.get(inv.key)
    if expected is None:
        return "no golden digest"
    if sha256_file(stdout_path) != expected:
        return "stdout digest differs from the golden digest"
    return None


def check_reports(text: str, expected_count: int) -> str | None:
    """A ``verify`` payload must hold expected_count reports, all passing."""
    try:
        reports = json.loads(text)
    except ValueError:
        return "verify output is not JSON"
    if len(reports) != expected_count:
        return f"{len(reports)} reports, expected {expected_count}"
    failing = [r for r in reports if r.get("outcome") != "pass"]
    if failing:
        return f"{len(failing)} failing reports, first {failing[0].get('identity')}"
    return None


def load_golden() -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        return json.load(handle)["digests"]
