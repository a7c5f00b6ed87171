"""Run one child process and account for it: wall time, exit code, peak RSS."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from dataclasses import dataclass

CHILD_TIMEOUT_S = 120.0  # no workload command takes more than a few seconds


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    stdout: str
    stderr: str


def cli_env(root: str) -> dict:
    """Environment for children: the package is imported from the checkout's src."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def run_child(argv: list, env: dict, scratch: str) -> ChildResult:
    """Spawn argv, wait for it, and time it from spawn to exit.

    Output goes to files in scratch so a full pipe can never stall the child;
    peak RSS comes from the rusage that wait4 returns for this child alone.
    """
    out_path = os.path.join(scratch, "child.out")
    err_path = os.path.join(scratch, "child.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - started
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    # ru_maxrss is in KiB on Linux
    return ChildResult(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, stdout, stderr)


def cli_argv(args) -> list:
    return [sys.executable, "-m", "minregion", *args]
