"""Fixtures every test under tests/ runs with."""

import os
import signal
from pathlib import Path

import pytest

# Linux lists a task's children, running or exited and not yet reaped, in
# /proc/<pid>/task/<tid>/children; elsewhere the check below is skipped.
_TASKS = Path("/proc/self/task")


def _children() -> list:
    pids = []
    for task in _TASKS.glob("*/children"):
        pids += map(int, task.read_text().split())
    return pids


def _state(pid: int) -> str:
    # the field after "(comm)" in /proc/<pid>/stat; comm may hold spaces
    try:
        return Path("/proc/%d/stat" % pid).read_text().rpartition(")")[2].split()[0]
    except OSError:
        return "?"


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped, then
    kill and reap what it left, so that the next test starts clean."""
    yield
    left = _children()
    if not left:
        return
    described = ["%d (%s)" % (pid, "unreaped" if _state(pid) == "Z"
                              else "running") for pid in left]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped meanwhile by its owner
    pytest.fail("test left child processes: %s" % ", ".join(described))
