"""Pool-worker start-up rules (``parallel._init_worker``): a worker dies
with its parent, and a torn-down worker ends quietly.

Both are about processes, so each test runs ``run_cells`` in a child
interpreter and watches it from outside.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Three pointer cells (the figure-6 row) at scale 0.05 over two workers.
CHILD = """
from repro.harness import (ExecutionPolicy, ExperimentRunner, cells_for,
                           run_cells)
report = run_cells(ExperimentRunner(instruction_scale=0.05),
                   cells_for("figure6", ["pointer"]), jobs=2,
                   policy=ExecutionPolicy({policy}))
print(report.timeouts, report.completed)
"""


def _child(faults: str, policy: str = "", *, stdout=subprocess.PIPE,
           stderr=subprocess.PIPE) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_FAULTS=faults)
    return subprocess.Popen([sys.executable, "-c", CHILD.format(policy=policy)],
                            env=env, stdout=stdout, stderr=stderr, text=True)


def _stat(pid: int) -> tuple[str, int] | None:
    """``(state, ppid)`` of a live process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None and stat[1] == pid:
                out.append(int(entry))
    return out


def _alive(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_killed_parent_leaves_no_workers(tmp_path):
    # Every attempt sleeps 20 s, so the workers are busy when their
    # parent is killed outright and never gets to shut its pool down.
    # Output goes to a file: a surviving worker would hold a pipe open.
    err = tmp_path / "stderr"
    with open(err, "w") as fh:
        child = _child("delay:ms=20000:times=0", stdout=subprocess.DEVNULL,
                       stderr=fh)
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert child.poll() is None, err.read_text()
            assert time.monotonic() < deadline, "no pool workers appeared"
            time.sleep(0.05)
            workers = _children(child.pid)
        # A worker arms its parent-death signal in its initializer, just
        # after the fork: give both time to get there.
        time.sleep(1)
        child.kill()
        child.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(_alive(w) for w in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [w for w in workers if _alive(w)] == []
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=10)
        for w in workers:
            if _alive(w):
                os.kill(w, signal.SIGKILL)


def test_timed_out_pool_teardown_writes_no_keyboard_interrupt():
    # Cell 0's first attempt sleeps past the 1 s timeout, so the pool is
    # torn down with SIGTERM while the run's SIGTERM handler is installed.
    child = _child("delay:cell=0:ms=30000", "cell_timeout=1, backoff=0")
    try:
        out, err = child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate(timeout=10)
    assert child.returncode == 0, err
    assert out.split() == ["1", "True"]     # one timeout, every cell done
    assert "KeyboardInterrupt" not in err
