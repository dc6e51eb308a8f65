"""Pool-worker process rules: a worker dies with its parent, a torn-down
worker ends quietly (both set up by ``parallel._init_worker``), and a
cell that really kills its worker fails alone.

All are about processes, so each test runs ``run_cells`` in a child
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


def _communicate(child: subprocess.Popen) -> tuple[str, str]:
    """The child's ``(stdout, stderr)``, killing it if it overruns."""
    try:
        return child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate(timeout=10)


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
    # torn down while the run's SIGTERM handler is installed.
    child = _child("delay:cell=0:ms=30000", "cell_timeout=1, backoff=0")
    out, err = _communicate(child)
    assert child.returncode == 0, err
    assert out.split() == ["1", "True"]     # one timeout, every cell done
    assert "KeyboardInterrupt" not in err


#: The figure-6 rows of pointer, update and mcf (nine cells) over two
#: workers, where update/SPEAR-128 ends whatever process runs it, the
#: way a segfault or the OOM killer would.  The patch is made before the
#: pool forks, so every worker inherits it.
DYING_CELL_CHILD = """
import os
from repro.harness import ExperimentRunner, cells_for, run_cells

compute = ExperimentRunner._compute
def _compute(self, cell):
    if (cell.workload, cell.config.name) == ("update", "SPEAR-128"):
        os._exit(139)
    return compute(self, cell)
ExperimentRunner._compute = _compute

runner = ExperimentRunner(instruction_scale=0.05)
cells = cells_for("figure6", ["pointer", "update", "mcf"])
report = run_cells(runner, cells, jobs=2)
failure, = report.failures
print(report.ok, report.failed, failure.kind, failure.attempts,
      failure.cell.workload, failure.cell.config.name,
      sum(runner.has(c) for c in cells))
"""


def test_cell_that_kills_its_worker_fails_alone():
    # Under the default policy the dying cell is charged one crash per
    # attempt it runs alone, fails after retries + 1 of them, and the
    # other eight cells are merged.
    child = subprocess.Popen([sys.executable, "-c", DYING_CELL_CHILD],
                             env=dict(os.environ, PYTHONPATH=SRC),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
    out, err = _communicate(child)
    assert child.returncode == 0, err
    assert out.split() == ["8", "1", "crash", "3", "update", "SPEAR-128",
                           "8"]


#: The nine figure-6 cells of pointer, update and mcf over two workers,
#: where cell 0 kills its worker on its first attempt.  Every worker
#: inherits the patch, which appends each computed cell to a file.
#: update/baseline (cell 3, the other worker's first) is made slow, so
#: it is still computing when cell 0's worker dies.
COMPUTED_ONCE_CHILD = """
import sys, time
from repro.harness import (ExecutionPolicy, ExperimentRunner, cells_for,
                           run_cells)

compute = ExperimentRunner._compute
def _compute(self, cell):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{cell.workload}/{cell.config.name}\\n")
    if (cell.workload, cell.config.name) == ("update", "baseline"):
        time.sleep(1)
    return compute(self, cell)
ExperimentRunner._compute = _compute

report = run_cells(ExperimentRunner(instruction_scale=0.05),
                   cells_for("figure6", ["pointer", "update", "mcf"]),
                   jobs=2, policy=ExecutionPolicy(backoff=0))
print(report.ok, report.retried, report.crashes)
"""


def test_crash_recomputes_no_other_cell(tmp_path):
    # Only the dead worker's attempt is lost: the other worker's
    # attempt in flight runs on, so every cell is computed once.
    log = tmp_path / "computed"
    child = subprocess.Popen(
        [sys.executable, "-c", COMPUTED_ONCE_CHILD, str(log)],
        env=dict(os.environ, PYTHONPATH=SRC,
                 REPRO_FAULTS="delay:cell=0:ms=300,crash:cell=0"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = _communicate(child)
    assert child.returncode == 0, err
    assert out.split() == ["9", "1", "1"]
    computed = log.read_text().split()
    assert len(computed) == 9 and len(set(computed)) == 9
