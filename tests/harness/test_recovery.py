"""Fault-tolerant executor: crash recovery, timeouts, retries, reruns.

Every test drives a real figure-6 matrix (3 cells, scale 0.05) through
deterministic ``REPRO_FAULTS`` injection or a refused fork, covering the
recovery paths: a worker crash is charged to its own attempt and
preserves every other one, a worker that cannot start fails its cells
instead of looping, per-cell timeout fires and retries, a rerun finds
finished cells in the cache, and the serial path honors the same
retry/keep-going semantics as the pool.
"""

import errno
import multiprocessing
import time

import pytest

from repro.core import BASELINE, SPEAR_128
from repro.harness import (Cell, DiskCache, ExecutionPolicy, ExperimentRunner,
                           FatalCellError, RunJournal, cells_for, figure6,
                           report_cells, report_trace_spec, run_cells)

FAST = ExecutionPolicy(backoff=0)


def _runner(cache=None):
    return ExperimentRunner(instruction_scale=0.05, cache=cache)


def _cells():
    return cells_for("figure6", ["pointer"])


class TestCrashRecovery:
    def test_worker_crash_recovers_without_losing_cells(self, monkeypatch):
        # Cell 1's worker hard-exits on its first attempt; a new worker
        # takes the retry and every cell still lands exactly once.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1")
        runner = _runner()
        report = run_cells(runner, _cells(), jobs=2, policy=FAST)
        assert report.completed and report.ok == 3
        assert report.crashes == 1
        assert runner.has(Cell("pointer", BASELINE))
        assert runner.has(Cell("pointer", SPEAR_128))

    def test_persistent_crash_fails_only_its_cell(self, monkeypatch):
        # Cell 1 kills its worker on every attempt.  Each death is
        # charged to it as a crash, so it fails terminally after
        # retries + 1 attempts while the other cells complete.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1:times=0")
        runner = _runner()
        report = run_cells(
            runner, _cells(), jobs=2,
            policy=ExecutionPolicy(retries=1, backoff=0))
        assert report.ok == 2 and report.failed == 1
        assert report.crashes == 2
        failure = report.failures[0]
        assert failure.cell.config.name == "SPEAR-128"
        assert failure.kind == "crash" and failure.attempts == 2
        assert runner.has(Cell("pointer", BASELINE))
        assert not runner.has(Cell("pointer", SPEAR_128))

    def test_persistent_crash_fail_fast_raises(self, monkeypatch):
        # A charged crash is a terminal failure like any other: under
        # fail-fast it aborts the run.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1:times=0")
        with pytest.raises(FatalCellError) as excinfo:
            run_cells(_runner(), _cells(), jobs=2,
                      policy=ExecutionPolicy(retries=0, backoff=0,
                                             fail_fast=True))
        failure = excinfo.value.failure
        assert failure.index == 1 and failure.kind == "crash"

    def test_crash_and_fault_share_the_retry_budget(self, monkeypatch):
        # Cell 1's worker is hard-killed on attempt 1 and raises a plain
        # fault on attempt 2.  The death is charged to cell 1 like the
        # fault, so its single retry is spent on the crash and the fault
        # fails it.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1,fail:cell=1:times=2")
        runner = _runner()
        report = run_cells(runner, _cells(), jobs=2,
                           policy=ExecutionPolicy(retries=1, backoff=0))
        assert report.ok == 2 and report.crashes == 1
        assert [(f.index, f.kind, f.attempts) for f in report.failures] \
            == [(1, "exception", 2)]

    def test_pool_retry_after_backoff_completes(self, monkeypatch):
        # Retries are resubmitted by the harvest loop once their backoff
        # deadline passes (no blocking sleep in the parent).
        monkeypatch.setenv("REPRO_FAULTS", "fail:cell=0")
        runner = _runner()
        report = run_cells(runner, _cells(), jobs=2,
                           policy=ExecutionPolicy(backoff=0.2))
        assert report.completed and report.ok == 3
        assert report.retried == 1

    def test_one_crash_charges_only_its_cell(self, tmp_path, monkeypatch):
        # Cell 0 kills its worker once, with other attempts in flight:
        # only cell 0 is charged, and every other cell finishes on its
        # first attempt, on a worker that kept running.
        names = ["pointer", "update", "mcf"]
        cells = cells_for("figure6", names)
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=0")
        runner = _runner()
        journal = RunJournal.for_run("figure6", cells, runner,
                                     root=tmp_path / "j")
        report = run_cells(runner, cells, jobs=2, policy=FAST,
                           journal=journal)
        assert report.completed and report.ok == 9
        assert report.retried == 1 and report.crashes == 1
        trail = sorted((e["index"], e["status"], e["attempts"])
                       for e in journal.entries() if e.get("event") == "cell")
        assert trail == [(0, "ok", 2), (0, "retried", 1)] \
            + [(i, "ok", 1) for i in range(1, 9)]

        monkeypatch.delenv("REPRO_FAULTS")
        reference = _runner()
        run_cells(reference, cells, jobs=1)
        assert (figure6(runner, names).table("Figure 6").render()
                == figure6(reference, names).table("Figure 6").render())

    def test_crash_keeps_other_workers_cache_counters(self, tmp_path,
                                                      monkeypatch):
        # Cell 3 kills its worker on its only attempt.  The other
        # worker's attempts run on, so the stores they made are all
        # counted: at least one artifacts store per entry on disk (two
        # workers may still build and store one workload in the
        # leaders-first tail race), and one traces store per finished
        # traced cell.  The mcf leader (cell 4) lingers after its build
        # and cell 3 dies late, so cell 4 is in flight, its artifacts
        # stored, when cell 3's worker dies.
        compute = ExperimentRunner._compute

        def _compute(self, cell):
            value = compute(self, cell)
            if (cell.workload, cell.config.name) == ("mcf", "baseline"):
                time.sleep(1.5)
            return value

        monkeypatch.setattr(ExperimentRunner, "_compute", _compute)
        cache = DiskCache(tmp_path / "cache")
        cells = report_cells(["pointer", "matrix", "mcf"],
                             [BASELINE, SPEAR_128], report_trace_spec())
        monkeypatch.setenv("REPRO_FAULTS",
                           "delay:cell=3:ms=700,crash:cell=3:times=0")
        report = run_cells(_runner(cache=cache), cells, jobs=2,
                           policy=ExecutionPolicy(retries=0, backoff=0))
        assert report.ok == 5 and report.crashes == 1
        stats = report.cache_stats
        on_disk = len(list((tmp_path / "cache" / "artifacts").rglob("*.pkl")))
        assert on_disk and stats["artifacts"]["stores"] >= on_disk
        assert stats["traces"]["stores"] == 5


class TestForkFailure:
    """A worker is started when an attempt finds none idle, so a fork
    refused under a pids or memory limit raises there.  The attempt
    being handed out is charged a crash, so the retry budget bounds the
    loop and the run report names the failure."""

    @staticmethod
    def _refuse_forks(monkeypatch, calls):
        """Make the listed worker starts (1-based) fail; ``None``, all."""
        start = multiprocessing.Process.start
        count = []

        def _start(self):
            count.append(1)
            if calls is None or len(count) in calls:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            start(self)

        monkeypatch.setattr(multiprocessing.Process, "start", _start)

    def test_refused_fork_fails_every_cell(self, monkeypatch):
        self._refuse_forks(monkeypatch, None)
        report = run_cells(_runner(), _cells(), jobs=2,
                           policy=ExecutionPolicy(retries=1, backoff=0))
        assert report.ok == 0 and report.failed == 3
        assert [(f.index, f.kind, f.attempts) for f in report.failures] \
            == [(0, "crash", 2), (1, "crash", 2), (2, "crash", 2)]
        assert "Resource temporarily unavailable" in report.failures[0].error
        assert report.crashes == 6

    def test_refused_fork_fail_fast_raises(self, monkeypatch):
        self._refuse_forks(monkeypatch, None)
        with pytest.raises(FatalCellError) as excinfo:
            run_cells(_runner(), _cells(), jobs=2,
                      policy=ExecutionPolicy(retries=0, backoff=0,
                                             fail_fast=True))
        failure = excinfo.value.failure
        assert failure.index == 0 and failure.kind == "crash"

    @pytest.mark.parametrize("calls", [{1}, {2}])
    def test_one_refused_fork_is_retried(self, monkeypatch, calls):
        # {2}: the first worker starts and the second does not; the
        # charged cell is retried and no worker outlives the run.
        self._refuse_forks(monkeypatch, calls)
        runner = _runner()
        report = run_cells(runner, _cells(), jobs=2, policy=FAST)
        assert report.completed and report.ok == 3
        assert report.retried == 1 and report.crashes == 1
        assert multiprocessing.active_children() == []

        monkeypatch.undo()
        reference = _runner()
        run_cells(reference, _cells(), jobs=1)
        assert (figure6(runner, ["pointer"]).table("Figure 6").render()
                == figure6(reference, ["pointer"]).table("Figure 6").render())


class TestTimeout:
    def test_timeout_fires_and_retry_succeeds(self, monkeypatch):
        # Cell 0 sleeps far past the timeout on attempt 1 only; the
        # attempt is abandoned (its worker killed) and the retry
        # completes.
        monkeypatch.setenv("REPRO_FAULTS", "delay:cell=0:ms=30000")
        runner = _runner()
        report = run_cells(
            runner, _cells(), jobs=2,
            policy=ExecutionPolicy(cell_timeout=1.0, backoff=0))
        assert report.completed and report.ok == 3
        assert report.timeouts >= 1
        assert report.retried >= 1

    @pytest.mark.parametrize("delay_ms, timeout", [(1200, 2.5), (1500, 2.5)])
    def test_queue_wait_does_not_count_against_timeout(self, monkeypatch,
                                                       delay_ms, timeout):
        # Every attempt sleeps delay_ms and two workers serve three
        # cells, so the queued third cell waits about that long before
        # it even starts executing.  The timeout clock must start at
        # execution, not submission: with retries=0 a false expiry would
        # be a terminal failure.
        monkeypatch.setenv("REPRO_FAULTS", f"delay:ms={delay_ms}:times=0")
        runner = _runner()
        report = run_cells(
            runner, _cells(), jobs=2,
            policy=ExecutionPolicy(cell_timeout=timeout, retries=0,
                                   backoff=0))
        assert report.completed and report.ok == 3
        assert report.timeouts == 0 and report.retried == 0

    def test_timeout_exhaustion_is_terminal_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "delay:cell=0:ms=30000:times=0")
        runner = _runner()
        report = run_cells(
            runner, _cells(), jobs=2,
            policy=ExecutionPolicy(cell_timeout=0.5, retries=0, backoff=0))
        assert report.failed == 1
        assert report.failures[0].kind == "timeout"


class TestSerialSemantics:
    def test_serial_retry_then_ok(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fail:cell=0")
        runner = _runner()
        report = run_cells(runner, _cells(), jobs=1, policy=FAST)
        assert report.completed and report.ok == 3
        assert report.retried == 1
        assert runner.simulations == 3

    def test_serial_keep_going_records_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fail:cell=1:times=0")
        runner = _runner()
        report = run_cells(runner, _cells(), jobs=1,
                           policy=ExecutionPolicy(retries=1, backoff=0))
        assert report.ok == 2 and report.failed == 1
        failure = report.failures[0]
        assert failure.kind == "exception" and failure.attempts == 2
        assert "injected fault" in failure.error

    def test_serial_fail_fast_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fail:cell=0:times=0")
        with pytest.raises(FatalCellError) as excinfo:
            run_cells(_runner(), _cells(), jobs=1,
                      policy=ExecutionPolicy(retries=0, backoff=0,
                                             fail_fast=True))
        assert excinfo.value.report.failed == 1
        assert excinfo.value.failure.index == 0

    def test_serial_injected_crash_is_recoverable(self, monkeypatch):
        # In-process, a crash clause raises instead of killing the run.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=2")
        report = run_cells(_runner(), _cells(), jobs=1, policy=FAST)
        assert report.completed and report.retried == 1

    def test_serial_injected_crash_has_the_pool_kind(self, monkeypatch):
        # One fault spec names the same failure kind, and counts the
        # same crashes, at any job count.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=2:times=0")
        report = run_cells(_runner(), _cells(), jobs=1,
                           policy=ExecutionPolicy(retries=1, backoff=0))
        assert report.ok == 2 and report.failed == 1
        assert report.crashes == 2
        failure = report.failures[0]
        assert failure.kind == "crash" and failure.attempts == 2


class TestJournalAndResume:
    def test_interrupted_run_resumes_byte_identical(self, tmp_path,
                                                    monkeypatch):
        # The acceptance scenario: a run with a persistently-crashing
        # cell completes keep-going with one failure; a plain rerun
        # finds the ok cells in the cache, recomputes only the failed
        # cell, and renders byte-identically to an uninterrupted run.
        cache = DiskCache(tmp_path / "cache")
        cells = _cells()
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1:times=0")
        broken = _runner(cache=cache)
        journal = RunJournal.for_run("figure6", cells, broken,
                                     root=tmp_path / "j")
        first = run_cells(broken, cells, jobs=2,
                          policy=ExecutionPolicy(retries=1, backoff=0),
                          journal=journal)
        assert first.failed == 1 and first.ok == 2

        monkeypatch.delenv("REPRO_FAULTS")
        resumed = _runner(cache=cache)
        journal2 = RunJournal.for_run("figure6", cells, resumed,
                                      root=tmp_path / "j")
        assert journal2.path == journal.path
        second = run_cells(resumed, cells, jobs=2, journal=journal2)
        assert second.ok == 3 and second.completed
        results = second.cache_stats["results"]
        assert (results["hits"], results["misses"],
                results["stores"]) == (2, 1, 1)

        reference = _runner()
        run_cells(reference, cells, jobs=1)
        assert (figure6(resumed, ["pointer"]).table("Figure 6").render()
                == figure6(reference, ["pointer"]).table("Figure 6").render())

    def test_journal_records_attempt_trail(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fail:cell=0")
        runner = _runner()
        journal = RunJournal.for_run("figure6", _cells(), runner,
                                     root=tmp_path / "j")
        run_cells(runner, _cells(), jobs=1, policy=FAST, journal=journal)
        statuses = [e["status"] for e in journal.entries()
                    if e.get("event") == "cell"]
        assert statuses.count("retried") == 1
        assert statuses.count("ok") == 3
        report = [e for e in journal.entries() if e.get("event") == "end"]
        assert report and report[-1]["report"]["retried"] == 1

    def test_journal_records_charged_crash(self, tmp_path, monkeypatch):
        # Cell 1 kills its worker on every attempt: each charged death
        # is a cell record of kind "crash", the last one terminal.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1:times=0")
        runner = _runner()
        journal = RunJournal.for_run("figure6", _cells(), runner,
                                     root=tmp_path / "j")
        run_cells(runner, _cells(), jobs=2,
                  policy=ExecutionPolicy(retries=1, backoff=0),
                  journal=journal)
        crashes = [(e["index"], e["status"]) for e in journal.entries()
                   if e.get("event") == "cell" and e.get("kind") == "crash"]
        assert crashes == [(1, "retried"), (1, "failed")]

    def test_charged_crash_names_the_exit_code(self, tmp_path, monkeypatch):
        # The injected crash ends its worker with os._exit(13): the
        # failure's error is that exit status, in the run report and in
        # the journal.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1:times=0")
        runner = _runner()
        journal = RunJournal.for_run("figure6", _cells(), runner,
                                     root=tmp_path / "j")
        report = run_cells(runner, _cells(), jobs=2,
                           policy=ExecutionPolicy(retries=0, backoff=0),
                           journal=journal)
        error = report.failures[0].error
        assert error == "worker exit code 13"
        assert ("  FAILED pointer/SPEAR-128: crash after 1 attempt(s) — "
                + error) in report.render()
        assert [e["error"] for e in journal.entries()
                if e.get("event") == "cell"
                and e.get("kind") == "crash"] == [error]
