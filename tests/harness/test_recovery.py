"""Fault-tolerant executor: crash recovery, timeouts, retries, resume.

Every test drives a real figure-6 matrix (3 cells, scale 0.05) through
deterministic ``REPRO_FAULTS`` injection, covering the ISSUE's recovery
paths: worker crash preserves completed cells, per-cell timeout fires
and retries, ``--resume`` skips journaled cells, and the serial path
honors the same retry/keep-going semantics as the pool.
"""

import pytest

from repro.core import BASELINE, SPEAR_128
from repro.harness import (DiskCache, ExecutionPolicy, ExperimentRunner,
                           FatalCellError, RunJournal, cells_for, figure6,
                           run_cells)

FAST = ExecutionPolicy(backoff=0)


def _runner(cache=None):
    return ExperimentRunner(instruction_scale=0.05, cache=cache)


def _cells():
    return cells_for("figure6", ["pointer"])


class TestCrashRecovery:
    def test_worker_crash_recovers_without_losing_cells(self, monkeypatch):
        # Cell 1's worker hard-exits on its first attempt; the pool is
        # rebuilt and every cell — including already-completed ones —
        # still lands exactly once.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1")
        runner = _runner()
        report = run_cells(runner, _cells(), jobs=2, policy=FAST)
        assert report.completed and report.ok == 3
        assert report.pool_rebuilds >= 1
        assert runner.has_result("pointer", BASELINE)
        assert runner.has_result("pointer", SPEAR_128)

    def test_persistent_crash_degrades_to_serial_keep_going(self,
                                                            monkeypatch):
        # Unlimited crashing exhausts the rebuild budget; the serial
        # fallback converts the crash into a terminal CellFailure while
        # the other cells still complete.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1:times=0")
        runner = _runner()
        report = run_cells(
            runner, _cells(), jobs=2,
            policy=ExecutionPolicy(retries=1, backoff=0, max_pool_rebuilds=1))
        assert report.degraded
        assert report.ok == 2 and report.failed == 1
        assert report.failures[0].cell.config.name == "SPEAR-128"
        assert runner.has_result("pointer", BASELINE)
        assert not runner.has_result("pointer", SPEAR_128)


    def test_crash_does_not_consume_retry_budget(self, monkeypatch):
        # Cell 1's worker is hard-killed on attempt 1 and raises a plain
        # fault on attempt 2.  The crash must charge only the rebuild
        # budget, leaving the single retry free to absorb the real
        # exception — previously the BrokenProcessPool burned it.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1,fail:cell=1:times=2")
        runner = _runner()
        report = run_cells(runner, _cells(), jobs=2,
                           policy=ExecutionPolicy(retries=1, backoff=0))
        assert report.completed and report.ok == 3
        assert report.pool_rebuilds >= 1
        assert report.retried == 1

    def test_pool_retry_after_backoff_completes(self, monkeypatch):
        # Retries are resubmitted by the harvest loop once their backoff
        # deadline passes (no blocking sleep in the parent).
        monkeypatch.setenv("REPRO_FAULTS", "fail:cell=0")
        runner = _runner()
        report = run_cells(runner, _cells(), jobs=2,
                           policy=ExecutionPolicy(backoff=0.2))
        assert report.completed and report.ok == 3
        assert report.retried == 1


class TestTimeout:
    def test_timeout_fires_and_retry_succeeds(self, monkeypatch):
        # Cell 0 sleeps far past the timeout on attempt 1 only; the
        # attempt is abandoned (pool teardown) and the retry completes.
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
        # be a terminal failure.  The executor reports the third attempt
        # as running while it still waits in its call queue, so at
        # 1500 ms a clock started by that report alone expires.
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
            policy=ExecutionPolicy(cell_timeout=0.5, retries=0, backoff=0,
                                   max_pool_rebuilds=0))
        assert report.failed == 1
        assert report.failures[0].kind == "timeout"


class TestRebuildBudget:
    def test_success_rearms_the_rebuild_budget(self, monkeypatch):
        # One crash with no rebuilds to spare degrades the run to
        # in-process execution, but only until the first success there:
        # the budget counts the rebuilds since the last success, so the
        # rest of the run goes back to the pool.
        names = ["pointer", "update", "mcf"]
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=0")
        runner = _runner()
        report = run_cells(runner, cells_for("figure6", names), jobs=2,
                           policy=ExecutionPolicy(backoff=0,
                                                  max_pool_rebuilds=0))
        assert report.completed
        assert report.degraded
        assert runner.simulations < 9

        monkeypatch.delenv("REPRO_FAULTS")
        reference = _runner()
        run_cells(reference, cells_for("figure6", names), jobs=1)
        assert (figure6(runner, names).table("Figure 6").render()
                == figure6(reference, names).table("Figure 6").render())


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


class TestJournalAndResume:
    def test_interrupted_run_resumes_byte_identical(self, tmp_path,
                                                    monkeypatch):
        # The acceptance scenario: a run with a persistently-crashing
        # cell completes keep-going with one failure; a later --resume
        # run restores the ok cells from journal+cache, recomputes only
        # the failed cell, and renders byte-identically to an
        # uninterrupted run.
        cache = DiskCache(tmp_path / "cache")
        cells = _cells()
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1:times=0")
        broken = _runner(cache=cache)
        journal = RunJournal.for_run("figure6", cells, broken,
                                     root=tmp_path / "j")
        first = run_cells(
            broken, cells, jobs=2,
            policy=ExecutionPolicy(retries=1, backoff=0, max_pool_rebuilds=1),
            journal=journal)
        assert first.failed == 1 and first.ok == 2

        monkeypatch.delenv("REPRO_FAULTS")
        resumed = _runner(cache=cache)
        journal2 = RunJournal.for_run("figure6", cells, resumed,
                                      root=tmp_path / "j")
        assert journal2.path == journal.path
        second = run_cells(resumed, cells, jobs=2, journal=journal2,
                           resume=True)
        assert second.resumed == 2 and second.ok == 1
        assert second.completed

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
