"""Graceful interruption of ``run_cells``: SIGINT/SIGTERM mid-run must
journal an ``interrupted`` end record, with completed cells journaled and
cached, so a rerun picks up exactly where the interrupt landed."""

import os
import signal

import pytest

from repro.core import BASELINE, SPEAR_128
from repro.harness import (Cell, DiskCache, ExperimentRunner, RunJournal,
                           run_cells)
from repro.harness import parallel as parallel_mod

CELLS = [Cell("pointer", BASELINE), Cell("pointer", SPEAR_128)]


def _runner(tmp_path):
    return ExperimentRunner(instruction_scale=0.05,
                            cache=DiskCache(tmp_path / "cache"))


def _interrupt_after(monkeypatch, n, exc=KeyboardInterrupt):
    """Patch the serial compute dispatch to blow up on the (n+1)-th cell."""
    real = parallel_mod.timed_cell
    calls = {"n": 0}

    def boom(runner, cell):
        if calls["n"] >= n:
            if exc is KeyboardInterrupt:
                raise KeyboardInterrupt
            os.kill(os.getpid(), signal.SIGTERM)   # routed by _graceful_term
        calls["n"] += 1
        return real(runner, cell)

    monkeypatch.setattr(parallel_mod, "timed_cell", boom)


class TestInterrupt:
    def test_ctrl_c_journals_interrupted_end(self, tmp_path, monkeypatch):
        runner = _runner(tmp_path)
        journal = RunJournal(tmp_path / "run.jsonl")
        _interrupt_after(monkeypatch, 1)
        with pytest.raises(KeyboardInterrupt):
            run_cells(runner, CELLS, jobs=1, journal=journal)
        events = journal.entries()
        assert events[-1]["event"] == "end"
        assert events[-1]["report"]["interrupted"] is True
        assert events[-1]["report"]["ok"] == 1
        # The completed cell was journaled and cached before the cut.
        oks = [e["key"] for e in events
               if e["event"] == "cell" and e["status"] == "ok"]
        assert len(oks) == 1
        assert runner.cache.entry_size("results", oks[0]) > 0

    def test_sigterm_routes_through_graceful_unwind(self, tmp_path,
                                                    monkeypatch):
        runner = _runner(tmp_path)
        journal = RunJournal(tmp_path / "run.jsonl")
        before = signal.getsignal(signal.SIGTERM)
        _interrupt_after(monkeypatch, 1, exc=signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            run_cells(runner, CELLS, jobs=1, journal=journal)
        # The previous handler is restored on the way out.
        assert signal.getsignal(signal.SIGTERM) is before
        assert journal.entries()[-1]["report"]["interrupted"] is True

    def test_resume_after_interrupt_skips_completed(self, tmp_path,
                                                    monkeypatch):
        runner = _runner(tmp_path)
        journal = RunJournal(tmp_path / "run.jsonl")
        _interrupt_after(monkeypatch, 1)
        with pytest.raises(KeyboardInterrupt):
            run_cells(runner, CELLS, jobs=1, journal=journal)
        monkeypatch.undo()
        # Fresh runner, same journal + cache: the first cell is a cache
        # hit and only the second one runs.
        resumed = ExperimentRunner(instruction_scale=0.05,
                                   cache=DiskCache(tmp_path / "cache"))
        report = run_cells(resumed, CELLS, jobs=1, journal=journal)
        assert report.interrupted is False
        assert report.ok == 2
        results = report.cache_stats["results"]
        assert (results["hits"], results["misses"],
                results["stores"]) == (1, 1, 1)
        assert resumed.simulations == 1
        assert journal.entries()[-1]["report"]["interrupted"] is False

    def test_completed_results_merge_despite_interrupt(self, tmp_path,
                                                       monkeypatch):
        runner = _runner(tmp_path)
        _interrupt_after(monkeypatch, 1)
        with pytest.raises(KeyboardInterrupt):
            run_cells(runner, CELLS, jobs=1)
        # Cell 0 completed before the cut and still seeded the memo.
        sims = runner.simulations
        runner.run("pointer", BASELINE)
        assert runner.simulations == sims
