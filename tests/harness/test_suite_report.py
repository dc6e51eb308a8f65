"""Suite report: golden speedup table, serial-vs-parallel byte identity,
the exact-invariant check, key-only journaling of traced payloads, and a
rerun after a crash reproducing the same bytes without re-simulating
completed cells."""

import json

import pytest

from repro.core import BASELINE, SPEAR_128
from repro.harness import (DiskCache, ExecutionPolicy, ExperimentRunner,
                           RunJournal, build_suite_report, report_cells,
                           report_trace_spec, run_cells, suite_diff,
                           suite_table)
from repro.observe import (SuiteDiff, SuiteInvariantError,
                           render_suite_report, render_suite_svg)

SCALE = 0.05
WORKLOADS = ["pointer", "matrix", "mcf"]
FAST = ExecutionPolicy(backoff=0)

#: Pinned per-workload results at scale 0.05 / interval 1000.  The
#: simulator is deterministic, so any drift here is a real behaviour
#: change — update deliberately, with the figures re-checked.
GOLDEN = {
    "pointer": (10267, 8708, "1.179"),
    "matrix": (5288, 3335, "1.586"),
    "mcf": (5929, 4205, "1.410"),
}
GOLDEN_GEOMEAN = "1.381"


def _runner(cache=None):
    return ExperimentRunner(instruction_scale=SCALE, cache=cache)


def _cells():
    return report_cells(WORKLOADS, [BASELINE, SPEAR_128],
                        report_trace_spec())


def _render(runner):
    md, suite = build_suite_report(runner, WORKLOADS)
    return md, render_suite_svg(suite)


class TestGoldenSuite:
    def test_pinned_speedup_table(self):
        suite = suite_diff(_runner(), WORKLOADS)
        assert [r["workload"] for r in suite.rows] == WORKLOADS
        for row in suite.rows:
            base, model, speedup = GOLDEN[row["workload"]]
            assert row["base_cycles"] == base
            assert row["model_cycles"] == model
            assert f"{row['speedup']:.3f}" == speedup
            assert row["cycles_saved"] == base - model
        assert f"{suite.geomean_speedup:.3f}" == GOLDEN_GEOMEAN

    def test_markdown_and_table_carry_the_golden_numbers(self):
        runner = _runner()
        md, suite = build_suite_report(runner, WORKLOADS)
        text = suite_table(suite).render()
        for _, (_, _, speedup) in GOLDEN.items():
            assert f"{speedup}x" in md and f"{speedup}x" in text
        assert f"geomean speedup: {GOLDEN_GEOMEAN}x" in md
        assert f"geomean speedup {GOLDEN_GEOMEAN}x" in text


class TestParallelByteIdentity:
    def test_serial_vs_jobs4_identical_markdown_and_svg(self, tmp_path):
        # Separate caches: identical bytes must come from determinism,
        # not from the second run reading the first run's cache.
        serial = _runner(DiskCache(tmp_path / "cache-serial"))
        run_cells(serial, _cells(), jobs=1, policy=FAST)
        md_serial, svg_serial = _render(serial)

        parallel = _runner(DiskCache(tmp_path / "cache-jobs4"))
        report = run_cells(parallel, _cells(), jobs=4, policy=FAST)
        assert report.completed and report.ok == len(_cells())
        # Every traced value came back from a worker over the result
        # pipe — the parent process simulated nothing itself.
        assert parallel.simulations == 0
        md_parallel, svg_parallel = _render(parallel)
        assert parallel.simulations == 0

        assert md_serial == md_parallel
        assert svg_serial == svg_parallel

    def test_inline_fallback_without_cache_still_identical(self, tmp_path):
        cached = _runner(DiskCache(tmp_path / "cache"))
        run_cells(cached, _cells(), jobs=1, policy=FAST)
        md_ref, svg_ref = _render(cached)

        # No cache attached: the workers' TracedRun values are the only
        # copies, and they still render the same bytes.
        plain = _runner(cache=None)
        report = run_cells(plain, _cells(), jobs=2, policy=FAST)
        assert report.completed
        md, svg = _render(plain)
        assert (md, svg) == (md_ref, svg_ref)


class TestSuiteInvariant:
    def test_validate_accepts_real_aggregate(self):
        suite = suite_diff(_runner(), WORKLOADS)
        assert suite.validate() is suite

    def test_validate_rejects_speedup_drift(self):
        suite = suite_diff(_runner(), WORKLOADS)
        suite.rows[1]["speedup"] *= 1.001
        with pytest.raises(SuiteInvariantError, match="cycle ratio"):
            suite.validate()

    def test_validate_rejects_cycles_saved_drift(self):
        suite = suite_diff(_runner(), WORKLOADS)
        suite.rows[0]["cycles_saved"] += 1
        with pytest.raises(SuiteInvariantError, match="base-model gap"):
            suite.validate()

    def test_rendering_the_tampered_suite_is_caught_upstream(self):
        # build_suite_report validates before rendering, so a consumer
        # can trust any document it emits.
        md, suite = build_suite_report(_runner(), WORKLOADS)
        assert render_suite_report(suite) == md


class TestJournalReferences:
    def test_traced_cells_journal_refs_not_payloads(self, tmp_path):
        runner = _runner(DiskCache(tmp_path / "cache"))
        cells = _cells()
        journal = RunJournal.for_run("report-suite", cells, runner,
                                     root=tmp_path / "journal")
        run_cells(runner, cells, jobs=2, policy=FAST, journal=journal)
        oks = [r for r in journal.entries()
               if r.get("event") == "cell" and r.get("status") == "ok"]
        assert len(oks) == len(cells)
        for rec in oks:
            # The record's key names the cache entry holding the payload.
            assert runner.cache.entry_size("traces", rec["key"]) > 0
        # Key-only journaling keeps every record tiny even though the
        # traced payloads are orders of magnitude larger.
        for line in journal.path.read_text().splitlines():
            assert len(line) < 1024
            assert "events" not in json.loads(line)

    def test_cell_key_distinguishes_traced_from_plain(self, tmp_path):
        from repro.harness.journal import cell_key
        from repro.harness.parallel import Cell
        runner = _runner(DiskCache(tmp_path / "cache"))
        plain = Cell("pointer", SPEAR_128)
        traced = Cell("pointer", SPEAR_128, trace=report_trace_spec())
        assert cell_key(runner, plain) != cell_key(runner, traced)
        # Without a cache the derivation must agree with the cached one
        # (default schema version), so a journal reads the same either
        # way.
        assert cell_key(_runner(), traced) == cell_key(runner, traced)


class TestCrashResume:
    def test_resume_reproduces_bytes_without_resimulating(self, monkeypatch,
                                                          tmp_path):
        cells = _cells()
        reference = _runner(DiskCache(tmp_path / "ref-cache"))
        run_cells(reference, cells, jobs=2, policy=FAST)
        md_ref, svg_ref = _render(reference)

        # Cell 3 crashes its worker on every attempt; it is charged
        # each crash and fails while the other five complete and are
        # journaled.
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=3:times=0")
        crashed = _runner(DiskCache(tmp_path / "cache"))
        journal = RunJournal.for_run("report-suite", cells, crashed,
                                     root=tmp_path / "journal")
        report = run_cells(crashed, cells, jobs=2,
                           policy=ExecutionPolicy(retries=1, backoff=0),
                           journal=journal)
        assert report.failed == 1
        assert report.ok == len(cells) - 1

        # Rerun without faults: the five finished cells are cache hits,
        # only the crashed one simulates (serial jobs=1 keeps the
        # simulation in-process so the counter can prove it).
        monkeypatch.delenv("REPRO_FAULTS")
        resumed = _runner(DiskCache(tmp_path / "cache"))
        journal2 = RunJournal.for_run("report-suite", cells, resumed,
                                      root=tmp_path / "journal")
        assert journal2.path == journal.path
        report2 = run_cells(resumed, cells, jobs=1, policy=FAST,
                            journal=journal2)
        assert report2.completed
        assert report2.ok == len(cells)
        traces = report2.cache_stats["traces"]
        assert (traces["hits"], traces["misses"],
                traces["stores"]) == (len(cells) - 1, 1, 1)
        assert resumed.simulations == 1

        md, svg = _render(resumed)
        assert resumed.simulations == 1   # rendering reused the memo
        assert md == md_ref
        assert svg == svg_ref

    def test_second_resume_is_a_no_op(self, tmp_path):
        cells = _cells()
        runner = _runner(DiskCache(tmp_path / "cache"))
        journal = RunJournal.for_run("report-suite", cells, runner,
                                     root=tmp_path / "journal")
        run_cells(runner, cells, jobs=1, policy=FAST, journal=journal)

        again = _runner(DiskCache(tmp_path / "cache"))
        report = run_cells(again, cells, jobs=1, policy=FAST,
                           journal=RunJournal.for_run(
                               "report-suite", cells, again,
                               root=tmp_path / "journal"))
        assert report.ok == len(cells)
        traces = report.cache_stats["traces"]
        assert (traces["hits"], traces["misses"],
                traces["stores"]) == (len(cells), 0, 0)
        assert again.simulations == 0
