"""Run journal: append/read round trip, run keys, and reruns that find
finished cells in the cache."""

import json

import pytest

from repro.core import BASELINE, SPEAR_128
from repro.fuzz.schedule import GuidedCampaignSpec, resolve_arm
from repro.harness import (Cell, DiskCache, ExperimentRunner, RunJournal,
                           ablate_policy_cells, cells_for, list_journals,
                           report_cells, report_trace_spec, run_cells)
from repro.harness.journal import TornJournalWarning, cell_key, run_key
from repro.memory.hierarchy import FIG9_LATENCIES


def _runner(scale=0.05, cache=None):
    return ExperimentRunner(instruction_scale=scale, cache=cache)


class TestRecords:
    def test_append_and_read_round_trip(self, tmp_path):
        j = RunJournal(tmp_path / "r.jsonl", experiment="figure6")
        j.record_start(3)
        j.record_cell(index=0, key="k0", workload="pointer",
                      config="baseline", status="ok", attempts=1,
                      elapsed=0.5)
        j.record_cell(index=1, key="k1", workload="pointer",
                      config="SPEAR-128", status="failed", attempts=3,
                      kind="timeout", error="exceeded 5s")
        j.record_end({"ok": 1, "failed": 1})
        events = j.entries()
        assert [e["event"] for e in events] == ["start", "cell", "cell",
                                                "end"]
        assert events[0]["experiment"] == "figure6"
        assert events[2]["kind"] == "timeout"
        assert events[3]["report"]["failed"] == 1

    def test_torn_tail_is_skipped(self, tmp_path):
        j = RunJournal(tmp_path / "r.jsonl")
        j.record_start(1)
        with j.path.open("a") as fh:
            fh.write('{"event": "cell", "trunca')   # killed mid-append
        assert [e["event"] for e in j.entries()] == ["start"]

    def test_torn_tail_warns_and_names_the_line(self, tmp_path):
        j = RunJournal(tmp_path / "r.jsonl")
        j.record_start(1)
        with j.path.open("a") as fh:
            fh.write('{"event": "cell", "trunca')
        with pytest.warns(TornJournalWarning, match="line 2"):
            j.entries()

    def test_non_record_line_is_skipped_with_warning(self, tmp_path):
        j = RunJournal(tmp_path / "r.jsonl")
        j.record_start(1)
        with j.path.open("a") as fh:
            fh.write('[1, 2, 3]\n')      # valid JSON, not a record
        with pytest.warns(TornJournalWarning, match="non-record"):
            assert [e["event"] for e in j.entries()] == ["start"]

    def test_intact_records_survive_a_torn_middle_read(self, tmp_path):
        # Only the torn line is lost; records on either side are kept.
        j = RunJournal(tmp_path / "r.jsonl")
        j.record_start(2)
        with j.path.open("a") as fh:
            fh.write('{"event": "cell", "ind\n')
        j.record_cell(index=1, key="k1", workload="w", config="c",
                      status="ok", attempts=1)
        with pytest.warns(TornJournalWarning):
            events = j.entries()
        assert [e["event"] for e in events] == ["start", "cell"]
        assert events[1]["key"] == "k1" and events[1]["status"] == "ok"

    def test_missing_file_reads_empty(self, tmp_path):
        j = RunJournal(tmp_path / "nope.jsonl")
        assert j.entries() == []


class TestKeys:
    def test_run_key_stable_and_distinct(self, tmp_path):
        runner = _runner()
        a = cells_for("figure6", ["pointer"])
        assert run_key("figure6", a, runner) == run_key("figure6", a, runner)
        assert (run_key("figure6", a, runner)
                != run_key("figure6", cells_for("figure6", ["update"]),
                           runner))
        assert (run_key("figure6", a, runner)
                != run_key("figure8", a, runner))

    def test_cell_key_normalizes_latency_override(self):
        runner = _runner()
        plain = Cell("pointer", BASELINE)
        noop = Cell("pointer", BASELINE, BASELINE.latencies)
        assert cell_key(runner, plain) == cell_key(runner, noop)

    def test_cell_key_matches_cache_key_derivation(self, tmp_path):
        # The journal key must be exactly the key the cache stores the
        # cell's value under — including a cache built with a
        # non-default schema_version; the global-constant fallback
        # applies only when no cache is attached.
        cache = DiskCache(tmp_path / "c", schema_version=7)
        runner = _runner(cache=cache)
        cell = Cell("pointer", BASELINE)
        _, payload = runner.entry(cell)
        assert cell_key(runner, cell) == cache.key_for("results", payload)
        assert cell_key(_runner(), cell) != cell_key(runner, cell)

    def test_for_run_same_invocation_same_file(self, tmp_path):
        runner = _runner()
        cells = cells_for("figure6", ["pointer"])
        a = RunJournal.for_run("figure6", cells, runner, root=tmp_path)
        b = RunJournal.for_run("figure6", cells, runner, root=tmp_path)
        assert a.path == b.path


#: ``cell_key`` values of mcf's cells at scale 0.2.  A warm cache and the
#: journals written by an earlier tree stay valid only while these hold,
#: so a harness refactor must leave every one unchanged.
PINNED_CELL_KEYS = {
    "figure6/baseline":
        "01137c2e59f5dffa836b10e85ebd765fcdebf35cb55261ee88b980be453eed69",
    "figure6/SPEAR-128":
        "b2529a5b8f903d901827ba1e450cf7382f901ad31425b6d796f5e2ac9be526a4",
    "figure6/SPEAR-256":
        "5212ce3bb093d7a8c52d4d68d63258926f550543c7fd64aced48def5fadd13d0",
    "figure9/SPEAR-128/200":
        "f063b66e42876a0035e0b4cce6757447fca6d761221f543dfe5b5cc8a6f07358",
    "report/SPEAR-128":
        "d39b7103f789ca63d09b55562eb59ff16fbb5545e25f6cc91b60e939bb9c43ed",
    "ablate/baseline/None":
        "01137c2e59f5dffa836b10e85ebd765fcdebf35cb55261ee88b980be453eed69",
    "ablate/SPEAR-128/fixed":
        "b2529a5b8f903d901827ba1e450cf7382f901ad31425b6d796f5e2ac9be526a4",
    "ablate/SPEAR-128/adaptive-epoch":
        "7705596373f04d93f3ecc5e9207185996b386227559dd4b254b83e7f36fb8358",
    "ablate/SPEAR-128/adaptive-phase":
        "413f8b345e8e0d13af0acc9c28e02faa23db3deae7190689c03dea4af6cccaac",
    "fuzz:v1:2026:0":
        "99ac61f7551b398ea6cdfeddc762b04c1891da22b4513c0a1f8bdab55b18cdb6",
    "fuzz:v1:2026:1":
        "26debc9e0207e1a461c30c98cc142faeca3fc5a73d6d7c042d93314f849f8f78",
}

PINNED_FIGURE6_RUN_KEY = \
    "3d5f7a292bcdd700f779edaf4828c98aa7f36fe76c4307c4baf6d8c4f0575c17"

#: ``cell_key`` values of mcf's traced report cells at scale 0.2 under
#: each adaptive policy: the payload that carries both ``trace`` and
#: ``policy``.  A baseline resolves to the fixed policy under either.
PINNED_TRACED_POLICY_KEYS = {
    "adaptive-epoch/baseline":
        "7325b1a97b0fe277df6a312c1d0e0922515d2edee66b55afb97423ea7dbefbe0",
    "adaptive-epoch/SPEAR-128":
        "2d7e12b0c8ed2a3d06f03fb794bf3f05426c77531b41b12ef5ff409216d0359e",
    "adaptive-phase/baseline":
        "7325b1a97b0fe277df6a312c1d0e0922515d2edee66b55afb97423ea7dbefbe0",
    "adaptive-phase/SPEAR-128":
        "48648859608be36263eac8e92615a1daaf141766b5c8b7eb01ac193e2f143441",
}


def _pinned_cells() -> dict:
    cells = {f"figure6/{c.config.name}": c
             for c in cells_for("figure6", ["mcf"])}
    longest = FIG9_LATENCIES[-1]
    cells[f"figure9/SPEAR-128/{longest.memory}"] = next(
        c for c in cells_for("figure9", ["mcf"])
        if c.config == SPEAR_128 and c.latencies == longest)
    traced = report_cells(["mcf"], [BASELINE, SPEAR_128],
                          report_trace_spec())
    cells["report/SPEAR-128"] = traced[1]
    for c in ablate_policy_cells(["mcf"]):
        cells[f"ablate/{c.config.name}/{c.policy}"] = c
    spec = GuidedCampaignSpec(seed=2026, count=2)
    for c in (spec.cell(resolve_arm("default"), i) for i in range(2)):
        cells[c.workload] = c
    return cells


class TestPinnedKeys:
    """Cache and journal keys are part of the on-disk format."""

    @pytest.mark.parametrize("cached", [False, True])
    def test_cell_keys_unchanged(self, tmp_path, cached):
        cache = DiskCache(tmp_path / "c") if cached else None
        runner = _runner(scale=0.2, cache=cache)
        got = {label: cell_key(runner, cell)
               for label, cell in _pinned_cells().items()}
        assert got == PINNED_CELL_KEYS

    def test_figure6_run_key_unchanged(self):
        runner = _runner(scale=0.2)
        assert run_key("figure6", cells_for("figure6", ["mcf"]),
                       runner) == PINNED_FIGURE6_RUN_KEY

    @pytest.mark.parametrize("cached", [False, True])
    def test_traced_policy_cell_keys_unchanged(self, tmp_path, cached):
        cache = DiskCache(tmp_path / "c") if cached else None
        runner = _runner(scale=0.2, cache=cache)
        spec = report_trace_spec()
        got = {f"{p}/{c.config.name}": cell_key(runner, c)
               for p in ("adaptive-epoch", "adaptive-phase")
               for c in report_cells(["mcf"], [BASELINE, SPEAR_128], spec,
                                     policy=p)}
        assert got == PINNED_TRACED_POLICY_KEYS
        fixed = report_cells(["mcf"], [BASELINE], spec)[0]
        assert (cell_key(runner, fixed)
                == PINNED_TRACED_POLICY_KEYS["adaptive-epoch/baseline"])


class TestResume:
    """A rerun resumes from the cache, whatever its journal says."""

    def test_resume_skips_journaled_cells(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cells = cells_for("figure6", ["pointer"])
        first = _runner(cache=cache)
        journal = RunJournal.for_run("figure6", cells, first,
                                     root=tmp_path / "j")
        run_cells(first, cells, jobs=1, journal=journal)

        second = _runner(cache=cache)
        report = run_cells(second, cells, jobs=1, journal=journal)
        results = report.cache_stats["results"]
        assert (results["hits"], results["misses"],
                results["stores"]) == (len(cells), 0, 0)
        assert report.ok == len(cells)
        assert second.simulations == 0
        assert second.has(Cell("pointer", BASELINE))

    def test_resume_without_cache_recomputes(self, tmp_path):
        cells = cells_for("figure6", ["pointer"])
        first = _runner()
        journal = RunJournal.for_run("figure6", cells, first,
                                     root=tmp_path / "j")
        run_cells(first, cells, jobs=1, journal=journal)

        # A journaled ok without a cache to read it from must recompute.
        second = _runner()
        report = run_cells(second, cells, jobs=1, journal=journal)
        assert report.ok == len(cells)
        assert second.simulations == len(cells)


class TestListing:
    def test_list_journals(self, tmp_path):
        assert list_journals(tmp_path / "missing") == []
        (tmp_path / "a.jsonl").write_text(
            json.dumps({"event": "start"}) + "\n")
        (tmp_path / "b.jsonl").write_text(
            json.dumps({"event": "start"}) + "\n")
        found = {j.run_id for j in list_journals(tmp_path)}
        assert found == {"a", "b"}
