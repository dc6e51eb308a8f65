"""Campaign driver: byte-determinism across job counts, resume, triage."""

import hashlib
import json

import pytest

from repro.fuzz import Arm, GuidedCampaignSpec, run_guided_campaign, triage
from repro.fuzz.generator import KernelDials
from repro.harness import DiskCache, ExecutionPolicy, ExperimentRunner
from repro.harness.journal import RunJournal, cell_key

FAST = ExecutionPolicy(retries=1, backoff=0, max_pool_rebuilds=1)
#: small + cheap: tiny footprints, short programs, no sweep sampling
SMALL = KernelDials(mem_words=512, target_instructions=600)
#: the one generation arm of every blind campaign here
ARM = Arm("small", dials=SMALL)


def _spec(count=4, seed=71, **kw):
    kw.setdefault("sweep_every", 0)
    return GuidedCampaignSpec(seed=seed, count=count, arms=(ARM,), **kw)


def _cells(spec):
    return [spec.cell(ARM, i) for i in range(spec.count)]


def _runner(tmp_path, sub="cache"):
    return ExperimentRunner(cache=DiskCache(tmp_path / sub))


class TestDeterminism:
    def test_jobs_do_not_change_the_bytes(self, tmp_path):
        spec = _spec()
        serial = run_guided_campaign(spec, _runner(tmp_path, "c1"), jobs=1,
                                     policy=FAST, journaled=False)
        parallel = run_guided_campaign(spec, _runner(tmp_path, "c2"), jobs=2,
                                       policy=FAST, journaled=False)
        assert serial.verdicts == parallel.verdicts
        assert serial.report.render() == parallel.report.render()
        assert serial.report.to_json() == parallel.report.to_json()

    def test_cells_are_index_ordered(self):
        cells = _cells(_spec(count=5))
        assert [c.workload for c in cells] == \
            [f"fuzz:v1:71:{i}:mem_words=512;target_instructions=600"
             for i in range(5)]

    def test_sweep_every_samples_by_index(self):
        spec = _spec(count=5, sweep_every=2, sweep_points=2)
        cells = _cells(spec)
        sampled = [c.fuzz.sweep_points for c in cells]
        assert sampled == [2, 0, 2, 0, 2]


class TestBlindPin:
    #: Recorded from the dedicated blind-campaign driver this one-arm
    #: campaign replaced: seed 71, count 4, ``SMALL`` dials and
    #: ``sweep_every=2``, so programs 0 and 2 also run the sweep check.
    NAMES = [f"fuzz:v1:71:{i}:mem_words=512;target_instructions=600"
             for i in range(4)]
    TRIAGE_SHA256 = \
        "c54ae5905e5033f2814b91467adb7b0595073db6c02ac3cb6752580e82dad0a6"

    def test_one_arm_campaign_reproduces_the_blind_pin(self, tmp_path):
        result = run_guided_campaign(_spec(sweep_every=2, batch=2),
                                     _runner(tmp_path), jobs=1,
                                     policy=FAST, journaled=False)
        assert [c.workload for c in _cells(result.spec)] == self.NAMES
        assert [v.name for v in result.verdicts] == self.NAMES
        digest = hashlib.sha256(result.report.to_json().encode()).hexdigest()
        assert digest == self.TRIAGE_SHA256
        # One arm: the whole count is one batch, whatever ``batch`` says.
        assert len(result.run_reports) == 1


class TestResume:
    def test_kill_then_resume_matches_clean_run(self, tmp_path,
                                                monkeypatch):
        spec = _spec()
        clean = run_guided_campaign(spec, _runner(tmp_path, "clean"), jobs=1,
                                    policy=FAST, journaled=False)

        # First attempt: cell 2's evaluator crashes terminally.
        runner = _runner(tmp_path)
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=2:times=0")
        first = run_guided_campaign(spec, runner, jobs=2, policy=FAST,
                                    journal_root=tmp_path / "j")
        assert not first.run_reports[0].completed
        assert len(first.failed) == 1

        # Resume without faults: only the missing cell reruns; the rest
        # restore from the journal + cache, and the bytes match a clean
        # uninterrupted campaign.
        monkeypatch.delenv("REPRO_FAULTS")
        resumed_runner = _runner(tmp_path)
        resumed = run_guided_campaign(spec, resumed_runner, jobs=2,
                                      policy=FAST,
                                      journal_root=tmp_path / "j",
                                      resume=True)
        assert resumed.run_reports[0].completed
        assert resumed.failed == []
        assert resumed.verdicts == clean.verdicts
        assert resumed.report.render() == clean.report.render()
        assert resumed.run_reports[0].resumed >= 1

    def test_journal_key_isolates_check_changes(self, tmp_path):
        runner = _runner(tmp_path)
        a, b = _cells(_spec())[0], \
            _cells(_spec(sweep_every=1, sweep_points=2))[0]
        ka, kb = cell_key(runner, a), cell_key(runner, b)
        # Same workload, different check spec -> different identity, so a
        # journal written under one check never satisfies the other.
        assert ka != kb
        assert ka == runner.cache.key_for("fuzz", runner.entry(a)[1])


class TestTriage:
    def test_report_counts_every_class(self, tmp_path):
        result = run_guided_campaign(_spec(), _runner(tmp_path), jobs=1,
                                     policy=FAST, journaled=False)
        rep = result.report
        assert rep.total == 4
        assert sum(rep.counts.values()) == 4
        assert rep.total_commits == sum(v.commits for v in result.verdicts)
        doc = json.loads(rep.to_json())
        assert doc["total"] == 4

    def test_divergences_preserve_submission_order(self, tmp_path):
        result = run_guided_campaign(_spec(), _runner(tmp_path), jobs=1,
                                     policy=FAST, journaled=False)
        rep = triage(result.verdicts)
        names = [v.name for v in result.verdicts]
        assert [v.name for v in rep.divergences] == \
            [n for n in names if n in {v.name for v in rep.divergences}]

    def test_render_mentions_divergence_count(self, tmp_path):
        result = run_guided_campaign(_spec(count=2), _runner(tmp_path), jobs=1,
                                     policy=FAST, journaled=False)
        text = result.report.render()
        assert "divergence" in text
        assert "2 program(s)" in text

    def test_errored_programs_get_an_explicit_bucket(self):
        rep = triage([], errored=["fuzz:v1:0:2"])
        assert rep.total == 1
        assert rep.errored == ["fuzz:v1:0:2"]
        doc = json.loads(rep.to_json())
        assert doc["counts"]["errored"] == 1
        assert doc["errored"] == ["fuzz:v1:0:2"]
        assert "ERRORED (1)" in rep.render()
        assert "fuzz:v1:0:2" in rep.render()

    def test_crashed_cells_surface_as_errored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1:times=0")
        result = run_guided_campaign(_spec(), _runner(tmp_path), jobs=2,
                                     policy=FAST, journal_root=tmp_path / "j")
        assert len(result.failed) == 1
        # The report accounts for every program it was asked to run:
        # no silent shrinkage of the campaign.
        assert result.report.errored == result.failed
        assert result.report.total == result.spec.count
