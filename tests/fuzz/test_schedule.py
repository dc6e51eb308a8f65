"""Guided campaigns: mutation, arm scheduling, resume byte-identity."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.fuzz import (ArmScheduler, GuidedCampaignSpec, encode_mut_name,
                        mut_workload_from_name, mutate_spec, parse_mut_name,
                        run_guided_campaign)
from repro.fuzz.generator import DEFAULT_DIALS
from repro.fuzz.schedule import (_MUT_DYNAMIC_CAP, MutWorkload, mutated_spec,
                                 resolve_arm)
from repro.workloads.base import get_workload

from .test_campaign import FAST, _runner
from .test_coverage import verdict

#: Cheap arm palette for driver tests: one small generation arm, one
#: mutation arm (covers both cell-name grammars end to end).
ARMS = ("tiny", "mut:pointer")


def _gspec(count=6, seed=31, **kw):
    kw.setdefault("sweep_every", 0)
    kw.setdefault("arms", ARMS)
    kw.setdefault("batch", 3)
    return GuidedCampaignSpec(seed=seed, count=count, **kw)


class TestMutNames:
    def test_round_trip(self):
        name = encode_mut_name(7, 3, "pointer")
        assert name == "fuzzmut:v1:7:3:pointer"
        assert parse_mut_name(name) == (7, 3, "pointer")

    def test_junk_rejected(self):
        with pytest.raises(ValueError, match="not a fuzzmut"):
            parse_mut_name("fuzz:v1:0:0")
        with pytest.raises(ValueError, match="generator version"):
            parse_mut_name("fuzzmut:v999:0:0:pointer")

    def test_registry_resolves_mut_names(self):
        w = get_workload("fuzzmut:v1:7:3:pointer")
        assert isinstance(w, MutWorkload)
        assert w.name == "fuzzmut:v1:7:3:pointer"

    def test_base_without_export_rejected(self):
        with pytest.raises(ValueError, match="no spec_of"):
            mutated_spec(0, 0, "mcf")


class TestMutation:
    def test_mutated_spec_is_a_pure_function_of_the_name(self):
        assert mutated_spec(7, 3, "pointer") == mutated_spec(7, 3, "pointer")
        p1 = MutWorkload(7, 3, "pointer").program("eval").encode().tobytes()
        p2 = mut_workload_from_name("fuzzmut:v1:7:3:pointer") \
            .program("eval").encode().tobytes()
        assert p1 == p2

    def test_indices_explore_distinct_mutants(self):
        specs = {mutated_spec(7, i, "pointer") for i in range(8)}
        assert len(specs) > 1

    def test_mutants_stay_bounded_and_materializable(self):
        for base in ("pointer", "update", "ll4"):
            for i in range(4):
                w = mut_workload_from_name(encode_mut_name(5, i, base))
                assert w.spec.dynamic_estimate() <= _MUT_DYNAMIC_CAP
                assert w.spec.size() >= 1
                assert len(w.program("eval").instructions) > 0

    def test_mutate_spec_respects_seeded_rng(self):
        base = get_workload("pointer").spec_of()
        a = mutate_spec(base, np.random.default_rng(42))
        b = mutate_spec(base, np.random.default_rng(42))
        assert a == b


class TestArms:
    def test_resolve_known_and_mut_arms(self):
        assert resolve_arm("default").dials == DEFAULT_DIALS
        assert resolve_arm("mut:ll4").base == "ll4"
        with pytest.raises(ValueError, match="unknown arm"):
            resolve_arm("nonesuch")

    def test_cell_names_cover_both_grammars(self):
        gen, mut = resolve_arm("tiny"), resolve_arm("mut:pointer")
        assert gen.cell_name(3, 1).startswith("fuzz:v1:3:1:")
        assert mut.cell_name(3, 2) == "fuzzmut:v1:3:2:pointer"


class TestScheduler:
    def test_plan_spends_exactly_the_budget(self):
        sched = ArmScheduler(("tiny", "mut:pointer", "fp"))
        for budget in (1, 3, 7, 25):
            assert len(ArmScheduler(("tiny", "mut:pointer", "fp"))
                       .plan(budget)) == budget
        assert len(sched.plan(7)) == 7

    def test_equal_scores_split_evenly_with_arm_order_ties(self):
        plan = ArmScheduler(("tiny", "fp")).plan(5)
        names = [a.name for a in plan]
        assert names == ["tiny"] * 3 + ["fp"] * 2   # remainder -> arm 0

    def test_novelty_shifts_budget_toward_the_novel_arm(self):
        sched = ArmScheduler(("tiny", "fp"))
        fresh = [("tiny", verdict(name=f"a{i}", triggers=i * 9, fills=i))
                 for i in range(4)]
        stale = [("fp", verdict(name=f"b{i}")) for i in range(4)]
        sched.observe(fresh + stale)
        plan = [a.name for a in sched.plan(10)]
        assert plan.count("tiny") > plan.count("fp")

    def test_observations_replay_to_identical_plans(self):
        batches = [[("tiny", verdict(name=f"x{i}", triggers=i * 9))
                    for i in range(3)],
                   [("fp", verdict(name=f"y{i}", fills=i * 9))
                    for i in range(3)]]
        plans = []
        for _ in range(2):
            sched = ArmScheduler(("tiny", "fp"))
            for batch in batches:
                sched.observe(batch)
            plans.append([a.name for a in sched.plan(9)])
        assert plans[0] == plans[1]

    def test_ranked_shares_concentrate_after_warmup(self):
        arms = ("tiny", "fp", "stores", "branchy", "default")
        sched = ArmScheduler(arms)
        batch = [("tiny", verdict(name=f"n{i}", triggers=i * 9))
                 for i in range(3)]
        batch += [(a, verdict(name=f"{a}{i}"))
                  for a in arms[1:] for i in range(3)]
        sched.observe(batch)
        # Every arm has MIN_OBS observations -> ranking kicks in: the
        # one productive arm takes the top share of the next batch.
        plan = [a.name for a in sched.plan(31)]
        total = sum(sched.SHARES) + len(arms) - len(sched.SHARES)
        assert plan.count("tiny") >= 31 * sched.SHARES[0] // total
        assert plan.count("tiny") > max(
            plan.count(a) for a in arms[1:])
        assert all(a in plan for a in arms)           # the floor of 1

    def test_starved_arm_keeps_the_floor(self):
        sched = ArmScheduler(("tiny", "fp"))
        sched.observe([("tiny", verdict(name=f"z{i}", triggers=i * 9))
                       for i in range(5)])
        assert sched.scores["fp"] == 1                # never zero
        assert "fp" in {a.name for a in sched.plan(25)}


class TestGuidedCampaign:
    def test_jobs_do_not_change_the_bytes(self, tmp_path):
        spec = _gspec()
        serial = run_guided_campaign(
            spec, _runner(tmp_path, "c1"), jobs=1, policy=FAST,
            journal_root=tmp_path / "j1")
        parallel = run_guided_campaign(
            spec, _runner(tmp_path, "c2"), jobs=2, policy=FAST,
            journal_root=tmp_path / "j2")
        assert serial.completed and parallel.completed
        assert [v.name for v in serial.verdicts] == \
            [v.name for v in parallel.verdicts]
        assert serial.coverage.to_json() == parallel.coverage.to_json()
        assert serial.report.render() == parallel.report.render()
        assert serial.render_allocations() == parallel.render_allocations()
        assert serial.allocations == parallel.allocations

    def test_crash_then_resume_matches_clean_run(self, tmp_path,
                                                 monkeypatch):
        spec = _gspec()
        clean = run_guided_campaign(
            spec, _runner(tmp_path, "clean"), jobs=1, policy=FAST,
            journal_root=tmp_path / "jc")

        # First attempt: a cell in batch 0 crashes terminally -> the
        # campaign stops scheduling (later plans would depend on the
        # missing observation) and surfaces the errored program.
        runner = _runner(tmp_path)
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=1:times=0")
        first = run_guided_campaign(spec, runner, jobs=2, policy=FAST,
                                    journal_root=tmp_path / "j")
        assert not first.completed
        assert len(first.failed) == 1
        assert first.report.errored == first.failed
        assert len(first.verdicts) < spec.count

        # Resume: completed cells replay from journal + cache, the
        # missing cell reruns, and every byte matches the clean run.
        monkeypatch.delenv("REPRO_FAULTS")
        resumed = run_guided_campaign(
            spec, _runner(tmp_path), jobs=2, policy=FAST,
            journal_root=tmp_path / "j", resume=True)
        assert resumed.completed
        assert resumed.verdicts == clean.verdicts
        assert resumed.coverage.to_json() == clean.coverage.to_json()
        assert resumed.report.render() == clean.report.render()
        assert resumed.render_allocations() == clean.render_allocations()

    def test_scheduler_feedback_reaches_later_batches(self, tmp_path):
        result = run_guided_campaign(
            _gspec(count=8, batch=4), _runner(tmp_path), jobs=2,
            policy=FAST, journal_root=tmp_path / "j")
        assert result.completed
        assert len(result.allocations) == 2
        # Batch 0 splits evenly; batch 1 reflects observed novelty (the
        # two batches need not be identical, but both spend the budget).
        assert all(sum(a.values()) == 4 for a in result.allocations)
        total = sum(s["allocated"] for s in result.arm_stats.values())
        assert total == 8

    @pytest.mark.parametrize("batch", [0, -3])
    def test_batch_below_one_rejected(self, batch):
        with pytest.raises(ValueError, match="batch must be at least 1"):
            _gspec(batch=batch)

    def test_cli_batch_zero_exits_with_a_message(self, tmp_path):
        """``plan(0)`` plans nothing, so a zero batch once looped forever;
        the command must now fail fast instead of hanging."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz", "run", "--guided",
             "--batch", "0", "--seed", "1", "--count", "2", "--jobs", "1",
             "--cache-dir", str(tmp_path / "cache")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60)
        assert proc.returncode != 0
        assert "batch must be at least 1, got 0" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="count must be at least 1"):
            _gspec(count=count)

    @pytest.mark.parametrize("count,extra", [("-3", []), ("0", ["--strict"])])
    def test_cli_count_below_one_exits_with_a_message(self, tmp_path, count,
                                                      extra):
        """A campaign of no programs once printed an empty triage and
        exited 0, which ``--strict`` passed too."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz", "run", "--seed", "1",
             "--count", count, "--jobs", "1",
             "--cache-dir", str(tmp_path / "cache"), *extra],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.strip() == \
            f"fuzz: campaign count must be at least 1, got {count}"
        assert proc.stdout == ""
