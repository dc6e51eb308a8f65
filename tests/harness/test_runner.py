"""ExperimentRunner: artifact construction, caching, scaling."""

import pytest

from repro.core import BASELINE, SPEAR_128
from repro.fuzz import FuzzCheckSpec
from repro.fuzz.schedule import GuidedCampaignSpec, resolve_arm
from repro.harness import (Cell, DiskCache, ExperimentRunner,
                           report_trace_spec)
from repro.memory import LatencyConfig
from repro.pipeline import TimingSimulator


@pytest.fixture(scope="module")
def runner():
    # quarter-scale keeps this module quick while exercising everything
    return ExperimentRunner(instruction_scale=0.25)


class TestArtifacts:
    def test_artifacts_built_once(self, runner):
        a = runner.artifacts("pointer")
        b = runner.artifacts("pointer")
        assert a is b

    def test_artifact_contents(self, runner):
        art = runner.artifacts("pointer")
        assert len(art.eval_trace) > 1000
        assert len(art.warmup_trace) > 0
        assert art.compile_report.dloads == len(art.binary.table)
        assert art.binary.table.dload_pcs   # pointer has d-loads

    def test_scale_respected(self, runner):
        art = runner.artifacts("pointer")
        w = art.workload
        assert len(art.eval_trace) <= int(w.eval_instructions * 0.25)


class TestRuns:
    def test_result_cached(self, runner):
        a = runner.run("pointer", BASELINE)
        b = runner.run("pointer", BASELINE)
        assert a is b

    def test_latency_override_not_conflated(self, runner):
        slow = runner.run("pointer", BASELINE, LatencyConfig(1, 20, 200))
        normal = runner.run("pointer", BASELINE)
        assert slow is not normal
        assert slow.ipc < normal.ipc

    def test_speedup_helper(self, runner):
        s = runner.speedup("pointer", SPEAR_128, BASELINE)
        assert s == (runner.run("pointer", SPEAR_128).ipc
                     / runner.run("pointer", BASELINE).ipc)

    def test_has_result_membership(self):
        runner = ExperimentRunner(instruction_scale=0.05)
        assert not runner.has(Cell("pointer", BASELINE))
        runner.run("pointer", BASELINE)
        assert runner.has(Cell("pointer", BASELINE))
        # Normalization: the config's own latencies are not a new cell.
        assert runner.has(Cell("pointer", BASELINE, BASELINE.latencies))
        assert not runner.has(Cell("pointer", SPEAR_128))

    def test_workload_name_on_result(self, runner):
        assert runner.run("pointer", BASELINE).workload == "pointer"

    @pytest.mark.parametrize("sweep_points, runs", [(0, 4), (2, 8)])
    def test_fuzz_cell_counts_every_timing_run(self, monkeypatch,
                                               sweep_points, runs):
        """A fuzz cell counts the runs its check made: a skipping and a
        walking run per config, plus two per sampled sweep point."""
        made = []
        run = TimingSimulator.run

        def counting(sim):
            made.append(sim)
            return run(sim)

        monkeypatch.setattr(TimingSimulator, "run", counting)
        runner = ExperimentRunner()
        verdict = runner.get(Cell("fuzz:v1:1:0", BASELINE,
                                  fuzz=FuzzCheckSpec(
                                      sweep_points=sweep_points)))
        assert ("sweep" in verdict.checks) == bool(sweep_points)
        assert len(made) == runner.simulations == runs


_SPEC = report_trace_spec()

#: One cell of every shape the harness runs, with the cache kind that
#: holds its value.
CELL_SHAPES = {
    "plain": (Cell("pointer", SPEAR_128), "results"),
    "baseline-epoch": (Cell("pointer", BASELINE, policy="adaptive-epoch"),
                       "results"),
    "epoch": (Cell("pointer", SPEAR_128, policy="adaptive-epoch"),
              "results"),
    "phase": (Cell("pointer", SPEAR_128, policy="adaptive-phase"),
              "results"),
    "traced": (Cell("pointer", SPEAR_128, trace=_SPEC), "traces"),
    "traced-epoch": (Cell("pointer", SPEAR_128, trace=_SPEC,
                          policy="adaptive-epoch"), "traces"),
    "traced-phase": (Cell("pointer", SPEAR_128, trace=_SPEC,
                          policy="adaptive-phase"), "traces"),
    "fuzz": (GuidedCampaignSpec(seed=2026, count=1).cell(
        resolve_arm("default"), 0), "fuzz"),
}


class TestReadThrough:
    @pytest.mark.parametrize("shape", list(CELL_SHAPES))
    def test_warm_runner_reads_cell_from_cache(self, tmp_path, shape):
        # A new runner on a warm cache serves the cell from its one
        # entry: no build, no simulation, nothing missed or stored.
        cell, kind = CELL_SHAPES[shape]
        cold = ExperimentRunner(instruction_scale=0.05,
                                cache=DiskCache(tmp_path))
        value = cold.get(cell)
        cache = DiskCache(tmp_path)
        warm = ExperimentRunner(instruction_scale=0.05, cache=cache)
        assert warm.get(cell) == value
        assert warm.simulations == 0 and warm.builds == 0
        stats = cache.stats()
        assert list(stats) == [kind]
        assert (stats[kind]["hits"], stats[kind]["misses"],
                stats[kind]["stores"]) == (1, 0, 0)


class TestQuickRun:
    def test_quick_run_shape(self):
        from repro import quick_run
        out = quick_run("pointer")
        assert out["workload"] == "pointer"
        assert out["ipc_baseline"] > 0
        assert out["speedup_128"] > 0.8
        assert "compile_report" in out
