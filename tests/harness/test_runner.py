"""ExperimentRunner: artifact construction, caching, scaling."""

import pytest

from repro.core import BASELINE, SPEAR_128
from repro.harness import ExperimentRunner
from repro.memory import LatencyConfig


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

    def test_clear(self, runner):
        runner.run("pointer", BASELINE)
        runner.clear()
        assert not runner._artifacts and not runner._results

    def test_clear_resets_counters(self):
        runner = ExperimentRunner(instruction_scale=0.05)
        runner.run("pointer", BASELINE)
        assert runner.builds == 1 and runner.simulations == 1
        runner.clear()
        assert runner.builds == 0 and runner.simulations == 0

    def test_has_result_membership(self):
        runner = ExperimentRunner(instruction_scale=0.05)
        assert not runner.has_result("pointer", BASELINE)
        runner.run("pointer", BASELINE)
        assert runner.has_result("pointer", BASELINE)
        # Normalization: the config's own latencies are not a new cell.
        assert runner.has_result("pointer", BASELINE, BASELINE.latencies)
        assert not runner.has_result("pointer", SPEAR_128)

    def test_workload_name_on_result(self, runner):
        assert runner.run("pointer", BASELINE).workload == "pointer"


class TestQuickRun:
    def test_quick_run_shape(self):
        from repro import quick_run
        out = quick_run("pointer")
        assert out["workload"] == "pointer"
        assert out["ipc_baseline"] > 0
        assert out["speedup_128"] > 0.8
        assert "compile_report" in out
