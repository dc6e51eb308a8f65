"""Experiment regeneration machinery on a reduced workload subset."""

import pytest

from repro.core import SPEAR_128
from repro.harness import (EVAL_WORKLOADS, ExperimentRunner, figure6,
                           figure8, figure9, table1, table2, table3)
from repro.memory import LatencyConfig

SUBSET = ["pointer", "mcf"]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instruction_scale=0.25)


class TestTables:
    def test_table1(self, runner):
        t = table1(runner, SUBSET)
        assert len(t.rows) == 2
        out = t.render()
        assert "pointer" in out and "mcf" in out

    def test_table2(self):
        t = table2(SPEAR_128)
        out = t.render()
        assert "IFQ size" in out and "128" in out
        assert "memory latency" in out

    def test_table3(self, runner):
        t = table3(runner, SUBSET)
        out = t.render()
        assert "256/128" in out
        assert "mean 256/128" in t.footers[0]

    def test_table3_ipb_is_the_eval_traces(self):
        """Table 3 reads IPB off its SPEAR-128 cell: normal fetch commits
        the eval trace and predicts each of its conditional branches
        exactly once (wrong-path fetch predicts nothing), so the cell's
        counts are the trace's own."""
        runner = ExperimentRunner(instruction_scale=0.05)
        for name in EVAL_WORKLOADS:
            stats = runner.run(name, SPEAR_128).stats
            trace = runner.artifacts(name).eval_trace
            assert (stats.committed, stats.cond_branches) == (
                len(trace), trace.count_branches(conditional_only=True)), name


class TestFigure6:
    def test_speedups_positive(self, runner):
        res = figure6(runner, SUBSET)
        assert len(res.rows) == 2
        for row in res.rows:
            assert row["SPEAR-128"] > 0.9
            assert row["SPEAR-256"] > 0.9

    def test_means(self, runner):
        res = figure6(runner, SUBSET)
        means = res.mean_speedups
        assert set(means) == {"SPEAR-128", "SPEAR-256"}
        geo = res.geomean_speedups
        assert all(geo[k] <= means[k] + 1e-9 for k in means)

    def test_best(self, runner):
        res = figure6(runner, SUBSET)
        name, speedup = res.best("SPEAR-256")
        assert name in SUBSET
        assert speedup == max(r["SPEAR-256"] for r in res.rows)

    def test_table_render(self, runner):
        res = figure6(runner, SUBSET)
        out = res.table("Figure 6").render()
        assert "paper" in out and "mean" in out


class TestFigure8:
    def test_reductions(self, runner):
        res = figure8(runner, SUBSET)
        for row in res.rows:
            assert row["base"] > 0
            assert -0.5 <= row["SPEAR-256"] <= 1.0
        assert "reduction" in res.table().render()

    def test_best(self, runner):
        res = figure8(runner, SUBSET)
        name, red = res.best("SPEAR-256")
        assert name in SUBSET


class TestFigure9:
    def test_sweep_shape(self, runner):
        lats = [LatencyConfig(1, 4, 40), LatencyConfig(1, 20, 200)]
        res = figure9(runner, ["pointer"], lats)
        series = res.ipc["pointer"]
        assert len(series["baseline"]) == 2
        # IPC decreases with latency for every config
        for cfg_name, vals in series.items():
            assert vals[0] > vals[-1]

    def test_degradation_ordering(self, runner):
        lats = [LatencyConfig(1, 4, 40), LatencyConfig(1, 20, 200)]
        res = figure9(runner, ["pointer", "mcf"], lats)
        assert res.degradation("baseline") >= res.degradation("SPEAR-256") - 5
        assert "longest latency" in res.table().footers[0]
