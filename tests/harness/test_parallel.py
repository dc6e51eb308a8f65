"""Parallel experiment engine: cell planning, determinism across job counts."""

import time

import pytest

from repro.core import BASELINE, SPEAR_128, SPEAR_256
from repro.harness import (Cell, DiskCache, ExperimentRunner, RunJournal,
                           build_artifacts, cells_for, default_jobs, figure6,
                           run_cells)
from repro.harness.parallel import _leaders_first
from repro.memory import FIG9_LATENCIES


class TestCellPlanning:
    def test_figure6_matrix(self):
        cells = cells_for("figure6", ["pointer", "update"])
        assert len(cells) == 6
        assert cells[0] == Cell("pointer", BASELINE)
        names = {c.config.name for c in cells}
        assert names == {BASELINE.name, SPEAR_128.name, SPEAR_256.name}

    def test_figure9_crosses_latencies(self):
        cells = cells_for("figure9", ["pointer"])
        lats = {c.latencies for c in cells if c.latencies is not None}
        assert set(FIG9_LATENCIES) <= lats

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            cells_for("figure99", ["pointer"])

    def test_cells_are_picklable_descriptors(self):
        import pickle

        cells = cells_for("figure6", ["pointer"])
        assert pickle.loads(pickle.dumps(cells)) == cells

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestSerialEquivalence:
    def test_run_cells_seeds_runner_memo(self):
        runner = ExperimentRunner(instruction_scale=0.05)
        cells = cells_for("figure6", ["pointer"])
        report = run_cells(runner, cells, jobs=1)
        assert report.ok == len(cells) and report.completed
        assert runner.simulations == len(cells)
        # Seeded results short-circuit later runner.run calls.
        runner.run("pointer", BASELINE)
        assert runner.simulations == len(cells)

    def test_duplicate_cells_deduped(self):
        runner = ExperimentRunner(instruction_scale=0.05)
        cell = Cell("pointer", BASELINE)
        report = run_cells(runner, [cell, cell, cell], jobs=1)
        assert report.total == 1
        assert runner.simulations == 1

    def test_memoized_cells_not_recounted(self):
        runner = ExperimentRunner(instruction_scale=0.05)
        cells = cells_for("figure6", ["pointer"])
        run_cells(runner, cells, jobs=1)
        again = run_cells(runner, cells, jobs=1)
        assert again.total == 0 and again.ok == 0

    def test_build_artifacts_serial(self):
        runner = ExperimentRunner(instruction_scale=0.05)
        build_artifacts(runner, ["pointer"], jobs=1)
        assert runner.builds == 1
        build_artifacts(runner, ["pointer"], jobs=1)
        assert runner.builds == 1


class TestJobsDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_figure6_identical_across_job_counts(self, jobs):
        serial = ExperimentRunner(instruction_scale=0.05)
        run_cells(serial, cells_for("figure6", ["pointer"]), jobs=1)
        serial_table = figure6(serial, ["pointer"]).table("Figure 6").render()

        fanned = ExperimentRunner(instruction_scale=0.05)
        run_cells(fanned, cells_for("figure6", ["pointer"]), jobs=jobs)
        fanned_table = figure6(fanned, ["pointer"]).table("Figure 6").render()

        assert fanned_table == serial_table
        # The parallel merge must seed the memo: rendering above must not
        # have re-simulated anything in the parent process.
        assert fanned.simulations == 0


class TestLeadersFirst:
    def test_leaders_then_followers_each_in_index_order(self):
        cells = dict(enumerate(cells_for("figure6",
                                         ["pointer", "update", "mcf"])))
        order = _leaders_first(cells)
        assert order == [0, 3, 6, 1, 2, 4, 5, 7, 8]
        assert _leaders_first(dict(reversed(cells.items()))) == order
        # A rebuilt pool generation applies the same rule to what is left.
        left = {i: cells[i] for i in (2, 4, 5, 8)}
        assert _leaders_first(left) == [2, 4, 8, 5]

    def test_unique_workloads_keep_index_order(self):
        cells = {i: Cell(f"fuzz:v1:0:{i}", BASELINE) for i in (7, 3, 5)}
        assert _leaders_first(cells) == [3, 5, 7]

    def test_merge_order_unchanged(self, monkeypatch):
        runner = ExperimentRunner(instruction_scale=0.05)
        cells = cells_for("figure6", ["pointer", "update"])
        seeded = []
        seed_result = runner.seed_result

        def record(name, config, *args):
            seeded.append((name, config.name))
            seed_result(name, config, *args)

        monkeypatch.setattr(runner, "seed_result", record)
        run_cells(runner, cells, jobs=2)
        assert seeded == [(c.workload, c.config.name) for c in cells]

    def test_figure6_builds_each_workload_once(self, tmp_path, monkeypatch):
        names = ["pointer", "update"]
        serial = ExperimentRunner(instruction_scale=0.05)
        run_cells(serial, cells_for("figure6", names), jobs=1)
        serial_table = figure6(serial, names).table("Figure 6").render()

        # Patched before the pool forks, so every worker logs its builds.
        log = tmp_path / "builds.log"
        build, artifacts = ExperimentRunner._build, ExperimentRunner.artifacts

        def logged_build(self, name):
            with log.open("a") as fh:
                fh.write(name + "\n")
            return build(self, name)

        def after_every_leader(self, name):
            # Leaders-first orders submissions and gates nothing: a worker
            # that finished its leader cell before the other leader had
            # written its artifacts would build them again.  Holding each
            # cell here until every workload's artifacts are in the cache
            # takes that race out of the count.  Both leaders are already
            # running by then, as a held worker takes no second cell.
            art = artifacts(self, name)
            (tmp_path / f"{name}.ready").touch()
            deadline = time.monotonic() + 60.0
            while not all((tmp_path / f"{n}.ready").exists() for n in names):
                if time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            return art

        monkeypatch.setattr(ExperimentRunner, "_build", logged_build)
        monkeypatch.setattr(ExperimentRunner, "artifacts", after_every_leader)
        fanned = ExperimentRunner(instruction_scale=0.05,
                                  cache=DiskCache(tmp_path / "cache"))
        report = run_cells(fanned, cells_for("figure6", names), jobs=2)
        assert report.completed
        assert sorted(log.read_text().split()) == names
        assert figure6(fanned, names).table("Figure 6").render() == \
            serial_table


class TestJournal:
    def test_elapsed_is_execution_time_not_queue_wait(self, tmp_path):
        jobs = 2
        runner = ExperimentRunner(instruction_scale=0.05,
                                  cache=DiskCache(tmp_path / "cache"))
        cells = cells_for("figure6", ["pointer", "update", "mcf", "matrix"])
        journal = RunJournal.for_run("figure6", cells, runner,
                                     root=tmp_path / "journal")
        report = run_cells(runner, cells, jobs=jobs, journal=journal)
        elapsed = [rec["elapsed"] for rec in journal.entries()
                   if rec.get("event") == "cell"]
        assert len(elapsed) == len(cells)
        # Each worker runs one cell at a time inside the run's wall time.
        assert sum(elapsed) <= jobs * report.wall_time
