"""Traced runs through the harness: caching, determinism (artifacts built
in process or loaded from the disk cache), and tracer-off result
identity."""

import pytest

from repro.core import SPEAR_128
from repro.harness import DiskCache, ExperimentRunner, TracedRun
from repro.observe import serialize_events


SCALE = 0.1


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instruction_scale=SCALE)


class TestRunTraced:
    def test_shape(self, runner):
        t = runner.run_traced("pointer", SPEAR_128)
        assert isinstance(t, TracedRun)
        assert t.emitted > 0
        assert len(t.events) == min(t.emitted, 65536)
        assert t.result.timeline is not None
        assert t.result.timeline["interval"] == 1000

    def test_memoized(self, runner):
        a = runner.run_traced("pointer", SPEAR_128)
        b = runner.run_traced("pointer", SPEAR_128)
        assert a is b

    def test_trace_params_are_distinct_cells(self, runner):
        a = runner.run_traced("pointer", SPEAR_128)
        b = runner.run_traced("pointer", SPEAR_128, interval=500)
        c = runner.run_traced("pointer", SPEAR_128, kinds=("mode",))
        assert a is not b and a is not c
        assert b.result.timeline["interval"] == 500
        assert all(e.kind == "mode" for e in c.events)

    def test_does_not_seed_plain_results(self, runner):
        runner.run_traced("pointer", SPEAR_128)
        # plain results must never inherit a traced run's timeline
        assert runner.run("pointer", SPEAR_128).timeline is None

    def test_clear_drops_traced_memo(self):
        r = ExperimentRunner(instruction_scale=0.05)
        r.run_traced("pointer", SPEAR_128)
        r.clear()
        assert not r._traced


class TestDiskCache:
    def test_warm_read_through(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        cold = ExperimentRunner(instruction_scale=0.05, cache=cache)
        first = cold.run_traced("pointer", SPEAR_128)
        assert cold.simulations == 1

        warm = ExperimentRunner(instruction_scale=0.05, cache=cache)
        second = warm.run_traced("pointer", SPEAR_128)
        assert warm.simulations == 0
        assert serialize_events(second.events) == \
            serialize_events(first.events)
        assert second.result.summary() == first.result.summary()


class TestDeterminism:
    """S4: the event stream is byte-identical however the inputs were
    produced — built in process, or loaded from the disk cache the way a
    pool worker loads the artifacts its workload's leader cell wrote."""

    def test_stream_identical_serial_vs_parallel_artifacts(self, runner,
                                                           tmp_path):
        serial = runner.run_traced("pointer", SPEAR_128)

        cache = DiskCache(tmp_path / "c")
        ExperimentRunner(instruction_scale=SCALE,
                         cache=cache).artifacts("pointer")
        loaded = ExperimentRunner(instruction_scale=SCALE, cache=cache)
        parallel = loaded.run_traced("pointer", SPEAR_128)
        assert loaded.builds == 0 and loaded.simulations == 1

        assert serialize_events(parallel.events) == \
            serialize_events(serial.events)
        assert parallel.emitted == serial.emitted

    def test_tracer_off_summary_bit_identical(self, runner):
        traced = runner.run_traced("pointer", SPEAR_128)
        plain = runner.run("pointer", SPEAR_128)
        assert plain.summary() == traced.result.summary()
        assert plain.stats.snapshot() == traced.result.stats.snapshot()
        assert plain.memory == traced.result.memory
