"""``run()`` against the per-cycle walk on paper workloads, run the way
a suite report runs them.

``tests/properties/test_backends.py`` compares the idle skip with the
walk on random programs, with no warmup and an unfiltered tracer.  Here
each replays a paper workload's warmup prefix and then times its
measured window, with the report's kind-filtered ring buffer and
interval sampler attached
(:func:`~repro.harness.experiments.report_trace_spec`).  The pickled
result, the retained events and the emitted count must be the same bytes
skipping and walking.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.configs import BASELINE, SPEAR_128
from repro.harness import ExperimentRunner, report_trace_spec
from repro.observe import IntervalSampler, RingBufferSink, serialize_events

from ..conftest import timing_sim

WORKLOADS = ("pointer", "matrix", "mcf")


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instruction_scale=0.05)


def report_run(art, config, *, walk):
    """One traced run, skipping or walking; returns ``(result, sink)``."""
    spec = report_trace_spec()
    sink = RingBufferSink(spec.capacity, kinds=spec.kinds)
    sim = timing_sim(art.eval_trace, config, art.binary.table, walk=walk,
                     warmup=art.warmup_trace, tracer=sink,
                     sampler=IntervalSampler(spec.interval))
    return sim.run(), sink


def blob(result) -> bytes:
    return pickle.dumps(result, pickle.HIGHEST_PROTOCOL)


@pytest.mark.parametrize("config", [BASELINE, SPEAR_128],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_forward_report_run_identical(runner, workload, config):
    art = runner.artifacts(workload)
    assert len(art.warmup_trace) > 0
    skip, skip_sink = report_run(art, config, walk=False)
    walk, walk_sink = report_run(art, config, walk=True)
    assert blob(skip) == blob(walk)
    assert serialize_events(skip_sink.events()) == \
        serialize_events(walk_sink.events())
    assert skip_sink.emitted == walk_sink.emitted
    if config.spear_enabled:
        assert walk_sink.emitted > 0
