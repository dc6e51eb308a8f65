"""Fast-forward against the reference kernel on paper workloads, run the
way a suite report runs them.

``tests/properties/test_backends.py`` compares the two kernels on random
programs, with no warmup and an unfiltered tracer.  Here each kernel
replays a paper workload's warmup prefix and then times its measured
window, with the report's kind-filtered ring buffer and interval sampler
attached (:func:`~repro.harness.experiments.report_trace_spec`).  The
pickled result, the retained events and the emitted count must be the
same bytes on both kernels.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.configs import BASELINE, SPEAR_128
from repro.harness import ExperimentRunner, report_trace_spec
from repro.memory import MemoryHierarchy
from repro.observe import IntervalSampler, RingBufferSink, serialize_events
from repro.pipeline import make_simulator

WORKLOADS = ("pointer", "matrix", "mcf")


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instruction_scale=0.05)


def report_run(kernel, art, config):
    """One traced run on ``kernel``; returns ``(result, sink)``."""
    spec = report_trace_spec()
    sink = RingBufferSink(spec.capacity, kinds=spec.kinds)
    sim = make_simulator(kernel, art.eval_trace, config, art.binary.table,
                         MemoryHierarchy(latencies=config.latencies),
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
    ref, ref_sink = report_run("reference", art, config)
    ff, ff_sink = report_run("fast-forward", art, config)
    assert blob(ff) == blob(ref)
    assert serialize_events(ff_sink.events()) == \
        serialize_events(ref_sink.events())
    assert ff_sink.emitted == ref_sink.emitted
    if config.spear_enabled:
        assert ref_sink.emitted > 0
