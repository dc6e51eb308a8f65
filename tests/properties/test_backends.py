"""The idle skip against the per-cycle walk.

``TimingSimulator.run()`` jumps over provably idle stretches, which is
only admissible because it is a *bit-for-bit* substitute for walking
every cycle.  These properties pin that contract over randomized inputs,
against a simulator whose skip is switched off:

* **result identity** — ``run()`` and the walk produce
  pickle-byte-identical ``PipelineResult`` objects (stats, memory
  snapshot with fill attribution, predictor, prefetcher) on random
  baseline programs and on randomized SPEAR gather kernels;
* **latency identity** — the same at the first three figure-9 memory
  latencies, where the idle stretches differ from the default
  latency's;
* **observer identity** — with tracer and sampler attached the two emit
  identical event streams and identical timelines.

Every test is derandomized (fixed example stream) so CI is exactly
reproducible.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import BASELINE, BASELINE_STRIDE, SPEAR_128
from repro.functional import run_program
from repro.harness import ExperimentRunner
from repro.memory.hierarchy import FIG9_LATENCIES
from repro.observe import IntervalSampler, RingBufferSink
from repro.pipeline import TimingSimulator

from ..conftest import timing_sim
from .generators import build_random_program, iters_strategy, ops_strategy
from .test_invariants import gather_setup

SETTINGS = dict(derandomize=True, deadline=None, max_examples=8,
                print_blob=False)

baseline_configs = st.sampled_from([BASELINE, BASELINE_STRIDE])

gather_seeds = st.integers(0, 7)
gather_iters = st.integers(100, 300)

#: Latency points every latency property runs (a 3-point figure-9 row).
LATENCY_POINTS = FIG9_LATENCIES[:3]


def run_both(trace, config, table=None, *, traced=False):
    """``run()`` and the walk of one input; returns ``(skip, walk)``,
    each a ``(result, sink)`` pair."""
    runs = []
    for walk in (False, True):
        sink = RingBufferSink(capacity=None) if traced else None
        sampler = IntervalSampler(500) if traced else None
        sim = timing_sim(trace, config, table, walk=walk, tracer=sink,
                         sampler=sampler)
        runs.append((sim.run(), sink))
    return runs


def blob(result) -> bytes:
    return pickle.dumps(result, pickle.HIGHEST_PROTOCOL)


@settings(**SETTINGS)
@given(ops=ops_strategy, iters=iters_strategy, config=baseline_configs)
def test_fast_forward_identical_random_programs(ops, iters, config):
    trace = run_program(build_random_program(ops, iters),
                        max_instructions=20_000)
    (skip, _), (walk, _) = run_both(trace, config)
    assert blob(skip) == blob(walk)


@settings(**SETTINGS)
@given(seed=gather_seeds, iters=gather_iters)
def test_fast_forward_identical_spear(seed, iters):
    trace, table = gather_setup(seed, iters)
    (skip, _), (walk, _) = run_both(trace, SPEAR_128, table)
    assert blob(skip) == blob(walk)


@settings(**SETTINGS)
@given(ops=ops_strategy, iters=iters_strategy, config=baseline_configs)
def test_fast_forward_identical_traced(ops, iters, config):
    trace = run_program(build_random_program(ops, iters),
                        max_instructions=20_000)
    (skip, skip_sink), (walk, walk_sink) = run_both(trace, config,
                                                    traced=True)
    assert blob(skip) == blob(walk)       # includes the sampled timeline
    assert skip_sink.events() == walk_sink.events()


@settings(**SETTINGS)
@given(seed=gather_seeds, iters=gather_iters)
def test_fast_forward_identical_traced_spear(seed, iters):
    trace, table = gather_setup(seed, iters)
    (skip, skip_sink), (walk, walk_sink) = run_both(trace, SPEAR_128, table,
                                                    traced=True)
    assert blob(skip) == blob(walk)
    assert skip_sink.events() == walk_sink.events()


def test_fast_forward_actually_skips(monkeypatch):
    """The equivalence properties are not vacuous: the kernel the harness
    builds really jumps on a pointer chase, and the walk never does."""
    sims = []
    run = TimingSimulator.run

    def recording(sim):
        sims.append(sim)
        return run(sim)

    monkeypatch.setattr(TimingSimulator, "run", recording)
    runner = ExperimentRunner(instruction_scale=0.05)
    result = runner.run("pointer", BASELINE)
    (harness,) = sims
    assert harness.ff_jumps > 0
    assert harness.ff_cycles_skipped > result.stats.cycles // 2

    art = runner.artifacts("pointer")
    walk = timing_sim(art.eval_trace, BASELINE, walk=True,
                      warmup=art.warmup_trace)
    assert blob(walk.run()) == blob(result)
    assert walk.ff_jumps == walk.ff_cycles_skipped == 0


@settings(**SETTINGS)
@given(ops=ops_strategy, iters=iters_strategy, config=baseline_configs)
def test_fast_forward_identical_random_programs_latencies(ops, iters, config):
    trace = run_program(build_random_program(ops, iters),
                        max_instructions=20_000)
    for lat in LATENCY_POINTS:
        (skip, _), (walk, _) = run_both(trace, config.with_latencies(lat))
        assert blob(skip) == blob(walk)


@settings(**SETTINGS)
@given(seed=gather_seeds, iters=gather_iters)
def test_fast_forward_identical_spear_latencies(seed, iters):
    trace, table = gather_setup(seed, iters)
    for lat in LATENCY_POINTS:
        (skip, _), (walk, _) = run_both(trace, SPEAR_128.with_latencies(lat),
                                        table)
        assert blob(skip) == blob(walk)
