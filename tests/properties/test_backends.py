"""Cross-backend equivalence properties of the timing kernels.

The `fast-forward` kernel is only admissible because it is a
*bit-for-bit* substitute for the reference kernel.  These properties pin
that contract over randomized inputs:

* **result identity** — reference vs fast-forward produce
  pickle-byte-identical ``PipelineResult`` objects (stats, memory
  snapshot with fill attribution, predictor, prefetcher) on random
  baseline programs and on randomized SPEAR gather kernels;
* **latency identity** — the same at the first three figure-9 memory
  latencies, where the idle stretches fast-forward skips differ from
  the default latency's;
* **observer identity** — with tracer and sampler attached the two
  kernels emit identical event streams and identical timelines.

Every test is derandomized (fixed example stream) so CI is exactly
reproducible.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import BASELINE, BASELINE_STRIDE, SPEAR_128
from repro.functional import run_program
from repro.memory import MemoryHierarchy
from repro.memory.hierarchy import FIG9_LATENCIES
from repro.observe import IntervalSampler, RingBufferSink
from repro.pipeline import make_simulator

from .generators import build_random_program, iters_strategy, ops_strategy
from .test_invariants import gather_setup

SETTINGS = dict(derandomize=True, deadline=None, max_examples=8,
                print_blob=False)

baseline_configs = st.sampled_from([BASELINE, BASELINE_STRIDE])

gather_seeds = st.integers(0, 7)
gather_iters = st.integers(100, 300)

#: Latency points every latency property runs (a 3-point figure-9 row).
LATENCY_POINTS = FIG9_LATENCIES[:3]


def run_backend(backend, trace, config, table=None, *, traced=False):
    """One run on the named kernel; returns ``(result, sink)``."""
    sink = RingBufferSink(capacity=None) if traced else None
    sampler = IntervalSampler(500) if traced else None
    sim = make_simulator(backend, trace, config, table,
                         MemoryHierarchy(latencies=config.latencies),
                         tracer=sink, sampler=sampler)
    return sim.run(), sink


def blob(result) -> bytes:
    return pickle.dumps(result, pickle.HIGHEST_PROTOCOL)


@settings(**SETTINGS)
@given(ops=ops_strategy, iters=iters_strategy, config=baseline_configs)
def test_fast_forward_identical_random_programs(ops, iters, config):
    trace = run_program(build_random_program(ops, iters),
                        max_instructions=20_000)
    ref, _ = run_backend("reference", trace, config)
    ff, _ = run_backend("fast-forward", trace, config)
    assert blob(ref) == blob(ff)


@settings(**SETTINGS)
@given(seed=gather_seeds, iters=gather_iters)
def test_fast_forward_identical_spear(seed, iters):
    trace, table = gather_setup(seed, iters)
    ref, _ = run_backend("reference", trace, SPEAR_128, table)
    ff, _ = run_backend("fast-forward", trace, SPEAR_128, table)
    assert blob(ref) == blob(ff)


@settings(**SETTINGS)
@given(ops=ops_strategy, iters=iters_strategy, config=baseline_configs)
def test_fast_forward_identical_traced(ops, iters, config):
    trace = run_program(build_random_program(ops, iters),
                        max_instructions=20_000)
    ref, ref_sink = run_backend("reference", trace, config, traced=True)
    ff, ff_sink = run_backend("fast-forward", trace, config, traced=True)
    assert blob(ref) == blob(ff)          # includes the sampled timeline
    assert ref_sink.events() == ff_sink.events()


@settings(**SETTINGS)
@given(seed=gather_seeds, iters=gather_iters)
def test_fast_forward_identical_traced_spear(seed, iters):
    trace, table = gather_setup(seed, iters)
    ref, ref_sink = run_backend("reference", trace, SPEAR_128, table,
                                traced=True)
    ff, ff_sink = run_backend("fast-forward", trace, SPEAR_128, table,
                              traced=True)
    assert blob(ref) == blob(ff)
    assert ref_sink.events() == ff_sink.events()


def test_fast_forward_actually_skips():
    """The equivalence properties are not vacuous: on a stall-heavy
    pointer-chase-like input the fast-forward kernel really jumps."""
    trace, table = gather_setup(0, 300)
    sim = make_simulator("fast-forward", trace, SPEAR_128, table,
                         MemoryHierarchy(latencies=SPEAR_128.latencies))
    sim.run()
    assert sim.ff_jumps > 0
    assert sim.ff_cycles_skipped > 0


@settings(**SETTINGS)
@given(ops=ops_strategy, iters=iters_strategy, config=baseline_configs)
def test_fast_forward_identical_random_programs_latencies(ops, iters, config):
    trace = run_program(build_random_program(ops, iters),
                        max_instructions=20_000)
    for lat in LATENCY_POINTS:
        cfg = config.with_latencies(lat)
        ref, _ = run_backend("reference", trace, cfg)
        ff, _ = run_backend("fast-forward", trace, cfg)
        assert blob(ref) == blob(ff)


@settings(**SETTINGS)
@given(seed=gather_seeds, iters=gather_iters)
def test_fast_forward_identical_spear_latencies(seed, iters):
    trace, table = gather_setup(seed, iters)
    for lat in LATENCY_POINTS:
        cfg = SPEAR_128.with_latencies(lat)
        ref, _ = run_backend("reference", trace, cfg, table)
        ff, _ = run_backend("fast-forward", trace, cfg, table)
        assert blob(ref) == blob(ff)
