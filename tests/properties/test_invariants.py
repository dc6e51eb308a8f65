"""Property-based invariants of the timing simulator.

Every test is derandomized (fixed example stream) so CI is exactly
reproducible; the properties themselves are the contracts the rest of
the system leans on:

* **cross-run determinism** — the same trace through the same config
  yields identical stats and memory snapshots, the foundation of the
  byte-identical figure/report guarantees;
* **fill partition** — ``timely + late + unused == fills`` for every
  speculative-fill source (the timeliness attribution loses nothing);
* **commit conservation** — the timing model commits exactly the
  functional trace, no instruction duplicated or dropped;
* **observer neutrality** — attaching the tracer and sampler never
  changes a run's architectural stats (the tracer-is-None fast path and
  the instrumented path agree);
* **subscription fidelity** — a sink subscribed to some event kinds
  receives exactly those kinds' events of the full stream, although the
  simulator builds no event of any other kind.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PThread, PThreadTable
from repro.core.configs import BASELINE, BASELINE_STRIDE, SPEAR_128
from repro.functional import run_program
from repro.memory import MemoryHierarchy
from repro.observe import (EVENT_KINDS, IntervalSampler, RingBufferSink,
                           filter_events)

from ..conftest import build_gather_program, gather_load_pcs
from .generators import build_random_program, iters_strategy, ops_strategy

SETTINGS = dict(derandomize=True, deadline=None, max_examples=8,
                print_blob=False)

baseline_configs = st.sampled_from([BASELINE, BASELINE_STRIDE])

gather_seeds = st.integers(0, 7)
gather_iters = st.integers(100, 300)

kind_subsets = st.frozensets(st.sampled_from(EVENT_KINDS), min_size=1)


def simulate(trace, config, table=None, *, traced=False, tracer=None):
    from repro.pipeline import TimingSimulator
    if traced and tracer is None:
        tracer = RingBufferSink(capacity=None)
    sampler = IntervalSampler(500) if traced else None
    sim = TimingSimulator(trace, config, table,
                          MemoryHierarchy(latencies=config.latencies),
                          tracer=tracer, sampler=sampler)
    return sim.run()


def check_subscription(trace, config, kinds, table=None):
    """A sink subscribed to ``kinds`` gets the full stream's events of
    those kinds, and the run matches the untraced one."""
    full = RingBufferSink(capacity=None)
    simulate(trace, config, table, traced=True, tracer=full)
    subscribed = RingBufferSink(capacity=None, kinds=kinds)
    observed = simulate(trace, config, table, traced=True, tracer=subscribed)
    assert subscribed.events() == filter_events(full.events(), kinds=kinds)
    plain = simulate(trace, config, table)
    assert observed.stats == plain.stats
    assert observed.memory == plain.memory


def gather_setup(seed: int, iters: int):
    """Randomized gather kernel plus its hand-built p-thread table."""
    prog = build_gather_program(seed=seed, iters=iters, n=1 << 12)
    idx_pc, gather_pc = gather_load_pcs(prog)
    table = PThreadTable()
    table.add(PThread(dload_pc=gather_pc,
                      slice_pcs=frozenset(range(idx_pc, gather_pc + 1)),
                      live_ins=(1, 2)))
    return run_program(prog, max_instructions=30_000), table


@settings(**SETTINGS)
@given(ops=ops_strategy, iters=iters_strategy, config=baseline_configs)
def test_cross_run_determinism_random_programs(ops, iters, config):
    trace = run_program(build_random_program(ops, iters),
                        max_instructions=20_000)
    first = simulate(trace, config)
    second = simulate(trace, config)
    assert first.stats == second.stats
    assert first.memory == second.memory


@settings(**SETTINGS)
@given(seed=gather_seeds, iters=gather_iters)
def test_cross_run_determinism_spear(seed, iters):
    trace, table = gather_setup(seed, iters)
    first = simulate(trace, SPEAR_128, table)
    second = simulate(trace, SPEAR_128, table)
    assert first.stats == second.stats
    assert first.memory == second.memory


@settings(**SETTINGS)
@given(seed=gather_seeds, iters=gather_iters)
def test_fill_partition(seed, iters):
    trace, table = gather_setup(seed, iters)
    result = simulate(trace, SPEAR_128, table)
    fills = result.memory["fills"]
    assert any(fills[s]["attempts"] for s in ("pthread", "prefetch")), \
        "gather kernel should exercise the speculative-fill path"
    for source in ("pthread", "prefetch"):
        f = fills[source]
        assert f["timely"] + f["late"] + f["unused"] == f["fills"], \
            f"{source}: fill classification must partition the fills"


@settings(**SETTINGS)
@given(ops=ops_strategy, iters=iters_strategy, config=baseline_configs)
def test_commit_count_matches_functional_trace(ops, iters, config):
    trace = run_program(build_random_program(ops, iters),
                        max_instructions=20_000)
    result = simulate(trace, config)
    assert result.stats.committed == len(trace)


@settings(**SETTINGS)
@given(seed=gather_seeds, iters=gather_iters)
def test_commit_count_matches_functional_trace_spear(seed, iters):
    trace, table = gather_setup(seed, iters)
    result = simulate(trace, SPEAR_128, table)
    assert result.stats.committed == len(trace)


@settings(**SETTINGS)
@given(ops=ops_strategy, iters=iters_strategy, config=baseline_configs)
def test_tracer_never_changes_results(ops, iters, config):
    trace = run_program(build_random_program(ops, iters),
                        max_instructions=20_000)
    plain = simulate(trace, config)
    observed = simulate(trace, config, traced=True)
    assert observed.stats == plain.stats
    assert observed.memory == plain.memory


@settings(**SETTINGS)
@given(seed=gather_seeds, iters=gather_iters)
def test_tracer_never_changes_results_spear(seed, iters):
    trace, table = gather_setup(seed, iters)
    plain = simulate(trace, SPEAR_128, table)
    observed = simulate(trace, SPEAR_128, table, traced=True)
    assert observed.stats == plain.stats
    assert observed.memory == plain.memory


@settings(**SETTINGS)
@given(ops=ops_strategy, iters=iters_strategy, config=baseline_configs,
       kinds=kind_subsets)
def test_subscribed_sink_gets_filtered_stream(ops, iters, config, kinds):
    trace = run_program(build_random_program(ops, iters),
                        max_instructions=20_000)
    check_subscription(trace, config, kinds)


@settings(**SETTINGS)
@given(seed=gather_seeds, iters=gather_iters, kinds=kind_subsets)
def test_subscribed_sink_gets_filtered_stream_spear(seed, iters, kinds):
    trace, table = gather_setup(seed, iters)
    check_subscription(trace, SPEAR_128, kinds, table)
