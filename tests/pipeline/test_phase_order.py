"""Within a cycle the pipeline issues before it extracts or decodes.

So an instance that the main thread decodes, or the PE extracts, in
cycle ``c`` issues in cycle ``c + 1`` at the earliest, and the issue loop
needs no "entered this cycle" guard per instance.  Fully traced runs of
paper workloads check that order: every issue event comes at a later
cycle than the decode (main thread) or extract (p-thread) event of the
same instance, and every instance that enters issues exactly once.
"""

from __future__ import annotations

import pytest

from repro.core.configs import BASELINE, SPEAR_128, SPEAR_SF_128
from repro.harness import ExperimentRunner
from repro.memory import MemoryHierarchy
from repro.observe import DECODE, EXTRACT, ISSUE, RingBufferSink
from repro.pipeline import MAIN_THREAD, P_THREAD, TimingSimulator


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instruction_scale=0.05)


@pytest.mark.parametrize("config", [BASELINE, SPEAR_128, SPEAR_SF_128],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("workload", ["pointer", "mcf", "art"])
def test_issue_comes_after_decode_or_extract(runner, workload, config):
    art = runner.artifacts(workload)
    sink = RingBufferSink(None)
    result = TimingSimulator(
        art.eval_trace, config, art.binary.table,
        MemoryHierarchy(latencies=config.latencies),
        warmup=art.warmup_trace, tracer=sink).run()
    entered: dict[tuple[int, int], int] = {}
    issued: set[tuple[int, int]] = set()
    for ev in sink.events():
        key = (ev.thread, ev.trace_idx)
        if ev.kind == DECODE or ev.kind == EXTRACT:
            assert key not in entered, f"{key} entered twice"
            entered[key] = ev.cycle
        elif ev.kind == ISSUE:
            assert key not in issued, f"{key} issued twice"
            issued.add(key)
            assert ev.cycle > entered[key], (
                f"{key} issued in cycle {ev.cycle}, entered in "
                f"{entered[key]}")
    assert issued == set(entered)
    threads = {thread for thread, _idx in entered}
    assert MAIN_THREAD in threads
    if config.spear_enabled:
        assert P_THREAD in threads
        assert result.stats.spear.pthread_instrs == \
            sum(1 for thread, _idx in entered if thread == P_THREAD)
