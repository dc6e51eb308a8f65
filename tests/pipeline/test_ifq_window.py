"""The IFQ as an index window, checked after every cycle.

The timing model keeps no per-entry IFQ state: the queue is the trace
indices ``[_decoded, _fetch_idx)`` followed by ``_bubbles`` wrong-path
placeholders, and the entries whose p-thread indicator is still set are
the marked-pc indices at or past ``max(_pe_idx, _decoded)``.  These tests
step traced paper-workload runs one cycle at a time under each wrong-path
model, skipping and walking, and check that the window, the bubbles,
mispredict squashes and the marked deque keep the shape the model relies
on.
"""

from __future__ import annotations

import dataclasses
from itertools import islice

import pytest

from repro.core.configs import SPEAR_128
from repro.harness import ExperimentRunner
from repro.observe import RingBufferSink

from ..conftest import WALK_OR_SKIP, timing_sim

WORKLOADS = ("mcf", "gzip", "tr")
WRONG_PATH = ("reconverge", "bubbles", "stall")


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instruction_scale=0.05)


def check_window(sim, marked_pc) -> None:
    """The per-cycle invariants of the IFQ window and marked deque."""
    decoded, fetch_idx = sim._decoded, sim._fetch_idx
    assert sim._committed <= decoded <= fetch_idx
    occupancy = fetch_idx - decoded + sim._bubbles
    assert occupancy <= sim.config.ifq_size
    if sim._bubbles:
        assert sim._await_branch_idx >= 0, "bubbles outside a mispredict"
    marked = sim._marked
    assert all(a < b for a, b in zip(marked, islice(marked, 1, None)))
    if marked:
        assert marked[-1] < fetch_idx
    low = max(sim._pe_idx, decoded)
    assert [i for i in marked if i >= low] == \
        [i for i in range(low, fetch_idx) if marked_pc[i]]


@WALK_OR_SKIP
@pytest.mark.parametrize("wrong_path", WRONG_PATH)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_ifq_window_invariants(runner, workload, wrong_path, walk):
    art = runner.artifacts(workload)
    config = dataclasses.replace(SPEAR_128, wrong_path=wrong_path)
    table = art.binary.table
    sim = timing_sim(art.eval_trace, config, table, walk=walk,
                     warmup=art.warmup_trace, tracer=RingBufferSink())
    marked_pc = [e.pc in table.marked_pcs for e in art.eval_trace.entries]
    assert any(marked_pc)

    resolutions = squashed_real = max_bubbles = 0
    running = True
    while running:
        branch = sim._await_branch_idx
        before = (sim._fetch_idx, sim._bubbles,
                  sim.stats.wrong_path_flushed)
        running = sim.step()
        check_window(sim, marked_pc)
        max_bubbles = max(max_bubbles, sim._bubbles)
        if branch >= 0 and sim._await_branch_idx != branch:
            # The branch resolved this cycle: decode had stopped right
            # past it, the squash took the whole IFQ, and the redirect
            # penalty keeps fetch idle for the rest of the cycle.
            resolutions += 1
            fetch_idx, bubbles, flushed = before
            assert sim._decoded == sim._fetch_idx == branch + 1
            assert sim._bubbles == 0
            assert sim.stats.wrong_path_flushed - flushed == \
                fetch_idx - (branch + 1) + bubbles
            squashed_real += fetch_idx - (branch + 1)

    assert sim._committed == len(art.eval_trace)
    assert resolutions == sim.stats.mispredicts > 0
    # Each model leaves its own footprint in the IFQ while it waits: only
    # reconverge fetches real entries past the branch, and stall nothing.
    assert (squashed_real > 0) == (wrong_path == "reconverge")
    if wrong_path == "bubbles":
        assert max_bubbles > 0
    elif wrong_path == "stall":
        assert max_bubbles == 0
