"""The timing-kernel interface: construction by name, step/run parity.

Skip *equivalence* (``run()`` byte-identical to the per-cycle walk)
lives in ``tests/properties/test_backends.py``; this module covers the
interface itself — ``make_simulator``, the single-cycle ``step`` driver
on the skip and on the walk, the skip's event horizon and mid-run
snapshots.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import PThread, PThreadTable
from repro.core.configs import BASELINE, SPEAR_128
from repro.functional import run_program
from repro.memory import MemoryHierarchy
from repro.pipeline import TimingSimulator, make_simulator

from ..conftest import (WALK_OR_SKIP, build_gather_program, gather_load_pcs,
                        timing_sim)


def gather_cell(iters=150):
    prog = build_gather_program(seed=3, iters=iters, n=1 << 12)
    idx_pc, gather_pc = gather_load_pcs(prog)
    table = PThreadTable()
    table.add(PThread(dload_pc=gather_pc,
                      slice_pcs=frozenset(range(idx_pc, gather_pc + 1)),
                      live_ins=(1, 2)))
    return run_program(prog, max_instructions=30_000), table


class TestMakeSimulator:
    @pytest.mark.parametrize("backend, cls", [
        ("reference", TimingSimulator), (None, TimingSimulator),
        ("fast-forward", TimingSimulator)])
    def test_names(self, backend, cls):
        """Every accepted name builds the one kernel, idle skip on."""
        trace, table = gather_cell(20)
        sim = make_simulator(backend, trace, SPEAR_128, table,
                             MemoryHierarchy(latencies=SPEAR_128.latencies))
        assert type(sim) is cls
        assert sim._ff

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError, match="unknown timing-kernel"
                                             ".*'warp-drive'"):
            make_simulator("warp-drive", None, BASELINE)


class TestStepDriver:
    @WALK_OR_SKIP
    def test_step_loop_reaches_run_result(self, walk):
        trace, table = gather_cell()
        stepped = timing_sim(trace, SPEAR_128, table, walk=walk)
        while stepped.step():
            pass
        ran = timing_sim(trace, SPEAR_128, table, walk=walk)
        assert (pickle.dumps(stepped.run(), pickle.HIGHEST_PROTOCOL)
                == pickle.dumps(ran.run(), pickle.HIGHEST_PROTOCOL))

    @WALK_OR_SKIP
    def test_step_advances_one_cycle(self, walk):
        trace, table = gather_cell()
        sim = timing_sim(trace, SPEAR_128, table, walk=walk)
        for _ in range(25):
            before = sim._cycle
            if not sim.step():
                break
            assert sim._cycle == before + 1

    def test_step_after_completion_is_a_noop(self):
        trace, table = gather_cell(30)
        sim = timing_sim(trace, SPEAR_128, table)
        while sim.step():
            pass
        cycle = sim._cycle
        assert sim.step() is False
        assert sim._cycle == cycle


class TestHorizonAndSnapshot:
    def test_fast_forward_jumps_stop_at_pending_completions(self):
        """A jump lands at or before the next completion event and the
        fetch-redirect cycle, never past them or the deadlock bound."""
        trace, table = gather_cell()
        sim = timing_sim(trace, SPEAR_128, table)
        jump = sim._fast_forward
        landed = []

        def recording(cycle, *args):
            bound = min(sim._events, default=SPEAR_128.max_cycles)
            if sim._await_branch_idx < 0 and sim._fetch_resume_cycle > cycle:
                bound = min(bound, sim._fetch_resume_cycle)
            state = jump(cycle, *args)
            if state is not None:
                landed.append((state[0], bound))
            return state

        sim._fast_forward = recording
        sim.run()
        assert landed
        assert all(horizon <= bound for horizon, bound in landed)
        assert any(horizon == bound for horizon, bound in landed)

    def test_snapshot_mid_run_and_at_end(self):
        trace, table = gather_cell()
        sim = timing_sim(trace, SPEAR_128, table)
        for _ in range(50):
            sim.step()
        mid = sim.stats_snapshot()
        assert mid["cycles"] == 50
        assert 0 <= mid["committed"] <= len(trace)
        assert mid["ipc"] == mid["committed"] / 50
        result = sim.run()
        end = sim.stats_snapshot()
        assert end["committed"] == result.stats.committed == len(trace)
        assert end["cycles"] == result.stats.cycles

    def test_fast_forward_diagnostics_stay_out_of_results(self):
        """The jump counters are observability only: the result object
        must not carry them (byte identity with the walk)."""
        trace, table = gather_cell()
        sim = timing_sim(trace, SPEAR_128, table)
        result = sim.run()
        assert sim.ff_jumps > 0 and sim.ff_cycles_skipped > 0
        assert "ff_jumps" not in result.stats.snapshot()
        blob = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        assert b"ff_jumps" not in blob and b"ff_cycles_skipped" not in blob
