"""The timing-kernel interface: construction by name, step/run parity.

Kernel *equivalence* (byte-identical results vs reference) lives in
``tests/properties/test_backends.py``; this module covers the interface
itself — ``make_simulator``, the single-cycle ``step`` driver,
fast-forward's event horizon and mid-run snapshots.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import PThread, PThreadTable
from repro.core.configs import BASELINE, SPEAR_128
from repro.functional import run_program
from repro.memory import MemoryHierarchy
from repro.pipeline import (FastForwardSimulator, TimingSimulator,
                            make_simulator)

from ..conftest import build_gather_program, gather_load_pcs


def gather_cell(iters=150):
    prog = build_gather_program(seed=3, iters=iters, n=1 << 12)
    idx_pc, gather_pc = gather_load_pcs(prog)
    table = PThreadTable()
    table.add(PThread(dload_pc=gather_pc,
                      slice_pcs=frozenset(range(idx_pc, gather_pc + 1)),
                      live_ins=(1, 2)))
    return run_program(prog, max_instructions=30_000), table


def build(backend, trace, config, table=None):
    return make_simulator(backend, trace, config, table,
                          MemoryHierarchy(latencies=config.latencies))


class TestMakeSimulator:
    @pytest.mark.parametrize("backend, cls", [
        ("reference", TimingSimulator), (None, TimingSimulator),
        ("fast-forward", FastForwardSimulator)])
    def test_names(self, backend, cls):
        trace, table = gather_cell(20)
        sim = build(backend, trace, SPEAR_128, table)
        assert type(sim) is cls
        assert sim.backend == (backend or "reference")

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError, match="unknown timing-kernel"
                                             ".*'warp-drive'"):
            make_simulator("warp-drive", None, BASELINE)


class TestStepDriver:
    @pytest.mark.parametrize("backend", ("reference", "fast-forward"))
    def test_step_loop_reaches_run_result(self, backend):
        trace, table = gather_cell()
        stepped = build(backend, trace, SPEAR_128, table)
        while stepped.step():
            pass
        ran = build(backend, trace, SPEAR_128, table)
        assert (pickle.dumps(stepped.run(), pickle.HIGHEST_PROTOCOL)
                == pickle.dumps(ran.run(), pickle.HIGHEST_PROTOCOL))

    @pytest.mark.parametrize("backend", ("reference", "fast-forward"))
    def test_step_advances_one_cycle(self, backend):
        trace, table = gather_cell()
        sim = build(backend, trace, SPEAR_128, table)
        for _ in range(25):
            before = sim._cycle
            if not sim.step():
                break
            assert sim._cycle == before + 1

    def test_step_after_completion_is_a_noop(self):
        trace, table = gather_cell(30)
        sim = build("reference", trace, SPEAR_128, table)
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
        sim = build("fast-forward", trace, SPEAR_128, table)
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
        sim = build("fast-forward", trace, SPEAR_128, table)
        for _ in range(50):
            sim.step()
        mid = sim.stats_snapshot()
        assert mid["backend"] == "fast-forward"
        assert mid["cycles"] == 50
        assert 0 <= mid["committed"] <= len(trace)
        assert mid["ipc"] == mid["committed"] / 50
        result = sim.run()
        end = sim.stats_snapshot()
        assert end["committed"] == result.stats.committed == len(trace)
        assert end["cycles"] == result.stats.cycles

    def test_fast_forward_diagnostics_stay_out_of_results(self):
        """The jump counters are observability only: the result object
        must not carry them (byte identity with reference)."""
        trace, table = gather_cell()
        sim = build("fast-forward", trace, SPEAR_128, table)
        result = sim.run()
        assert sim.ff_jumps > 0 and sim.ff_cycles_skipped > 0
        assert "ff_jumps" not in result.stats.snapshot()
        blob = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        assert b"ff_jumps" not in blob and b"ff_cycles_skipped" not in blob
