"""Profiling tool: miss counts, dynamic dependence edges, d-cycles."""

import numpy as np
import pytest

from repro.compiler import (CFG, SlicerConfig, find_delinquent_loads,
                            profile_trace)
from repro.functional import run_program
from repro.isa import ProgramBuilder
from repro.memory import LatencyConfig

from ..conftest import build_gather_program, gather_load_pcs


@pytest.fixture(scope="module")
def gather_profile():
    prog = build_gather_program(seed=3, iters=600)
    cfg = CFG(prog)
    trace = run_program(prog, max_instructions=30_000)
    return prog, cfg, profile_trace(trace, cfg)


class TestMissCounts:
    def test_gather_load_is_hottest(self, gather_profile):
        prog, cfg, profile = gather_profile
        idx_pc, gather_pc = gather_load_pcs(prog)
        # The slicer ranks d-loads worst first.
        assert find_delinquent_loads(profile, SlicerConfig())[0] == gather_pc

    def test_load_counts_match_trace(self, gather_profile):
        prog, cfg, profile = gather_profile
        idx_pc, gather_pc = gather_load_pcs(prog)
        assert profile.load_counts[gather_pc] == 600
        assert profile.load_counts[idx_pc] == 600

    def test_miss_rate_of(self, gather_profile):
        prog, cfg, profile = gather_profile
        _, gather_pc = gather_load_pcs(prog)
        rate = profile.miss_counts[gather_pc] / profile.load_counts[gather_pc]
        assert 0.3 < rate <= 1.0

    def test_streaming_load_misses_less(self, gather_profile):
        prog, cfg, profile = gather_profile
        idx_pc, gather_pc = gather_load_pcs(prog)
        # the index stream hits 3 of 4 accesses per 32-byte block
        assert profile.miss_counts.get(idx_pc, 0) < profile.miss_counts[gather_pc]

    def test_totals(self, gather_profile):
        _, _, profile = gather_profile
        assert profile.total_instrs == 30_000 or profile.total_instrs > 0
        assert profile.total_l1_misses == sum(profile.miss_counts.values())


class TestDependenceEdges:
    def test_gather_depends_on_address_chain(self, gather_profile):
        prog, cfg, profile = gather_profile
        idx_pc, gather_pc = gather_load_pcs(prog)
        # gather reads r6 <- add <- slli <- lw(idx)
        producers = profile.reg_edges[gather_pc]
        assert (gather_pc - 1) in producers       # the add
        add_producers = profile.reg_edges[gather_pc - 1]
        assert (gather_pc - 2) in add_producers   # the slli
        slli_producers = profile.reg_edges[gather_pc - 2]
        assert idx_pc in slli_producers

    def test_edge_counts_scale_with_executions(self, gather_profile):
        prog, cfg, profile = gather_profile
        _, gather_pc = gather_load_pcs(prog)
        assert profile.reg_edges[gather_pc][gather_pc - 1] >= 590

    def test_memory_edges(self):
        b = ProgramBuilder()
        buf = b.alloc(8)
        b.li("r1", buf)
        b.li("r2", 42)
        b.li("r3", 50)
        with b.loop_down("r3"):
            b.sw("r2", "r1", 0)
            b.lw("r4", "r1", 0)
        b.halt()
        prog = b.build()
        cfg = CFG(prog)
        trace = run_program(prog)
        profile = profile_trace(trace, cfg)
        store_pc = next(pc for pc, i in enumerate(prog.instructions) if i.is_store)
        load_pc = next(pc for pc, i in enumerate(prog.instructions) if i.is_load)
        assert profile.mem_edges[load_pc][store_pc] == 50


class TestLoopProfiles:
    def test_iteration_counts(self, gather_profile):
        prog, cfg, profile = gather_profile
        loop = next(iter(cfg.loops.values()))
        lp = profile.loops[loop.header]
        assert lp.iterations == 600

    def test_d_cycle_positive_and_scales_with_latency(self, gather_profile):
        prog, cfg, profile = gather_profile
        loop = next(iter(cfg.loops.values()))
        lp = profile.loops[loop.header]
        short = lp.d_cycle(LatencyConfig(1, 4, 40))
        long = lp.d_cycle(LatencyConfig(1, 20, 200))
        assert 0 < short < long

    def test_nested_loop_accumulation(self):
        b = ProgramBuilder()
        b.li("r1", 10)
        outer = b.here("outer")
        b.li("r2", 5)
        inner = b.here("inner")
        b.addi("r2", "r2", -1)
        b.bgtz("r2", inner)
        b.addi("r1", "r1", -1)
        b.bgtz("r1", outer)
        b.halt()
        prog = b.build()
        cfg = CFG(prog)
        profile = profile_trace(run_program(prog), cfg)
        inner_hdr = next(h for h, l in cfg.loops.items() if l.depth == 2)
        outer_hdr = next(h for h, l in cfg.loops.items() if l.depth == 1)
        assert profile.loops[inner_hdr].iterations == 50
        assert profile.loops[outer_hdr].iterations == 10
        # the outer loop's dynamic instructions include the inner loop's
        assert (profile.loops[outer_hdr].dyn_instrs
                > profile.loops[inner_hdr].dyn_instrs)

    def test_empty_loop_profile_d_cycle(self, gather_profile):
        from repro.compiler import LoopProfile
        assert LoopProfile(0).d_cycle(LatencyConfig()) == 0.0
