"""Profiling tool — compiler module ② of the paper (Figure 4).

Replays a committed-path trace (from the *profiling* input, which must be
distinct from the evaluation input, §4.1) against the cache geometry and
collects the dynamic information the slicer needs:

* per-static-load cache-miss counts → delinquent-load candidates;
* dynamic register-dependence edges with occurrence counts (consumer pc →
  producer pc), giving the *hybrid slicing* its dynamic filtering:
  majority-path producers keep high counts, cold paths don't (Figure 5);
* memory-dependence edges (load pc → store pc through the same word);
* per-loop iteration counts and estimated cycles per iteration (d-cycles,
  §4.2) for the region-based prefetching range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..functional.trace import Trace
from ..memory.cache import Cache
from ..memory.hierarchy import L1D_CONFIG, L2_CONFIG, LatencyConfig
from .cfg import CFG


@dataclass
class LoopProfile:
    """Dynamic statistics of one natural loop."""

    header: int
    iterations: int = 0
    dyn_instrs: int = 0
    l1_misses: int = 0

    def d_cycle(self, latencies: LatencyConfig) -> float:
        """Estimated cycles of one iteration (the paper's d-cycle).

        A simple cost model: one cycle per instruction plus the average
        L2-latency cost of its L1 misses.  The absolute scale only has to
        be commensurate with the slicer's budget (120 by default).
        """
        if not self.iterations:
            return 0.0
        return (self.dyn_instrs
                + self.l1_misses * latencies.l2) / self.iterations


@dataclass
class Profile:
    """Everything the profiling tool learned from one training run."""

    exec_counts: dict[int, int] = field(default_factory=dict)
    load_counts: dict[int, int] = field(default_factory=dict)
    miss_counts: dict[int, int] = field(default_factory=dict)
    #: consumer pc -> {producer pc: times observed}
    reg_edges: dict[int, dict[int, int]] = field(default_factory=dict)
    #: load pc -> {store pc: times observed} (same-word memory dependence)
    mem_edges: dict[int, dict[int, int]] = field(default_factory=dict)
    loops: dict[int, LoopProfile] = field(default_factory=dict)
    total_instrs: int = 0
    total_l1_misses: int = 0


def profile_trace(trace: Trace, cfg: CFG, *,
                  latencies: LatencyConfig = LatencyConfig()) -> Profile:
    """Run the profiling analysis over one training trace."""
    profile = Profile()
    l1 = Cache(L1D_CONFIG)
    l2 = Cache(L2_CONFIG)

    exec_counts = profile.exec_counts
    load_counts = profile.load_counts
    miss_counts = profile.miss_counts
    reg_edges = profile.reg_edges
    mem_edges = profile.mem_edges

    last_writer_pc: dict[int, int] = {}
    last_store_pc: dict[int, int] = {}

    # Loop accounting: map each pc to its innermost loop header once.
    header_of_pc: dict[int, int | None] = {}
    loop_profiles = profile.loops
    for header, loop in cfg.loops.items():
        loop_profiles[header] = LoopProfile(header)
    header_pcs = {h: cfg.blocks[h].start for h in cfg.loops}

    def innermost_header(pc: int) -> int | None:
        h = header_of_pc.get(pc, -2)
        if h == -2:
            loop = cfg.innermost_loop_of_pc(pc)
            h = loop.header if loop is not None else None
            header_of_pc[pc] = h
        return h

    for entry in trace:
        pc = entry.pc
        exec_counts[pc] = exec_counts.get(pc, 0) + 1
        profile.total_instrs += 1

        for src in entry.srcs:
            prod = last_writer_pc.get(src)
            if prod is not None:
                edges = reg_edges.get(pc)
                if edges is None:
                    edges = reg_edges[pc] = {}
                edges[prod] = edges.get(prod, 0) + 1

        missed = False
        if entry.is_load:
            load_counts[pc] = load_counts.get(pc, 0) + 1
            word = entry.addr >> 3
            st = last_store_pc.get(word)
            if st is not None:
                edges = mem_edges.get(pc)
                if edges is None:
                    edges = mem_edges[pc] = {}
                edges[st] = edges.get(st, 0) + 1
            if not l1.access(entry.addr):
                missed = True
                miss_counts[pc] = miss_counts.get(pc, 0) + 1
                profile.total_l1_misses += 1
                l2.access(entry.addr)
        elif entry.is_store:
            last_store_pc[entry.addr >> 3] = pc
            if not l1.access(entry.addr, is_write=True):
                l2.access(entry.addr, is_write=True)

        if entry.dst >= 0:
            last_writer_pc[entry.dst] = pc

        header = innermost_header(pc)
        if header is not None:
            lp = loop_profiles[header]
            lp.dyn_instrs += 1
            if missed:
                lp.l1_misses += 1
            if pc == header_pcs[header]:
                lp.iterations += 1
            # Outer loops accumulate inner work too.
            parent = cfg.loops[header].parent
            while parent is not None:
                plp = loop_profiles[parent]
                plp.dyn_instrs += 1
                if missed:
                    plp.l1_misses += 1
                if pc == header_pcs[parent]:
                    plp.iterations += 1
                parent = cfg.loops[parent].parent

    return profile
