"""``pointer`` — Atlantic Stressmark Pointer analog.

The Stressmark performs discrete *hop sequences*: each sequence starts
from a seed drawn from an index stream, then follows a fixed number of
data-dependent hops through a large table.  Within a sequence the hops are
serially dependent (no prefetcher can beat the chain), but sequences are
independent of each other — exactly the structure that rewards deeper
lookahead: the baseline's ROB covers only a couple of sequences, while
SPEAR's p-thread launches the seed loads and first hops of sequences far
beyond the reorder window.

Published character (its Table 3 row in :mod:`repro.paper`): SPEAR
gains and holds up well under long latencies (Figure 9).
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ..base import Workload, register

_NODES = 1 << 17          # 128K-entry hop table = 1 MiB
_HOPS = 4                 # serial hops per sequence
_SEQUENCES = 7000


@register
class Pointer(Workload):
    name = "pointer"
    suite = "stressmark"
    notes = "independent hop sequences"
    eval_instructions = 60_000
    profile_instructions = 40_000
    warmup_instructions = 40_000
    mem_bytes = 16 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        table = self.random_cycle(_NODES, rng)
        seeds = rng.integers(0, _NODES, size=_SEQUENCES).astype(np.int64)
        table_base = b.alloc(_NODES, init=table)
        seeds_base = b.alloc(_SEQUENCES, init=seeds)

        b.li("r20", table_base)
        b.li("r21", seeds_base)
        b.mov("r4", "r21")                 # seed cursor
        b.li("r9", 0)                      # checksum
        b.li("r3", _SEQUENCES)
        with b.loop_down("r3"):
            b.lw("r10", "r4", 0)           # sequence seed (stream)
            for _ in range(_HOPS):         # unrolled serial hop chain
                b.slli("r5", "r10", 3)
                b.add("r5", "r5", "r20")
                b.lw("r10", "r5", 0)       # the hop (delinquent)
            b.add("r9", "r9", "r10")
            b.addi("r4", "r4", 8)

    def spec_of(self):
        """IR port: streamed sequence seeds feeding 4-hop serial chases
        through the cycle table, checksum-folded — the hop-sequence
        structure at generator scale (see ``Workload.spec_of``)."""
        from ...fuzz.generator import KernelSpec
        body = (("stream", 0, 1),          # sequence seed (index stream)
                ("chase", 1, 0, 4),        # 4 serial hops from the seed
                ("alu", "add", 2, 2, 1, 0))  # checksum += last hop
        return KernelSpec(mem_words=4096, p_taken=0.5,
                          init=(0,) * 8, finit=(0.0,) * 6,
                          loops=((120, body),))
