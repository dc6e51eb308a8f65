"""``update`` — Atlantic Stressmark Update analog.

Like Pointer, but a *single* serial chain whose nodes are modified as they
are visited (read-modify-write), plus a data-dependent branch taken for a
biased minority of nodes.  The serial dependence means extra IFQ lookahead
cannot be converted into extra memory-level parallelism — matching the
paper's Table 3, where update is one of only two benchmarks that get
*slower* with the longer IFQ thanks to its low branch hit ratio (see
its Table 3 row in :mod:`repro.paper`).
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ...paper import TABLE
from ..base import Workload, register

_NODES = 1 << 16          # 64K nodes x 8 B = 512 KiB
_ITERS = 12000
_P_TAKEN = 0.12           # biased data-dependent branch => ~0.88 hit ratio


@register
class Update(Workload):
    name = "update"
    suite = "stressmark"
    notes = f"longer IFQ hurts ({TABLE[name].ratio}x)"
    eval_instructions = 60_000
    profile_instructions = 40_000
    mem_bytes = 16 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        # Pack the branch-bias bit into the node value's bit 1 so the
        # chase value stays a valid next index in bits [63:2]... simpler:
        # keep two arrays: the chain and a payload with biased bits.
        chain = self.random_cycle(_NODES, rng)
        payload = self.biased_bits(_NODES, _P_TAKEN, rng)
        chain_base = b.alloc(_NODES, init=chain)
        pay_base = b.alloc(_NODES, init=payload)
        b.li("r20", chain_base)
        b.li("r21", pay_base)
        b.li("r10", int(rng.integers(0, _NODES)))   # cursor
        b.li("r3", _ITERS)
        b.li("r9", 1)                               # update value
        with b.loop_down("r3"):
            b.slli("r4", "r10", 3)
            b.add("r5", "r4", "r20")
            b.lw("r10", "r5", 0)          # serial hop (delinquent)
            b.add("r6", "r4", "r21")
            b.lw("r7", "r6", 0)           # payload of the *old* node
            b.add("r8", "r7", "r9")
            b.sw("r8", "r6", 0)           # the update (RMW)
            skip = b.label()
            b.beq("r7", "r0", skip)       # biased data-dependent branch
            b.addi("r9", "r9", 1)         # rare path: bump update value
            b.place(skip)

    def spec_of(self):
        """IR port: a single serial chain whose visited nodes are
        read-modify-written, plus the biased data-dependent branch
        (p=0.12) — the no-MLP structure at generator scale."""
        from ...fuzz.generator import KernelSpec
        body = (("chase", 0, 0, 1),        # the serial hop (delinquent)
                ("gather", 1, 0, 1),       # payload of the old node
                ("alu", "add", 2, 2, 1, 0),
                ("store", 2, 0),           # the update (RMW)
                ("hammock", "entropy", 0, 0,
                 (("alu", "addi", 3, 3, 0, 1),), ()))
        return KernelSpec(mem_words=4096, p_taken=_P_TAKEN,
                          init=(0,) * 8, finit=(0.0,) * 6,
                          loops=((110, body),))
