"""``mcf`` — SPEC CINT2000 181.mcf analog.

mcf's network-simplex pricing loop streams a multi-megabyte arc array and
dereferences each arc's tail/head node pointers — two data-dependent
gathers per arc into a node array that also misses.  It is the most
memory-bound program in CINT2000 and the paper's best case (the
``fig6-best`` claim in :mod:`repro.paper`).

The gathers are independent across arcs, so SPEAR converts IFQ lookahead
into memory-level parallelism almost perfectly; the backward slices are a
handful of instructions each.

Published character (its Table 3 row in :mod:`repro.paper`): the
branchiest of the suite, largest SPEAR speedup.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ...paper import CLAIMS
from ..base import Workload, register

_ARCS = 1 << 16             # 64K arcs x 4 words = 2 MiB (streamed)
_ARC_WORDS = 4              # tail, head, cost, flow
_NODES = 1 << 18            # 256K nodes x 2 words = 4 MiB (gathered)
_NODE_WORDS = 2             # potential, depth
_SWEEP = 7000
_P_NEGATIVE = 0.10          # fraction of arcs priced into the basket
_STATUS = 1 << 11           # 2K status words = 16 KiB (stays cache resident)
_BASIS = 1 << 18            # 256K-entry basis structure = 2 MiB (gathered)


@register
class MCF(Workload):
    name = "mcf"
    suite = "spec"
    notes = f"best case: {CLAIMS['fig6-best'].paper:+}% in the paper"
    eval_instructions = 70_000
    profile_instructions = 45_000
    mem_bytes = 48 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        arcs = np.zeros(_ARCS * _ARC_WORDS, dtype=np.int64)
        arcs[0::_ARC_WORDS] = rng.integers(0, _NODES, size=_ARCS)  # tail
        arcs[1::_ARC_WORDS] = rng.integers(0, _NODES, size=_ARCS)  # head
        arcs[2::_ARC_WORDS] = rng.integers(1, 1000, size=_ARCS)    # cost
        nodes = np.zeros(_NODES * _NODE_WORDS, dtype=np.int64)
        nodes[0::_NODE_WORDS] = rng.integers(0, 500, size=_NODES)   # potential
        # Arc status flags: a small, cache-resident array consulted by the
        # basis-membership test (mcf checks arc->ident before pricing).
        # It drives the biased branch from *cheap* data, so mispredicts
        # resolve quickly and fetch runs far ahead of the ROB.
        status = self.biased_bits(_STATUS, _P_NEGATIVE, rng)
        basis = rng.integers(0, 1 << 20, size=_BASIS).astype(np.int64)
        arcs_base = b.alloc(len(arcs), init=arcs)
        nodes_base = b.alloc(len(nodes), init=nodes)
        status_base = b.alloc(_STATUS, init=status)
        basis_base = b.alloc(_BASIS, init=basis)

        b.li("r20", arcs_base)
        b.li("r21", nodes_base)
        b.li("r22", status_base)
        b.li("r23", _STATUS - 1)
        b.li("r25", _BASIS - 1)
        b.li("r26", basis_base)
        b.mov("r4", "r20")                     # arc cursor
        b.li("r9", 0)                          # basket checksum
        b.li("r3", _SWEEP)
        with b.loop_down("r3"):
            b.lw("r5", "r4", 0)                # arc->tail   (stream)
            b.lw("r6", "r4", 8)                # arc->head   (stream)
            b.lw("r7", "r4", 16)               # arc->cost   (stream)
            b.slli("r10", "r5", 4)             # x NODE_WORDS x 8
            b.add("r10", "r10", "r21")
            b.lw("r11", "r10", 0)              # tail->potential (delinquent)
            b.slli("r12", "r6", 4)
            b.add("r12", "r12", "r21")
            b.lw("r13", "r12", 0)              # head->potential (delinquent)
            b.sub("r14", "r11", "r13")
            b.add("r14", "r14", "r7")          # reduced cost
            # basis-tree lookup: a third independent gather (mcf walks the
            # spanning-tree structure arrays during pricing)
            b.add("r17", "r5", "r6")
            b.and_("r17", "r17", "r25")
            b.slli("r18", "r17", 3)
            b.add("r18", "r18", "r26")
            b.lw("r19", "r18", 0)              # basis entry (delinquent)
            b.add("r9", "r9", "r19")
            # basis-membership test: cheap, hot status word
            b.and_("r15", "r3", "r23")
            b.slli("r15", "r15", 3)
            b.add("r15", "r15", "r22")
            b.lw("r16", "r15", 0)              # status flag (hot)
            in_basis = b.label()
            b.bne("r16", "r0", in_basis)       # ~90% not taken... taken?
            b.add("r9", "r9", "r14")           # price out: into the basket
            b.place(in_basis)
            b.addi("r4", "r4", _ARC_WORDS * 8)
