"""``bzip2`` — SPEC CINT2000 256.bzip2 analog.

The Burrows-Wheeler front end's bucket sort: stream a large block,
increment a hot 256-entry counter table, then scatter positions through a
read-modify-write on a megabyte-scale pointer array at data-dependent
offsets (the delinquent access pattern).

Published character (its Table 3 row in :mod:`repro.paper`): a small
SPEAR gain.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ..base import Workload, register

_BLOCK = 1 << 16            # 64K symbols
_PTRS = 1 << 12             # 4K-entry pointer array = 32 KiB (hot)
_SYMBOLS = 8000


@register
class Bzip2(Workload):
    name = "bzip2"
    suite = "spec"
    eval_instructions = 70_000
    profile_instructions = 45_000
    mem_bytes = 16 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        block = rng.integers(0, 256, size=_BLOCK).astype(np.int64)
        # Scatter targets: block value scaled into the pointer array with a
        # per-symbol perturbation, precomputed as data.
        scatter = rng.integers(0, _PTRS, size=_BLOCK).astype(np.int64)
        ptrs = rng.integers(0, 1 << 20, size=_PTRS).astype(np.int64)
        block_base = b.alloc(_BLOCK, init=block)
        scat_base = b.alloc(_BLOCK, init=scatter)
        ptr_base = b.alloc(_PTRS, init=ptrs)
        count_base = b.alloc(256, init=np.zeros(256, dtype=np.int64))

        b.li("r20", block_base)
        b.li("r21", scat_base)
        b.li("r22", ptr_base)
        b.li("r23", count_base)
        b.mov("r4", "r20")                    # block cursor
        b.mov("r5", "r21")                    # scatter cursor
        b.li("r9", 0)
        b.li("r3", _SYMBOLS)
        with b.loop_down("r3"):
            b.lw("r6", "r4", 0)               # symbol (stream)
            b.slli("r7", "r6", 3)
            b.add("r7", "r7", "r23")
            b.lw("r8", "r7", 0)               # count[symbol] (hot, hits)
            b.addi("r8", "r8", 1)
            b.sw("r8", "r7", 0)
            b.lw("r10", "r5", 0)              # scatter target (stream)
            b.slli("r11", "r10", 3)
            b.add("r11", "r11", "r22")
            b.lw("r12", "r11", 0)             # ptr[target] (delinquent RMW)
            b.xor("r12", "r12", "r6")
            b.sw("r12", "r11", 0)             # write back
            # BWT rank mixing: the sort's comparison arithmetic, hot ALU
            b.slli("r13", "r6", 7)
            b.xor("r13", "r13", "r12")
            b.srai("r14", "r13", 3)
            b.add("r13", "r13", "r14")
            b.mul("r15", "r6", "r8")
            b.xor("r13", "r13", "r15")
            b.srai("r16", "r15", 5)
            b.add("r9", "r9", "r16")
            rare = b.label()
            b.bne("r8", "r9", rare)           # count milestone: rarely equal
            b.addi("r9", "r9", 16)
            b.place(rare)
            b.addi("r4", "r4", 8)
            b.addi("r5", "r5", 8)
