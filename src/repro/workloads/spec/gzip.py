"""``gzip`` — SPEC CINT2000 164.gzip analog.

LZ77 deflation: hash the next three input "bytes", look up the hash head
table, then compare the candidate match against the current position at
several offsets with early-exit branches.  The comparison is unrolled, so
*many distinct static loads* miss — mirroring the paper's diagnosis that
"gzip contains too many d-loads (49.2M) which causes an excessive amount
of triggering operations" and makes gzip one of the four benchmarks that
degrade slightly under SPEAR.

Published character (its Table 3 row in :mod:`repro.paper`): a slight
loss.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ..base import Workload, register

_WINDOW = 1 << 14           # 16K words = 128 KiB history window
_HASHES = 1 << 12           # 4K-entry head table (hot)
_POSITIONS = 6800
_P_LONG_MATCH = 0.35        # moderately unpredictable match-extend branches


@register
class Gzip(Workload):
    name = "gzip"
    suite = "spec"
    notes = "too many d-loads, excessive triggering"
    eval_instructions = 70_000
    profile_instructions = 45_000
    mem_bytes = 16 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        window = rng.integers(0, 256, size=_WINDOW).astype(np.int64)
        heads = rng.integers(0, _WINDOW - 64, size=_HASHES).astype(np.int64)
        win_base = b.alloc(_WINDOW, init=window)
        head_base = b.alloc(_HASHES, init=heads)

        b.li("r20", win_base)
        b.li("r21", head_base)
        b.li("r22", _HASHES - 1)
        b.li("r23", _WINDOW - 64)
        b.li("r10", 0)                        # current position
        b.li("r24", 6151)                     # position stride (odd)
        b.li("r9", 0)                         # emitted-symbol checksum
        b.li("r3", _POSITIONS)
        with b.loop_down("r3"):
            # position advance with wrap
            b.add("r10", "r10", "r24")
            wrap = b.label()
            b.blt("r10", "r23", wrap)
            b.sub("r10", "r10", "r23")
            b.place(wrap)
            b.slli("r4", "r10", 3)
            b.add("r4", "r4", "r20")
            b.lw("r5", "r4", 0)               # input word 0 (stream-ish)
            b.lw("r6", "r4", 8)               # input word 1
            # hash and head lookup
            b.slli("r7", "r5", 5)
            b.xor("r7", "r7", "r6")
            b.and_("r7", "r7", "r22")
            b.slli("r8", "r7", 3)
            b.add("r8", "r8", "r21")
            b.lw("r11", "r8", 0)              # head[h]: match pos (d-load 1)
            b.slli("r12", "r11", 3)
            b.add("r12", "r12", "r20")
            # unrolled match comparison: 4 distinct candidate loads, each a
            # separate static d-load with an early-exit branch
            stop = b.label()
            b.lw("r13", "r12", 0)             # candidate word 0 (d-load 2)
            b.bne("r13", "r5", stop)
            b.lw("r14", "r12", 8)             # candidate word 1 (d-load 3)
            b.bne("r14", "r6", stop)
            b.lw("r15", "r12", 16)            # candidate word 2 (d-load 4)
            b.lw("r16", "r4", 16)
            b.bne("r15", "r16", stop)
            b.lw("r17", "r12", 24)            # candidate word 3 (d-load 5)
            b.addi("r9", "r9", 4)             # long match emitted
            b.add("r9", "r9", "r17")
            b.place(stop)
            b.sw("r10", "r8", 0)              # update hash head
