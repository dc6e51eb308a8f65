"""``dm`` — DIS Data Management analog.

The DIS data-management benchmark exercises database index operations:
hashing keys, probing buckets, following overflow chains.  Our kernel
hashes a key stream into a large bucket table, loads the bucket header
(random access — the delinquent load) and follows one overflow hop for a
biased minority of probes.

Published character (its Table 3 row in :mod:`repro.paper`): very
branchy, short loop bodies; small SPEAR gains.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ..base import Workload, register

_BUCKETS = 1 << 13          # 8K buckets x 8 B = 64 KiB (mostly L2-resident)
_KEYS = 1 << 12
_PROBES = 10000
_P_OVERFLOW = 0.11


@register
class DataManagement(Workload):
    name = "dm"
    suite = "dis"
    notes = "short branchy probe loop"
    eval_instructions = 60_000
    profile_instructions = 40_000
    mem_bytes = 16 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        keys = rng.integers(0, 1 << 30, size=_KEYS).astype(np.int64)
        # Bucket payloads carry the overflow decision in their low bit.
        buckets = rng.integers(0, _BUCKETS, size=_BUCKETS).astype(np.int64) << 1
        overflow = self.biased_bits(_BUCKETS, _P_OVERFLOW, rng)
        buckets |= overflow
        keys_base = b.alloc(_KEYS, init=keys)
        bkt_base = b.alloc(_BUCKETS, init=buckets)

        b.li("r20", keys_base)
        b.li("r21", bkt_base)
        b.li("r22", _BUCKETS - 1)
        b.li("r23", _KEYS - 1)
        b.li("r9", 0)                         # found counter
        b.li("r3", _PROBES)
        with b.loop_down("r3"):
            b.and_("r4", "r3", "r23")
            b.slli("r4", "r4", 3)
            b.add("r4", "r4", "r20")
            b.lw("r5", "r4", 0)               # key (hot stream)
            # hash: multiplicative + mask
            b.li("r6", 0x9E3779B1)
            b.mul("r7", "r5", "r6")
            b.srai("r7", "r7", 11)
            b.and_("r7", "r7", "r22")
            b.slli("r8", "r7", 3)
            b.add("r8", "r8", "r21")
            b.lw("r10", "r8", 0)              # bucket header (delinquent)
            b.andi("r11", "r10", 1)
            done = b.label()
            b.beq("r11", "r0", done)          # ~89% no overflow
            # overflow hop: header's upper bits name the next bucket
            b.srai("r12", "r10", 1)
            b.and_("r12", "r12", "r22")
            b.slli("r13", "r12", 3)
            b.add("r13", "r13", "r21")
            b.lw("r14", "r13", 0)             # overflow bucket
            b.add("r9", "r9", "r14")
            b.place(done)
            b.add("r9", "r9", "r10")
