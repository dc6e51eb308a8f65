"""``field`` — Atlantic Stressmark Field analog.

The original scans a large field of words for token sequences.  The access
pattern is purely sequential, so hardware-visible misses are rare (one
compulsory miss per cache block on the first pass, hits afterwards): the
paper states "the cache miss rate is too low to benefit from prefetching"
and Figure 6 shows SPEAR ≈ baseline.

We scan a field that fits comfortably in the L2 repeatedly, so after the
cold first pass the kernel is compute/branch bound.  The SPEAR compiler is
expected to find no delinquent load above threshold — the interesting
property this analog tests is that SPEAR does *no harm* when there is
nothing to prefetch.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ..base import Workload, register

_FIELD = 1 << 11            # 2K words = 16 KiB (fits in L1 after pass 1)
_PASSES = 20
_TOKEN = 77


@register
class Field(Workload):
    name = "field"
    suite = "stressmark"
    notes = "miss rate too low to benefit"
    eval_instructions = 70_000
    profile_instructions = 45_000
    mem_bytes = 8 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        field = rng.integers(0, 4096, size=_FIELD).astype(np.int64)
        # Sprinkle the token at ~2% of positions.
        hits = rng.random(_FIELD) < 0.02
        field[hits] = _TOKEN
        base = b.alloc(_FIELD, init=field)

        b.li("r20", base)
        b.li("r21", _TOKEN)
        b.li("r9", 0)                       # match count
        b.li("r3", _PASSES)
        with b.loop_down("r3"):
            b.mov("r4", "r20")
            b.li("r2", _FIELD)
            with b.loop_counted("r1", "r2"):
                b.lw("r5", "r4", 0)          # sequential scan
                b.addi("r4", "r4", 8)
                nomatch = b.label()
                b.bne("r5", "r21", nomatch)  # rarely equal -> predictable
                b.addi("r9", "r9", 1)
                b.place(nomatch)
                b.xor("r6", "r5", "r9")      # token statistics filler
                b.srai("r7", "r6", 2)
                b.add("r9", "r9", "r0")

    def spec_of(self):
        """IR port: a cache-resident sequential scan with a rare-token
        branch (p=0.02) and compute filler — the low-miss end of the
        spectrum at generator scale.  The tiny footprint amortizes the
        cold pass, so the L1 miss band stays low; the residual
        compulsory misses still buy SPEAR a small gain, unlike the
        full-size workload whose 20 passes make it exactly flat."""
        from ...fuzz.generator import KernelSpec
        body = (("stream", 0, 1),          # the sequential scan
                ("hammock", "entropy", 0, 1,
                 (("alu", "addi", 2, 2, 0, 1),), ()),   # rare token hit
                ("alu", "xor", 3, 0, 2, 0),
                ("alu", "srai", 4, 3, 0, 2))
        return KernelSpec(mem_words=64, p_taken=0.02,
                          init=(0,) * 8, finit=(0.0,) * 6,
                          loops=((200, body),))