"""``nbh`` — Atlantic Stressmark Neighborhood analog.

The original computes gray-level difference statistics between each image
pixel and neighbors at a fixed displacement.  We walk a large 2-D image in
a strided order that defeats the caches (row stride exceeds an L1 way) and
combine each pixel with two displaced neighbors.

Published character (its Table 3 row in :mod:`repro.paper`): an
essentially perfect branch hit ratio and solid SPEAR gains — address
arithmetic is simple, so slices are tiny and prefetching is timely.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ..base import Workload, register

_W = 512                   # image width (words)
_H = 384                   # image height -> 512*384*8 = 1.5 MiB
_PIXELS = 8000
_DISP = 7 * _W + 3         # neighbor displacement (paper uses fixed (dx,dy))
_STRIDE = 17 * _W + 11     # visit order: large co-prime stride


@register
class Neighborhood(Workload):
    name = "nbh"
    suite = "stressmark"
    eval_instructions = 70_000
    profile_instructions = 45_000
    mem_bytes = 24 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        n = _W * _H
        pad = _DISP + 64   # margin so neighbor loads stay in bounds
        image = rng.integers(0, 256, size=n + pad).astype(np.int64)
        img_base = b.alloc(n + pad, init=image)
        b.li("r20", img_base)
        b.li("r10", 0)                      # pixel index
        b.li("r22", n)                      # wrap modulus
        b.li("r23", _STRIDE)
        b.li("r3", _PIXELS)
        b.li("r9", 0)                       # accumulated statistic
        with b.loop_down("r3"):
            b.slli("r4", "r10", 3)
            b.add("r5", "r4", "r20")
            b.lw("r6", "r5", 0)             # center pixel (delinquent)
            b.lw("r7", "r5", _DISP * 8)     # displaced neighbor
            b.lw("r8", "r5", 64 * 8)        # neighbor in a different block
            b.sub("r11", "r6", "r7")
            b.mul("r12", "r11", "r11")      # squared difference
            b.sub("r13", "r6", "r8")
            b.mul("r14", "r13", "r13")
            b.add("r9", "r9", "r12")
            b.add("r9", "r9", "r14")
            # advance with a co-prime stride, wrapping by subtraction
            b.add("r10", "r10", "r23")
            wrap = b.label()
            b.blt("r10", "r22", wrap)
            b.sub("r10", "r10", "r22")
            b.place(wrap)
