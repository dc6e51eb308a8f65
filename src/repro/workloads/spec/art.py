"""``art`` — SPEC CFP2000 179.art analog.

art (Adaptive Resonance Theory image recognition) spends its time in F1
layer passes: long streaming dot products between input vectors and a
weight matrix far larger than the L2 cache.  Every cache block is touched
exactly once per pass, so pre-execution prefetches with near-perfect
accuracy — art posts the paper's best cache-miss reduction (the
``fig8-best`` claim) and a large gain from the longer IFQ (its Table 3
row); both are in :mod:`repro.paper`.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ...paper import CLAIMS
from ..base import Workload, register

_NEURONS = 56
_INPUTS = 1 << 10           # weights: 56 x 1024 x 8 B = 448 KiB > L2
_PASSES = 1


@register
class Art(Workload):
    name = "art"
    suite = "spec"
    notes = f"best miss reduction (-{CLAIMS['fig8-best'].paper}%)"
    eval_instructions = 70_000
    profile_instructions = 45_000
    mem_bytes = 16 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        weights = rng.standard_normal(_NEURONS * _INPUTS)
        inputs = rng.standard_normal(_INPUTS)
        w_base = b.alloc(len(weights), init=weights, dtype=np.float64)
        in_base = b.alloc(_INPUTS, init=inputs, dtype=np.float64)
        out_base = b.alloc(_NEURONS)

        b.li("r20", w_base)
        b.li("r21", in_base)
        b.li("r22", out_base)
        b.mov("r4", "r20")                     # weight cursor (streams 448K)
        b.li("r2", _NEURONS)
        with b.loop_counted("r1", "r2"):       # neuron loop
            b.mov("r5", "r21")                 # input cursor
            b.li("r6", 0); b.cvtif("f9", "r6")  # activation = 0.0
            b.li("r7", _INPUTS // 4)
            with b.loop_down("r7"):            # unrolled x4 dot product
                b.flw("f1", "r4", 0)           # w (streaming, delinquent)
                b.flw("f2", "r5", 0)           # in (hot)
                b.fmul("f3", "f1", "f2")
                b.fadd("f9", "f9", "f3")
                b.flw("f4", "r4", 8)
                b.flw("f5", "r5", 8)
                b.fmul("f6", "f4", "f5")
                b.fadd("f9", "f9", "f6")
                b.flw("f10", "r4", 16)
                b.flw("f11", "r5", 16)
                b.fmul("f12", "f10", "f11")
                b.fadd("f9", "f9", "f12")
                b.flw("f13", "r4", 24)
                b.flw("f14", "r5", 24)
                b.fmul("f15", "f13", "f14")
                b.fadd("f9", "f9", "f15")
                b.addi("r4", "r4", 32)
                b.addi("r5", "r5", 32)
            b.slli("r8", "r1", 3)
            b.add("r8", "r8", "r22")
            b.fsw("f9", "r8", 0)               # activation out
