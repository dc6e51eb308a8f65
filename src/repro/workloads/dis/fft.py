"""``fft`` — DIS Fast Fourier Transform analog.

A decimation-in-time butterfly pass: each element pair is gathered through
a *bit-reversed* index.  Computing the bit-reversed address takes a long
serial chain of shift/mask/or steps — which is exactly why the paper
reports fft as a SPEAR failure case: "the p-threads contain a large number
of instructions (1,129) which may slow the execution of the p-thread".

Our bit-reversal is a genuine 16-bit reversal computed with an unrolled
shift-mask cascade, so the backward slice of the gather includes the whole
cascade: the p-thread is as slow as the main thread's own address
computation and pre-execution buys little while stealing decode slots and
memory ports.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ..base import Workload, register

_LOGN = 12
_N = 1 << _LOGN             # 4K complex points x 2 words = 64 KiB
_BUTTERFLIES = 4200


@register
class FFT(Workload):
    name = "fft"
    suite = "dis"
    notes = "oversized p-thread slices"
    eval_instructions = 80_000
    profile_instructions = 50_000
    mem_bytes = 16 << 20

    def _emit_bit_reverse(self, b: ProgramBuilder, src: str, dst: str) -> None:
        """16-bit bit reversal of ``src`` into ``dst``: a serial cascade of
        shift/mask/or stages — the deliberately heavy address slice."""
        # Stage masks for the classic swap cascade.
        stages = [(1, 0x5555), (2, 0x3333), (4, 0x0F0F), (8, 0x00FF)]
        b.mov(dst, src)
        for shift, mask in stages:
            b.andi("r26", dst, mask)
            b.slli("r26", "r26", shift)
            b.srli("r27", dst, shift)
            b.andi("r27", "r27", mask)
            b.or_(dst, "r26", "r27")

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        data = rng.standard_normal(2 * _N)
        data_base = b.alloc(2 * _N, init=data, dtype=np.float64)
        twiddle = rng.standard_normal(2 * 1024)
        tw_base = b.alloc(2 * 1024, init=twiddle, dtype=np.float64)

        b.li("r20", data_base)
        b.li("r21", tw_base)
        b.li("r22", _N - 1)
        b.li("r10", int(rng.integers(0, _N)))      # walking index
        b.li("r23", 2533)                           # odd stride (co-prime)
        b.li("r3", _BUTTERFLIES)
        with b.loop_down("r3"):
            # Next index: mix-and-bit-reverse of the previous index.  The
            # whole cascade is loop-carried, so the p-thread's slice is as
            # long — and as serial — as the main thread's own address
            # computation: pre-execution cannot get ahead (the paper's
            # oversized-slice pathology).
            b.add("r10", "r10", "r23")
            b.and_("r10", "r10", "r22")
            self._emit_bit_reverse(b, "r10", "r10")
            b.srli("r11", "r10", 16 - _LOGN)       # scale to table size
            b.and_("r10", "r11", "r22")
            b.xori("r11", "r10", 1)                # butterfly partner
            b.slli("r12", "r10", 4)                # complex stride 16 B
            b.add("r12", "r12", "r20")
            b.slli("r13", "r11", 4)
            b.add("r13", "r13", "r20")
            b.flw("f1", "r12", 0)                  # a.re
            b.flw("f2", "r12", 8)                  # a.im
            b.flw("f3", "r13", 0)                  # b.re (delinquent)
            b.flw("f4", "r13", 8)                  # b.im
            b.andi("r14", "r10", 1023)
            b.slli("r14", "r14", 4)
            b.add("r14", "r14", "r21")
            b.flw("f5", "r14", 0)                  # w.re
            b.flw("f6", "r14", 8)                  # w.im
            # butterfly: t = w*b; a' = a + t; b' = a - t
            b.fmul("f7", "f3", "f5")
            b.fmul("f8", "f4", "f6")
            b.fsub("f7", "f7", "f8")               # t.re
            b.fmul("f9", "f3", "f6")
            b.fmul("f10", "f4", "f5")
            b.fadd("f9", "f9", "f10")              # t.im
            b.fadd("f11", "f1", "f7")
            b.fsub("f12", "f1", "f7")
            b.fadd("f13", "f2", "f9")
            b.fsub("f14", "f2", "f9")
            b.fsw("f11", "r12", 0)
            b.fsw("f13", "r12", 8)
            b.fsw("f12", "r13", 0)
            b.fsw("f14", "r13", 8)
