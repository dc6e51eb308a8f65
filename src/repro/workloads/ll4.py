"""``ll4`` — Lawrence Livermore Loop 4 (banded linear equations).

This is the paper's Figure 1 working example: the innermost loop loads
``y[j]`` with a non-unit stride and accumulates ``xz += y[j] * x[k]``.
The stride defeats the small cache blocks, making the ``y[j]`` load the
delinquent load of the walk-through.

Not part of the 15-benchmark evaluation — it backs the
``examples/ll4_walkthrough.py`` script that reproduces Figure 1's
d-load/backward-slice/p-thread decomposition.
"""

from __future__ import annotations

import numpy as np

from ..isa.builder import ProgramBuilder
from .base import Workload, register

_N = 1 << 16                # y vector: 512 KiB
_STRIDE = 5                 # words between consecutive y[j] accesses
_OUTER = 900
_INNER = 24


@register
class LL4(Workload):
    name = "ll4"
    suite = "example"
    notes = "Figure 1 walk-through kernel"
    eval_instructions = 60_000
    profile_instructions = 40_000
    mem_bytes = 8 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        y = rng.standard_normal(_N)
        x = rng.standard_normal(2 * _INNER)
        y_base = b.alloc(_N, init=y, dtype=np.float64)
        x_base = b.alloc(len(x), init=x, dtype=np.float64)

        b.li("r20", y_base)
        b.li("r21", x_base)
        b.li("r22", (_N - _INNER * _STRIDE - 8) * 8)
        b.li("r10", 0)                       # j0 byte offset, walks y
        b.li("r3", _OUTER)
        with b.loop_down("r3"):
            b.li("r8", 0); b.cvtif("f9", "r8")   # xz accumulator
            b.mov("r4", "r10")               # j byte offset
            b.mov("r5", "r21")               # &x[k]
            b.li("r2", _INNER)
            with b.loop_counted("r1", "r2"):
                b.add("r6", "r4", "r20")
                b.flw("f1", "r6", 0)         # y[j]  <- the delinquent load
                b.flw("f2", "r5", 0)         # x[k]  (hot)
                b.fmul("f3", "f1", "f2")
                b.fadd("f9", "f9", "f3")     # xz += y[j] * x[k]
                b.addi("r4", "r4", _STRIDE * 8)
                b.addi("r5", "r5", 8)
            # advance the band, wrapping within y
            b.addi("r10", "r10", _INNER * _STRIDE * 8 + 24)
            wrap = b.label()
            b.blt("r10", "r22", wrap)
            b.li("r10", 0)
            b.place(wrap)

    def spec_of(self):
        """IR port: strided fp loads of ``y[j]`` feeding a
        multiply-accumulate — the Figure 1 delinquent-load structure at
        generator scale."""
        from ..fuzz.generator import KernelSpec
        body = (("alu", "addi", 0, 0, 0, _STRIDE),  # j += stride
                ("fload", 1, 0),           # y[j]  <- the delinquent load
                ("alu", "addi", 2, 2, 0, 1),        # k++
                ("fload", 3, 2),           # x[k]  (hot)
                ("fp", "fmul", 4, 1, 3),
                ("fp", "fadd", 5, 5, 4))   # xz += y[j] * x[k]
        return KernelSpec(mem_words=4096, p_taken=0.5,
                          init=(0,) * 8, finit=(0.0,) * 6,
                          loops=((190, body),))
