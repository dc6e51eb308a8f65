"""``matrix`` — Atlantic Stressmark Matrix analog.

The original solves a sparse linear system by conjugate gradient; the hot
loop is a CSR sparse matrix-vector product: stream the value/column
arrays, gather ``x[col[k]]``.  Branches are loop bounds only — essentially
perfectly predictable (see its Table 3 row in :mod:`repro.paper`).

This benchmark is the paper's best case for the longer IFQ (Table 3's
highest SPEAR-256 / SPEAR-128 ratio): the gather addresses are
independent across elements, so prefetching converts IFQ lookahead
directly into memory-level parallelism, and the deeper queue doubles the
visible window.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ...paper import TABLE
from ..base import Workload, register

_ROWS = 260
_NNZ_PER_ROW = 24
_XDIM = 1 << 17             # 128K-entry dense vector = 1 MiB (gather target)


@register
class Matrix(Workload):
    name = "matrix"
    suite = "stressmark"
    notes = f"largest IFQ-256 benefit ({TABLE[name].ratio}x over 128)"
    eval_instructions = 70_000
    profile_instructions = 45_000
    mem_bytes = 24 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        nnz = _ROWS * _NNZ_PER_ROW
        cols = rng.integers(0, _XDIM, size=nnz).astype(np.int64)
        vals = rng.integers(1, 100, size=nnz).astype(np.int64)
        x = rng.integers(1, 100, size=_XDIM).astype(np.int64)
        cols_base = b.alloc(nnz, init=cols)
        vals_base = b.alloc(nnz, init=vals)
        x_base = b.alloc(_XDIM, init=x)
        y_base = b.alloc(_ROWS)

        b.li("r20", cols_base)
        b.li("r21", vals_base)
        b.li("r22", x_base)
        b.li("r23", y_base)
        b.li("r2", _ROWS)
        with b.loop_counted("r1", "r2"):           # row loop
            b.li("r9", 0)                          # row accumulator
            b.li("r5", _NNZ_PER_ROW)
            with b.loop_down("r5"):                # nnz loop
                b.lw("r6", "r20", 0)               # col[k]   (stream)
                b.slli("r7", "r6", 3)
                b.add("r8", "r7", "r22")
                b.lw("r10", "r8", 0)               # x[col[k]] (delinquent gather)
                b.lw("r11", "r21", 0)              # val[k]   (stream)
                b.mul("r12", "r10", "r11")
                b.add("r9", "r9", "r12")
                # CG inner-product bookkeeping: preconditioner scaling and
                # residual update arithmetic (keeps the loop body long, so
                # lookahead is bound by the IFQ depth, not the RUU — the
                # source of matrix's outsized IFQ-256 benefit)
                b.srai("r13", "r12", 7)
                b.add("r14", "r13", "r10")
                b.xor("r15", "r14", "r11")
                b.slli("r16", "r15", 2)
                b.sub("r17", "r16", "r13")
                b.add("r18", "r17", "r9")
                b.srai("r18", "r18", 9)
                b.xor("r9", "r9", "r18")
                b.mul("r19", "r14", "r15")
                b.srai("r19", "r19", 11)
                b.add("r9", "r9", "r19")
                b.addi("r20", "r20", 8)
                b.addi("r21", "r21", 8)
            b.slli("r13", "r1", 3)
            b.add("r14", "r13", "r23")
            b.sw("r9", "r14", 0)                   # y[row]

    def spec_of(self):
        """IR port: CSR SpMV — streamed columns/values, a gathered
        ``x[col]``, a long ALU reduction and the row store; the
        independent-gather MLP structure at generator scale."""
        from ...fuzz.generator import KernelSpec
        body = (("stream", 0, 1),          # col[k]
                ("gather", 1, 0, 2),       # x[col[k]] (delinquent)
                ("stream", 2, 1),          # val[k]
                ("alu", "mul", 3, 1, 2, 0),
                ("alu", "add", 4, 4, 3, 0),
                ("alu", "srai", 5, 3, 0, 7),
                ("alu", "xor", 4, 4, 5, 0),
                ("store", 4, 2))           # y accumulator write-back
        return KernelSpec(mem_words=8192, p_taken=0.5,
                          init=(0,) * 8, finit=(0.0,) * 6,
                          loops=((85, body),))
