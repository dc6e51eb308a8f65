"""``equake`` — SPEC CFP2000 183.equake analog.

equake's hot kernel is ``smvp``: a sparse matrix-vector product over the
earthquake mesh — stream the nonzero coefficients, gather the displacement
vector through the column index, multiply-accumulate in floating point.

The paper singles out the two CFP2000 codes: "these applications contain
long latency floating-point operations which mask the long memory latency
operations.  In fact, decoupled memory accesses are particularly
beneficial when faced with long latency floating-point operations."

Published character (its Table 3 row in :mod:`repro.paper`): a solid
SPEAR gain.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ..base import Workload, register

_NNZ = 1 << 16              # 64K nonzeros: values 512 KiB + cols 512 KiB
_VDIM = 1 << 16             # 64K-entry vector = 512 KiB (gather target)
_ROWS = 750
_NNZ_PER_ROW = 18


@register
class Equake(Workload):
    name = "equake"
    suite = "spec"
    notes = "FP latency masks memory latency"
    eval_instructions = 70_000
    profile_instructions = 45_000
    mem_bytes = 16 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        vals = rng.standard_normal(_NNZ)
        cols = rng.integers(0, _VDIM, size=_NNZ).astype(np.int64)
        v = rng.standard_normal(_VDIM)
        # Row lengths vary a little so the inner-loop exit branch is not
        # perfectly predictable (published hit ratio 0.90).
        row_len = rng.integers(_NNZ_PER_ROW - 8, _NNZ_PER_ROW + 8,
                               size=_ROWS).astype(np.int64)
        vals_base = b.alloc(_NNZ, init=vals, dtype=np.float64)
        cols_base = b.alloc(_NNZ, init=cols)
        v_base = b.alloc(_VDIM, init=v, dtype=np.float64)
        len_base = b.alloc(_ROWS, init=row_len)
        out_base = b.alloc(_ROWS)

        b.li("r20", vals_base)
        b.li("r21", cols_base)
        b.li("r22", v_base)
        b.li("r23", len_base)
        b.li("r24", out_base)
        b.mov("r4", "r20")                    # value cursor
        b.mov("r5", "r21")                    # column cursor
        b.li("r2", _ROWS)
        with b.loop_counted("r1", "r2"):
            b.slli("r6", "r1", 3)
            b.add("r6", "r6", "r23")
            b.lw("r7", "r6", 0)               # this row's nnz count
            b.li("r8", 0); b.cvtif("f9", "r8")  # row accumulator = 0.0
            with b.loop_down("r7"):
                b.lw("r10", "r5", 0)          # col[k] (stream)
                b.slli("r11", "r10", 3)
                b.add("r11", "r11", "r22")
                b.flw("f1", "r11", 0)         # v[col[k]] (delinquent gather)
                b.flw("f2", "r4", 0)          # A[k] (stream)
                b.fmul("f3", "f1", "f2")
                b.fadd("f9", "f9", "f3")      # long FP dependence chain
                b.addi("r4", "r4", 8)
                b.addi("r5", "r5", 8)
            b.slli("r12", "r1", 3)
            b.add("r12", "r12", "r24")
            b.fsw("f9", "r12", 0)             # out[row]
