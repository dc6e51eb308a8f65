"""``tr`` — Atlantic Stressmark Transitive Closure analog.

Floyd-Warshall-style relaxation over a dense distance matrix: the inner
loop streams ``d[i][j]`` and ``d[k][j]``, compares against ``d[i][k] +
d[k][j]`` and conditionally updates.  The update branch depends on loaded
data and is only mildly biased, giving the low published branch hit ratio
(its Table 3 row in :mod:`repro.paper`).

Expected SPEAR behaviour (Figure 6 discussion): *slight degradation* —
"tr does not successfully work with our IFQ-based pre-execution because of
the low branch hit ratio".  Mispredicts keep draining the IFQ below the
trigger threshold, while the marked slice still steals decode slots and
memory ports.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ..base import Workload, register

_N = 512                    # 512x512 matrix x 8 B = 2 MiB >> L2
_ROUNDS = 30                # (k, i) pair rounds; inner loop over j
_P_UPDATE = 0.12            # relaxation succeeds for ~12% of entries


@register
class TransitiveClosure(Workload):
    name = "tr"
    suite = "stressmark"
    notes = "low branch hit ratio defeats IFQ lookahead"
    eval_instructions = 70_000
    profile_instructions = 45_000
    mem_bytes = 24 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        n2 = _N * _N
        # Distances arranged so that d[i][k] + d[k][j] < d[i][j] holds for
        # roughly _P_UPDATE of the entries: draw d from a wide range and
        # the candidate sums from a biased one.
        dist = rng.integers(100, 1000, size=n2).astype(np.int64)
        # Pre-scale a quarter of the entries upward so relaxation wins there.
        bump = rng.random(n2) < _P_UPDATE
        dist[bump] += 5000
        dist_base = b.alloc(n2, init=dist)

        b.li("r20", dist_base)
        b.li("r3", _ROUNDS)
        with b.loop_down("r3"):
            # Row selection cycles among a small working set: after the
            # first visits the rows are cache resident, so tr's misses are
            # rare and SPEAR has nothing to win back — only bandwidth and
            # decode slots to lose (the paper's slight-degradation case).
            b.andi("r4", "r3", 3)          # i = round mod 4 (16 KiB, L1-resident)
            b.addi("r6", "r4", 2)          # k = i + 2
            b.li("r7", _N * 8)
            b.mul("r8", "r4", "r7")
            b.add("r8", "r8", "r20")       # &d[i][0]
            b.mul("r10", "r6", "r7")
            b.add("r10", "r10", "r20")     # &d[k][0]
            # d[i][k]
            b.slli("r11", "r6", 3)
            b.add("r12", "r8", "r11")
            b.lw("r13", "r12", 0)          # d[i][k]
            b.li("r2", _N)
            with b.loop_counted("r1", "r2"):
                b.slli("r14", "r1", 3)
                b.add("r15", "r8", "r14")
                b.lw("r16", "r15", 0)      # d[i][j]   (streaming, delinquent)
                b.add("r17", "r10", "r14")
                b.lw("r18", "r17", 0)      # d[k][j]   (streaming)
                b.add("r19", "r13", "r18")  # d[i][k] + d[k][j]
                no_update = b.label()
                b.bge("r19", "r16", no_update)   # data-dependent, ~75/25
                b.sw("r19", "r15", 0)      # relax
                b.place(no_update)
