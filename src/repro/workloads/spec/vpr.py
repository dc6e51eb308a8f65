"""``vpr`` — SPEC CINT2000 175.vpr (place & route) analog.

Simulated-annealing placement: draw a pair of cells from a move stream,
gather both cells' coordinates from a large placement array, evaluate the
bounding-box cost delta, and accept with a data-dependent, biased branch.

Published character (its Table 3 row in :mod:`repro.paper`): a moderate
SPEAR gain.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ..base import Workload, register

_CELLS = 1 << 16            # 64K cells x 2 words = 1 MiB
_CELL_WORDS = 2             # x, y
_MOVES = 6500
_P_ACCEPT = 0.10


@register
class VPR(Workload):
    name = "vpr"
    suite = "spec"
    eval_instructions = 70_000
    profile_instructions = 45_000
    mem_bytes = 16 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        place = rng.integers(0, 4096, size=_CELLS * _CELL_WORDS).astype(np.int64)
        moves = rng.integers(0, _CELLS, size=2 * _MOVES).astype(np.int64)
        # Bias the acceptance: encode the annealing decision in the move
        # stream's low bit so ~10% of moves are accepted.
        accept = self.biased_bits(2 * _MOVES, _P_ACCEPT, rng)
        moves = (moves << 1) | accept
        place_base = b.alloc(len(place), init=place)
        moves_base = b.alloc(len(moves), init=moves)

        b.li("r20", place_base)
        b.li("r21", moves_base)
        b.li("r22", _CELLS - 1)
        b.mov("r4", "r21")                    # move cursor
        b.li("r9", 0)                         # total cost delta
        b.li("r3", _MOVES)
        with b.loop_down("r3"):
            b.lw("r5", "r4", 0)               # move: cell a (stream)
            b.lw("r6", "r4", 8)               # move: cell b (stream)
            b.andi("r15", "r5", 1)            # acceptance bit
            b.srai("r5", "r5", 1)
            b.and_("r5", "r5", "r22")
            b.srai("r6", "r6", 1)
            b.and_("r6", "r6", "r22")
            b.slli("r7", "r5", 4)             # x CELL_WORDS x 8
            b.add("r7", "r7", "r20")
            b.lw("r10", "r7", 0)              # a.x (delinquent gather)
            b.lw("r11", "r7", 8)              # a.y
            b.slli("r8", "r6", 4)
            b.add("r8", "r8", "r20")
            b.lw("r12", "r8", 0)              # b.x (delinquent gather)
            b.lw("r13", "r8", 8)              # b.y
            b.sub("r14", "r10", "r12")        # bbox delta
            b.sub("r16", "r11", "r13")
            b.add("r14", "r14", "r16")
            reject = b.label()
            b.beq("r15", "r0", reject)        # ~90% rejected
            b.sw("r12", "r7", 0)              # swap accepted: exchange x
            b.sw("r10", "r8", 0)
            b.add("r9", "r9", "r14")
            b.place(reject)
            b.addi("r4", "r4", 16)
