"""``ray`` — DIS Ray Tracing analog.

Ray-object intersection: for each ray, gather a candidate object from a
large scene array (irregular access via an index buffer — the delinquent
load), then run a floating-point intersection test (dot products, a
discriminant, a square root on the hit path).

Published character (its Table 3 row in :mod:`repro.paper`): a modest
SPEAR gain; the FP latency partially masks memory latency.
"""

from __future__ import annotations

import numpy as np

from ...isa.builder import ProgramBuilder
from ..base import Workload, register

_OBJECTS = 1 << 12          # 4K objects x 4 words = 128 KiB
_OBJ_WORDS = 4              # cx, cy, cz, r^2 as floats
_RAYS = 4500
_P_HIT = 0.10


@register
class RayTracing(Workload):
    name = "ray"
    suite = "dis"
    notes = "FP latency masks memory latency"
    eval_instructions = 70_000
    profile_instructions = 45_000
    mem_bytes = 16 << 20

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        # Scene: object records; discriminant sign is controlled via r^2.
        scene = rng.standard_normal(_OBJECTS * _OBJ_WORDS)
        r2 = np.abs(scene[3::_OBJ_WORDS]) * 0.01
        hit = rng.random(_OBJECTS) < _P_HIT
        r2[hit] += 10.0      # big radius => discriminant positive => hit
        scene[3::_OBJ_WORDS] = r2
        idx = rng.integers(0, _OBJECTS, size=_RAYS).astype(np.int64)
        scene_base = b.alloc(len(scene), init=scene, dtype=np.float64)
        idx_base = b.alloc(_RAYS, init=idx)

        b.li("r20", scene_base)
        b.li("r21", idx_base)
        # Ray direction (unit-ish vector) in f10..f12.
        b.li("r4", 3); b.cvtif("f10", "r4")
        b.li("r4", 5); b.cvtif("f11", "r4")
        b.li("r4", 7); b.cvtif("f12", "r4")
        b.li("r9", 0)                         # hit counter
        b.li("r3", _RAYS)
        with b.loop_down("r3"):
            b.slli("r5", "r3", 3)
            b.add("r5", "r5", "r21")
            b.lw("r6", "r5", -8)              # object index (stream)
            b.slli("r7", "r6", 5)             # x 4 words x 8 B
            b.add("r7", "r7", "r20")
            b.flw("f1", "r7", 0)              # cx (delinquent gather)
            b.flw("f2", "r7", 8)              # cy
            b.flw("f3", "r7", 16)             # cz
            b.flw("f4", "r7", 24)             # r^2
            b.fmul("f5", "f1", "f10")         # b = c . d
            b.fmul("f6", "f2", "f11")
            b.fadd("f5", "f5", "f6")
            b.fmul("f6", "f3", "f12")
            b.fadd("f5", "f5", "f6")
            b.fmul("f7", "f1", "f1")          # |c|^2
            b.fmul("f8", "f2", "f2")
            b.fadd("f7", "f7", "f8")
            b.fmul("f8", "f3", "f3")
            b.fadd("f7", "f7", "f8")
            b.fsub("f7", "f7", "f4")          # |c|^2 - r^2
            b.fmul("f8", "f5", "f5")
            b.fsub("f8", "f8", "f7")          # discriminant
            b.li("r10", 0); b.cvtif("f9", "r10")
            miss = b.label()
            b.flt("r11", "f8", "f9")
            b.bne("r11", "r0", miss)          # ~90% miss -> predictable-ish
            b.fabs("f8", "f8")
            b.fsqrt("f13", "f8")              # hit path: distance
            b.addi("r9", "r9", 1)
            b.place(miss)
