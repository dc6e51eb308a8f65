"""Fuzz-found kernels promoted to permanent workloads.

The differential fuzzing campaign (``repro fuzz run``, seed 0, 1000
programs — see docs/fuzzing.md) surfaced kernels with the strongest
SPEAR interactions in the generated corpus, plus the campaign's first
confirmed simulator bug.  The most instructive ones are frozen here as
first-class workloads so figures, benchmarks and regression runs can
exercise them by name without regenerating the corpus.

Each class pins the exact :class:`~repro.fuzz.generator.KernelSpec`
JSON captured at promotion time: later generator changes can never
silently alter these kernels.  Array *data* is seeded by the workload
name like every other workload, so the measured character below is a
property of the registered name, verified by ``tests/fuzz``.
"""

from __future__ import annotations

from ..fuzz.generator import SpecWorkload, spec_from_json
from .base import register

# fuzz:v1:0:928 — the campaign's strongest speedup (1.90x there, 1.59x
# under this name): a chase-fed gather behind a biased hammock, exactly
# the delinquent-load-under-branch shape SPEAR targets.
_GAIN = ('{"finit": [1e+300, 0.5, 0.933932, 3.141592653589793, -6.973616,'
         ' 14.639136], "init": [2, -2473882175226545805,'
         ' 4611686018427387907, 9223372036854775807, 2531658499410545548,'
         ' 4172307112570329268, 7, -2254895947073212259], "loops": [[51,'
         ' [["chase", 2, 4, 1], ["hammock", "blt", 4, 0, [["gather", 0, 2,'
         ' 4], ["chase", 5, 2, 1]], []], ["stream", 1, 4], ["chase", 0, 6,'
         ' 1]]]], "mem_words": 4096, "p_taken": 0.6832, "version": 1}')

# fuzz:v1:0:39 — a single hot loop mixing a pointer chase with rem and
# shift chains (1.85x in the campaign, 1.83x under this name).
_MIX = ('{"finit": [0.5, 3.141592653589793, 3.609508, 0.5, -1.0,'
        ' 3.141592653589793], "init": [-13, 1087751592253214807, 1, -13,'
        ' -47017921329884914, 9007199254740993, 3826583928327130613,'
        ' -2147483648], "loops": [[146, [["chase", 7, 7, 1], ["alu",'
        ' "srai", 4, 5, 3, 62], ["stream", 0, 4], ["alu", "and", 4, 0, 3,'
        ' -14], ["alu", "srai", 1, 6, 5, 18], ["div", "rem", 6, 2, 6]]]],'
        ' "mem_words": 16384, "p_taken": 0.4434, "version": 1}')

# fuzz:v1:0:315 — the campaign's only regression (0.93x): an L1-resident
# 128-word footprint where p-thread overhead cannot pay for itself.
_DRAG = ('{"finit": [3.141592653589793, 0.197183, -1e+300, -0.858533,'
         ' 1e-300, 1e+300], "init": [-9223372036854775808,'
         ' 9007199254740993, 3629111972113685414, 9007199254740993,'
         ' -9223372036854775808, -13, -13, 4611686018427387907], "loops":'
         ' [[1, [["hammock", "entropy", 1, 4, [["stream", 1, 4], ["cvtif",'
         ' 3, 5]], [["store", 0, 7]]], ["div", "div", 2, 0, 2], ["stream",'
         ' 2, 1], ["alu", "sll", 1, 4, 7, -37], ["fp", "fmax", 3, 3, 3],'
         ' ["bstore", 4, 2], ["alu", "or", 3, 1, 7, -2], ["alu", "slli",'
         ' 5, 2, 6, 37]]], [71, [["div", "rem", 7, 3, 0], ["alu", "andi",'
         ' 4, 6, 5, 159], ["chase", 3, 5, 1], ["gather", 5, 5, 4]]]],'
         ' "mem_words": 128, "p_taken": 0.4706, "version": 1}')

# fuzz:v1:0:791 shrunk — the campaign's first confirmed simulator bug:
# srl by a zero shift amount left an unsigned >= 2^63 in the register
# file, which a following store overflowed (see
# tests/regress/srl_zero_shift_unwrapped.json).
_SRL = ('{"finit": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "init": [0, 0, 0, 0,'
        ' 0, 0, 0, 0], "loops": [[3, [["store", 7, 4], ["alu", "srl", 7,'
        ' 3, 6, -17], ["gather", 3, 1, 4]]]], "mem_words": 8, "p_taken":'
        ' 0.5231, "version": 1}')


class _Promoted(SpecWorkload):
    """Base for promoted kernels: spec frozen in ``_SPEC``."""

    _SPEC = ""

    def __init__(self):
        super().__init__(spec_from_json(self._SPEC), self.name)


@register
class FuzzGain(_Promoted):
    name = "fzgain"
    notes = "fuzz-found: chase-fed gather under a hammock"
    _SPEC = _GAIN


@register
class FuzzMix(_Promoted):
    name = "fzmix"
    notes = "fuzz-found: chase + rem/shift single loop"
    _SPEC = _MIX


@register
class FuzzDrag(_Promoted):
    name = "fzdrag"
    notes = "fuzz-found: L1-resident, overhead-bound"
    _SPEC = _DRAG


@register
class FuzzSrl(_Promoted):
    name = "fzsrl"
    notes = "fuzz-found: srl-by-zero simulator bug kernel"
    _SPEC = _SRL
