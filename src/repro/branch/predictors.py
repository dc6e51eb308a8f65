"""Branch direction prediction.

The paper's configuration (Table 2) is a bimodal predictor with a
2048-entry table of 2-bit saturating counters, and it is the one kind the
timing model builds (``MachineConfig`` rejects any other ``predictor``):
``predict(pc) -> bool`` followed by ``update(pc, taken)``.

Targets are not predicted: the timing model replays the committed path, so
a correctly predicted *direction* implies a correct next fetch address
(i.e. a perfect BTB is assumed — documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PredictorStats:
    """Accuracy accounting (conditional branches only)."""

    lookups: int = 0
    correct: int = 0

    @property
    def hit_ratio(self) -> float:
        """The paper's Table 3 'branch hit ratio'."""
        return self.correct / self.lookups if self.lookups else 1.0

    def record(self, was_correct: bool) -> None:
        self.lookups += 1
        if was_correct:
            self.correct += 1


class BimodalPredictor:
    """2-bit saturating-counter table indexed by the branch PC.

    Counters: 0/1 predict not-taken, 2/3 predict taken; initialized to
    weakly taken (2), matching SimpleScalar's bimodal default.
    """

    __slots__ = ("stats", "table_size", "_mask", "_table")

    def __init__(self, table_size: int = 2048):
        if table_size <= 0 or table_size & (table_size - 1):
            raise ValueError("table size must be a power of two")
        self.stats = PredictorStats()
        self.table_size = table_size
        self._mask = table_size - 1
        self._table = [2] * table_size

    def predict(self, pc: int) -> bool:
        return self._table[pc & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = pc & self._mask
        ctr = self._table[idx]
        if taken:
            if ctr < 3:
                self._table[idx] = ctr + 1
        elif ctr > 0:
            self._table[idx] = ctr - 1

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict, record accuracy, train.  Returns True when the
        prediction was correct."""
        correct = self.predict(pc) == taken
        self.stats.record(correct)
        self.update(pc, taken)
        return correct
