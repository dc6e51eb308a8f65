"""Dynamic instruction instances living in the RUU.

One :class:`DynInstr` is created per decoded main-thread instruction and
per extracted p-thread instruction.  The paper's RUU (Register Update Unit)
doubles as physical registers, scheduler and reorder buffer; here each
entry tracks its unresolved producer count and its consumer list, giving
O(1) wakeup without per-cycle RUU scans.
"""

from __future__ import annotations

from ..functional.trace import TraceEntry

MAIN_THREAD = 0
P_THREAD = 1


class DynInstr:
    """One in-flight instruction instance."""

    __slots__ = ("seq", "thread", "trace_idx", "entry", "deps", "consumers",
                 "issued", "done", "is_trigger_dload", "decode_cycle")

    def __init__(self, seq: int, thread: int, trace_idx: int,
                 entry: TraceEntry, decode_cycle: int):
        self.seq = seq
        self.thread = thread
        self.trace_idx = trace_idx
        self.entry = entry
        #: Number of still-outstanding producers.
        self.deps = 0
        #: Instructions waiting on this one's result.
        self.consumers: list[DynInstr] = []
        self.issued = False
        self.done = False
        #: True for the p-thread instance of the d-load that triggered the
        #: current pre-execution mode (its completion ends the mode).
        self.is_trigger_dload = False
        self.decode_cycle = decode_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        t = "P" if self.thread else "M"
        state = "done" if self.done else ("issued" if self.issued else
                                          f"deps={self.deps}")
        return f"<{t}#{self.seq} t{self.trace_idx} pc={self.entry.pc} {state}>"
