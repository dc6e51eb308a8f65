"""Structured pipeline trace events.

One :class:`TraceEvent` is emitted per observable pipeline happening —
an instruction moving through a stage, a SPEAR mode transition, a
prefetch decision.  Events are plain named tuples: cheap to create in
the simulator's hot loop, picklable (so traced runs cache like results),
and deterministically serializable (so two runs of the same workload,
seed and config produce byte-identical streams — the property the
determinism suite pins).

``info`` carries the kind-specific detail as a short string ("IDLE->DRAIN"
for mode transitions, "fill"/"redundant" for prefetch probes, the
resolved latency for completions) so every event has one fixed shape.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

# Event kinds, in rough pipeline order.  String constants (not an enum):
# they serialize as themselves and compare by identity in filters.
FETCH = "fetch"          #: instruction entered the IFQ
DECODE = "decode"        #: instruction decoded/renamed into the RUU
ISSUE = "issue"          #: instruction issued to a functional unit
COMPLETE = "complete"    #: instruction finished executing
COMMIT = "commit"        #: instruction retired from the ROB head
MISPREDICT = "mispredict"  #: conditional branch mispredicted / resolved
MODE = "mode"            #: SPEAR pre-execution mode transition
EXTRACT = "extract"      #: PE copied a marked IFQ entry into the p-thread
PREFETCH = "prefetch"    #: hardware prefetcher proposed a target
FILL = "fill"            #: a prefetch actually started an L1 fill
POLICY = "policy-decision"  #: adaptive trigger policy changed/held course

EVENT_KINDS = (FETCH, DECODE, ISSUE, COMPLETE, COMMIT, MISPREDICT, MODE,
               EXTRACT, PREFETCH, FILL, POLICY)

#: SPEAR mode names, indexed by the timing model's internal state codes.
MODE_NAMES = ("IDLE", "DRAIN", "COPY", "ACTIVE")


class TraceEvent(NamedTuple):
    """One observable pipeline event.

    ``thread`` is 0 (main), 1 (p-thread) or -1 (not thread-specific);
    ``pc``/``trace_idx`` are -1 when the event has no instruction.
    """

    cycle: int
    kind: str
    thread: int = -1
    pc: int = -1
    trace_idx: int = -1
    info: str = ""

    def to_json(self) -> str:
        """Canonical single-line JSON — the byte format of every sink and
        of ``repro trace``, fixed so streams compare byte-for-byte."""
        return (f'{{"cycle":{self.cycle},"kind":"{self.kind}",'
                f'"thread":{self.thread},"pc":{self.pc},'
                f'"trace_idx":{self.trace_idx},"info":{json.dumps(self.info)}}}')

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        d = json.loads(line)
        return cls(d["cycle"], d["kind"], d["thread"], d["pc"],
                   d["trace_idx"], d["info"])


def serialize_events(events: Iterable[TraceEvent]) -> str:
    """Render an event stream as canonical JSONL (one event per line,
    trailing newline).  Byte-identical for identical streams."""
    return "".join(e.to_json() + "\n" for e in events)


def filter_events(events: Iterable[TraceEvent], *,
                  kinds: Iterable[str] | None = None,
                  cycle_range: tuple[int, int] | None = None,
                  thread: int | None = None) -> list[TraceEvent]:
    """Select events by kind set, inclusive cycle range and/or thread."""
    kindset = frozenset(kinds) if kinds is not None else None
    lo, hi = cycle_range if cycle_range is not None else (None, None)
    out = []
    for e in events:
        if kindset is not None and e.kind not in kindset:
            continue
        if lo is not None and e.cycle < lo:
            continue
        if hi is not None and e.cycle > hi:
            continue
        if thread is not None and e.thread != thread:
            continue
        out.append(e)
    return out
