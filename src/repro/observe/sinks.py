"""Trace sinks: where the timing model's event stream goes.

The simulator calls ``sink.emit(event)`` for every event of a kind the
sink keeps; the two implementations trade memory for completeness:

* :class:`RingBufferSink` keeps the last ``capacity`` events in memory —
  the default for interactive use and for caching trace artifacts, with
  a ``dropped`` counter so truncation is never silent;
* :class:`JsonlStreamSink` writes every event to a text stream (or file)
  as canonical JSONL, for full-fidelity captures piped to other tools.

Both accept an optional ``kinds`` filter so a sink can subscribe to a
subset (e.g. only mode transitions).  The simulator reads the
subscription once, through the read-only ``kinds`` attribute, and builds
no event of any other kind; the sinks still apply the filter themselves,
so a caller that emits by hand gets the same stream.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import IO, Iterable, Protocol, runtime_checkable

from .events import EVENT_KINDS, TraceEvent


@runtime_checkable
class TraceSink(Protocol):
    """Anything that can receive the simulator's event stream.

    ``kinds`` is the subscription: the event kinds the sink keeps, or
    None for every kind.  The simulator reads it once at construction
    and only builds events of those kinds.
    """

    @property
    def kinds(self) -> frozenset[str] | None: ...

    def emit(self, event: TraceEvent) -> None: ...

    def close(self) -> None: ...


class RingBufferSink:
    """Bounded in-memory sink keeping the newest events.

    ``capacity=None`` keeps everything (use with care on long runs).
    """

    __slots__ = ("_buf", "_kinds", "emitted", "dropped")

    def __init__(self, capacity: int | None = 65536,
                 kinds: Iterable[str] | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("ring capacity must be positive (or None)")
        self._buf: deque[TraceEvent] = deque(maxlen=capacity)
        self._kinds = frozenset(kinds) if kinds is not None else None
        #: total events offered (accepted by the kind filter)
        self.emitted = 0
        #: accepted events displaced by newer ones (ring overflow)
        self.dropped = 0

    @property
    def capacity(self) -> int | None:
        return self._buf.maxlen

    @property
    def kinds(self) -> frozenset[str] | None:
        return self._kinds

    def emit(self, event: TraceEvent) -> None:
        if self._kinds is not None and event.kind not in self._kinds:
            return
        buf = self._buf
        if buf.maxlen is not None and len(buf) == buf.maxlen:
            self.dropped += 1
        buf.append(event)
        self.emitted += 1

    def close(self) -> None:
        pass

    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class JsonlStreamSink:
    """Unbounded sink writing canonical JSONL to a stream or file."""

    __slots__ = ("_stream", "_owns", "_kinds", "emitted")

    def __init__(self, target: IO[str] | str | Path,
                 kinds: Iterable[str] | None = None):
        if isinstance(target, (str, Path)):
            self._stream = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._stream = target
            self._owns = False
        self._kinds = frozenset(kinds) if kinds is not None else None
        self.emitted = 0

    @property
    def kinds(self) -> frozenset[str] | None:
        return self._kinds

    def emit(self, event: TraceEvent) -> None:
        if self._kinds is not None and event.kind not in self._kinds:
            return
        self._stream.write(event.to_json() + "\n")
        self.emitted += 1

    def close(self) -> None:
        if self._owns:
            self._stream.close()
        else:
            self._stream.flush()


def kind_sinks(sink: TraceSink | None) -> dict[str, TraceSink | None]:
    """Every event kind mapped to ``sink`` if it keeps that kind, else to
    None — so an emit site pays one ``is None`` test and builds an event
    only when someone keeps it.  With no sink every kind maps to None."""
    if sink is None:
        return dict.fromkeys(EVENT_KINDS)
    kinds = sink.kinds
    return {kind: sink if kinds is None or kind in kinds else None
            for kind in EVENT_KINDS}
