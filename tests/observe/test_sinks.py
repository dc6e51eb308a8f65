"""Trace sinks: ring buffer semantics and JSONL streaming."""

import io

import pytest

from repro.observe import (JsonlStreamSink, RingBufferSink, TraceEvent,
                           TraceSink)


def events(n, kind="commit"):
    return [TraceEvent(i, kind) for i in range(n)]


class TestRingBufferSink:
    def test_satisfies_protocol(self):
        assert isinstance(RingBufferSink(), TraceSink)
        assert isinstance(JsonlStreamSink(io.StringIO()), TraceSink)

    def test_keeps_newest_on_overflow(self):
        sink = RingBufferSink(capacity=4)
        for e in events(10):
            sink.emit(e)
        assert [e.cycle for e in sink.events()] == [6, 7, 8, 9]
        assert sink.emitted == 10
        assert sink.dropped == 6
        assert len(sink) == 4

    def test_unbounded_capacity(self):
        sink = RingBufferSink(capacity=None)
        for e in events(100):
            sink.emit(e)
        assert len(sink) == 100 and sink.dropped == 0
        assert sink.capacity is None

    def test_kind_filter_applies_before_counting(self):
        sink = RingBufferSink(kinds=["mode"])
        sink.emit(TraceEvent(0, "commit"))
        sink.emit(TraceEvent(1, "mode"))
        assert sink.emitted == 1
        assert [e.kind for e in sink.events()] == ["mode"]

    def test_kinds_is_the_read_only_subscription(self):
        assert RingBufferSink().kinds is None
        sink = RingBufferSink(kinds=["mode", "fill"])
        assert sink.kinds == frozenset({"mode", "fill"})
        with pytest.raises(AttributeError):
            sink.kinds = None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_serialize_matches_events(self):
        sink = RingBufferSink()
        for e in events(3):
            sink.emit(e)
        assert sink.serialize() == "".join(e.to_json() + "\n"
                                           for e in sink.events())


class TestJsonlStreamSink:
    def test_writes_jsonl_to_stream(self):
        buf = io.StringIO()
        sink = JsonlStreamSink(buf)
        for e in events(3):
            sink.emit(e)
        sink.close()   # flushes, does not close a borrowed stream
        lines = buf.getvalue().splitlines()
        assert [TraceEvent.from_json(ln) for ln in lines] == events(3)
        assert sink.emitted == 3
        assert not buf.closed

    def test_owns_file_when_given_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlStreamSink(path)
        sink.emit(TraceEvent(0, "fetch", 0, 1, 2))
        sink.close()
        assert TraceEvent.from_json(path.read_text().strip()) == \
            TraceEvent(0, "fetch", 0, 1, 2)

    def test_kind_filter(self):
        buf = io.StringIO()
        sink = JsonlStreamSink(buf, kinds=["issue"])
        assert sink.kinds == frozenset({"issue"})
        sink.emit(TraceEvent(0, "commit"))
        assert buf.getvalue() == "" and sink.emitted == 0
