"""Span recording for the traced benchmark run.

A span is one call into a layer: its name, start and end
(``perf_counter_ns``), the span that was open when it began, the cell it
belongs to and the process that ran it.  Spans come from wrappers that
:meth:`SpanRecorder.wrap` installs around the names a layer's callers look
up, so the program itself is never edited.

Spans are kept in memory per process and appended to
``<out>/<pid>.jsonl`` each time a root span (one with no open parent in
its process) ends.  Pool workers exit without running ``atexit`` hooks,
so this is the last point at which their spans can be saved; the
recorder resets itself in every forked child so a worker never inherits
its parent's open spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path


class SpanRecorder:
    """In-memory span stack plus the wrappers that feed it."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._patches: list[tuple[object, str, object, bool]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._pid = os.getpid()
        self._stack: list[dict] = []
        self._pending: list[dict] = []
        self._next_id = 0

    # -- recording ------------------------------------------------------------

    def begin(self, name: str, cell: str | None = None) -> dict:
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = parent["cell"]
        span = {"id": self._next_id,
                "parent": parent["id"] if parent is not None else None,
                "name": name, "cell": cell, "pid": self._pid,
                "start_ns": time.perf_counter_ns(), "end_ns": None,
                "attrs": {}}
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: dict, attrs: dict | None = None) -> None:
        span["end_ns"] = time.perf_counter_ns()
        if attrs:
            span["attrs"].update(attrs)
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        self._pending.append(span)
        if not self._stack:
            self.flush()

    def flush(self) -> None:
        """Append every finished span of this process to its file."""
        if not self._pending:
            return
        path = self.out_dir / f"{self._pid}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            for span in self._pending:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        self._pending.clear()

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, cell=None,
             measure=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``cell(args, kwargs)`` names the cell a root span belongs to;
        ``measure(args, kwargs, result)`` returns attributes (sizes,
        counts) stored on the span.  The wrapper keeps the original's
        module and qualified name, so a patched function still pickles
        by reference into pool workers.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.begin(name, cell(args, kwargs) if cell else None)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                recorder.end(span, {"error": True})
                raise
            recorder.end(span, measure(args, kwargs, result)
                         if measure else None)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Put every wrapped name back as it was."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def load_spans(out_dir: str | Path) -> list[dict]:
    """Every span every process wrote under ``out_dir``."""
    spans = []
    for path in sorted(Path(out_dir).glob("*.jsonl")):
        with path.open(encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of ``[start, end)`` that the union of ``intervals`` covers."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[tuple[int, int], int]:
    """Self time in ns of every span, keyed by ``(pid, id)``.

    A span's self time is its duration minus the part of that interval
    its direct child spans cover.  Span ids are per process, so parents
    are looked up within the child's own pid.
    """
    children: dict[tuple[int, int], list[tuple[int, int]]] = \
        defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["pid"], s["parent"])].append(
                (s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        key = (s["pid"], s["id"])
        duration = s["end_ns"] - s["start_ns"]
        out[key] = duration - _covered(s["start_ns"], s["end_ns"],
                                       children.get(key, []))
    return out
