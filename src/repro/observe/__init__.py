"""Pipeline observability: structured trace events, sinks, the interval
sampler and the comparison/rendering layer feeding ``repro trace``,
``repro analyze`` and ``repro report``.

The timing model emits events only when a sink is attached, and only of
the kinds the sink keeps (each emit site tests its kind's sink for None,
which keeps the instrumented hot loop at its uninstrumented speed), so
observability is strictly opt-in.  On top of
the raw streams sit pure-data tools: :class:`IntervalSampler` collects
per-interval (and per-thread) series, :func:`diff_timelines` aligns a
baseline and a SPEAR run to localize the speedup, and ``render``
produces sparklines, SVG and the ``repro report`` markdown.
"""

from .compare import (NEUTRAL_CYCLES, PE_EVENT_KINDS, SuiteDiff,
                      SuiteInvariantError, TimelineAlignmentError,
                      TimelineDiff, count_pe_events, diff_timelines)
from .events import (COMMIT, COMPLETE, DECODE, EVENT_KINDS, EXTRACT, FETCH,
                     FILL, ISSUE, MISPREDICT, MODE, MODE_NAMES, POLICY,
                     PREFETCH, TraceEvent, filter_events, serialize_events)
from .render import (render_diff_svg, render_diff_text, render_report,
                     render_suite_report, render_suite_svg,
                     render_timeline_text, sparkline)
from .sampler import THREAD_NAMES, IntervalSampler
from .sinks import JsonlStreamSink, RingBufferSink, TraceSink

__all__ = ["TraceEvent", "EVENT_KINDS", "MODE_NAMES", "filter_events",
           "serialize_events", "FETCH", "DECODE", "ISSUE", "COMPLETE",
           "COMMIT", "MISPREDICT", "MODE", "EXTRACT", "PREFETCH", "FILL",
           "POLICY",
           "IntervalSampler", "THREAD_NAMES", "JsonlStreamSink",
           "RingBufferSink", "TraceSink",
           "TimelineAlignmentError", "TimelineDiff", "diff_timelines",
           "SuiteDiff", "SuiteInvariantError",
           "count_pe_events", "PE_EVENT_KINDS", "NEUTRAL_CYCLES",
           "sparkline", "render_timeline_text", "render_diff_text",
           "render_diff_svg", "render_report",
           "render_suite_svg", "render_suite_report"]
