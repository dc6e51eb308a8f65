"""Renderers: sparkline mapping, SVG well-formedness and determinism."""

import pytest

from repro.observe import (EXTRACT, TraceEvent, diff_timelines,
                           render_diff_svg, render_diff_text, render_report,
                           render_timeline_text, sparkline)
from repro.observe.render import MAX_DIFF_ROWS, SPARK_CHARS


def sample(cycle, cycles, committed, **over):
    s = {"cycle": cycle, "cycles": cycles, "committed": committed,
         "ipc": committed / cycles, "avg_ifq_occupancy": 4.0,
         "avg_ruu_occupancy": 8.0, "mode_residency": 0.25,
         "l1_accesses": 30, "l1_misses": 3, "l1_miss_rate": 0.1}
    s.update(over)
    return s


def thread_sample(cycle, completed, issued, **over):
    s = {"cycle": cycle, "completed": completed,
         "ipc": completed / 100, "issued": issued, "issue_share": 0.5,
         "l1_accesses": 10, "l1_misses": 1, "l1_miss_rate": 0.1}
    s.update(over)
    return s


def make_timeline(n=4, per_thread=True):
    tl = {"interval": 100,
          "samples": [sample((i + 1) * 100, 100, 50 + 10 * i)
                      for i in range(n)]}
    if per_thread:
        tl["per_thread"] = [
            {"thread": 0, "name": "main",
             "samples": [thread_sample((i + 1) * 100, 45 + 10 * i, 60)
                         for i in range(n)]},
            {"thread": 1, "name": "pthread",
             "samples": [thread_sample((i + 1) * 100, 5, 10)
                         for i in range(n)]},
        ]
    return tl


def make_diff(n_base=4, n_model=2, events=True):
    base = {"interval": 100,
            "samples": [sample((i + 1) * 100, 100, 40)
                        for i in range(n_base)]}
    total = 40 * n_base
    per = total // n_model
    model = {"interval": 100,
             "samples": [sample((i + 1) * 100, 100, per)
                         for i in range(n_model)]}
    evs = [TraceEvent(10, EXTRACT, thread=1)] if events else []
    return diff_timelines(base, model, evs, workload="w",
                          base_name="base", model_name="model")


class TestSparkline:
    def test_full_ramp_uses_every_char(self):
        assert sparkline(list(range(8))) == SPARK_CHARS

    def test_flat_series_is_floor(self):
        assert sparkline([3.0, 3.0, 3.0]) == SPARK_CHARS[0] * 3

    def test_empty(self):
        assert sparkline([]) == ""

    def test_explicit_range_shared_scale(self):
        # With a shared [0, 10] scale, 5 maps to the middle of the ramp.
        out = sparkline([5.0], 0.0, 10.0)
        assert out == SPARK_CHARS[4]

    def test_values_clamped_to_range(self):
        out = sparkline([-5.0, 50.0], 0.0, 10.0)
        assert out == SPARK_CHARS[0] + SPARK_CHARS[-1]


class TestTextRenderers:
    def test_timeline_text_has_per_thread_rows(self):
        out = render_timeline_text(make_timeline(), "demo")
        assert "demo" in out and "ipc" in out
        assert "main ipc" in out and "pthread ipc" in out
        assert "pthread issue" in out

    def test_diff_text_marks_attribution(self):
        out = render_diff_text(make_diff())
        assert "base ipc" in out and "model ipc" in out
        assert "cycles saved" in out
        assert "#" in out   # the pre-execution interval mark

    def test_without_per_thread_no_thread_rows(self):
        out = render_timeline_text(make_timeline(per_thread=False))
        assert "pthread" not in out


class TestSvg:
    def test_timeline_svg_wellformed(self):
        svg = render_diff_svg(make_diff(), "demo")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        # base ipc, model ipc, cycles saved, the zero rule
        assert svg.count("<polyline") >= 4
        assert "demo" in svg

    def test_diff_svg_has_attribution_bars(self):
        svg = render_diff_svg(make_diff())
        assert svg.startswith("<svg ")
        assert "#2ca02c" in svg   # pre-execution fill colour
        assert svg.count("<rect") >= len(make_diff().rows)

    def test_svg_is_deterministic(self):
        a = render_diff_svg(make_diff(), "t")
        b = render_diff_svg(make_diff(), "t")
        assert a == b
        a = render_diff_svg(make_diff(n_base=6, n_model=3, events=False))
        b = render_diff_svg(make_diff(n_base=6, n_model=3, events=False))
        assert a == b

    def test_svg_self_contained(self):
        """No external references: the SVG must render offline as-is."""
        for svg in (render_diff_svg(make_diff(), "t"),
                    render_diff_svg(make_diff(events=False))):
            assert "http" not in svg.replace(
                "http://www.w3.org/2000/svg", "")
            assert "<script" not in svg and "@import" not in svg

    def test_single_sample_timeline(self):
        svg = render_diff_svg(make_diff(n_base=1, n_model=1))
        assert svg.startswith("<svg ")


class TestReport:
    def test_report_sections(self):
        diff = make_diff()
        fills = {"prefetcher": {"attempts": 5, "fills": 4, "timely": 3,
                                "late": 1, "unused": 0, "redundant": 1}}
        out = render_report(diff, make_timeline(), model_fills=fills,
                            base_ipc=0.4, model_ipc=0.8)
        assert out.startswith("# repro report — w: base vs model")
        assert "## Timelines" in out
        assert "## Per-interval attribution" in out
        assert "## Per-thread series" in out
        assert "## Fill timeliness" in out
        assert "## Figure" in out and "<svg " in out
        assert "prefetcher" in out and "75.0%" in out

    def test_report_deterministic(self):
        kw = dict(base_ipc=0.4, model_ipc=0.8)
        a = render_report(make_diff(), make_timeline(), **kw)
        b = render_report(make_diff(), make_timeline(), **kw)
        assert a == b

    def test_long_diff_elided(self):
        n = MAX_DIFF_ROWS + 36
        base = {"interval": 100,
                "samples": [sample((i + 1) * 100, 100, 40)
                            for i in range(n)]}
        model = {"interval": 100,
                 "samples": [sample((i + 1) * 100, 100, 40)
                             for i in range(n)]}
        diff = diff_timelines(base, model, workload="w",
                              base_name="b", model_name="m")
        out = render_report(diff, model)
        assert "middle intervals elided" in out
        # Table keeps head + tail, not all n rows.
        table_lines = [ln for ln in out.splitlines()
                       if ln.startswith("| ") and "attribution" not in ln]
        assert len(table_lines) < n

    def test_report_without_fills_or_threads(self):
        out = render_report(make_diff(), make_timeline(per_thread=False))
        assert "## Fill timeliness" not in out
        assert "## Per-thread series" not in out

    def test_no_fills_placeholder(self):
        fills = {"prefetcher": {"attempts": 0, "fills": 0, "timely": 0,
                                "late": 0, "unused": 0, "redundant": 0}}
        out = render_report(make_diff(), make_timeline(), model_fills=fills)
        assert "_no speculative fills in this run_" in out
