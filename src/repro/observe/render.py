"""Renderers for timelines and timeline diffs: sparklines, SVG, markdown.

Three output layers, all dependency-free and byte-deterministic (fixed
float formatting, no timestamps, no environment leakage — the property
the render test suite pins so ``repro report`` output can be diffed and
cached):

* :func:`sparkline` / :func:`render_timeline_text` — unicode terminal
  sparklines, the quick look (``repro analyze`` tables are the precise
  one);
* :func:`render_diff_svg` / :func:`render_suite_svg` — self-contained
  SVG documents (no external CSS, fonts or scripts), embeddable in
  markdown and checked into ``examples/``;
* :func:`render_report` — the full ``repro report`` markdown document:
  summary, sparklines, per-interval attribution table, per-thread
  series, fill timeliness and the embedded SVG.
"""

from __future__ import annotations

from .compare import SuiteDiff, TimelineDiff

#: Eight-level unicode bars, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Fixed SVG palette (series line colours, then attribution fills).
_COLORS = {
    "base": "#888888",
    "model": "#1f77b4",
    "saved": "#2ca02c",
    "pre-execution": "#2ca02c",
    "variance": "#bcbd22",
    "regression": "#d62728",
    "neutral": "#cccccc",
}


def sparkline(values: list[float], lo: float | None = None,
              hi: float | None = None) -> str:
    """Render ``values`` as one character per point.

    The scale spans ``[lo, hi]`` (defaulting to the data's own range), so
    two sparklines drawn with an explicit shared range are visually
    comparable.

    >>> sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    '▁▂▃▄▅▆▇█'
    >>> sparkline([1.0, 1.0])
    '▁▁'
    """
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = hi - lo
    if span <= 0:
        return SPARK_CHARS[0] * len(values)
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[min(top, max(0, int((v - lo) / span * top + 0.5)))]
        for v in values)


def render_timeline_text(timeline: dict, title: str = "timeline") -> str:
    """Sparkline block of one timeline's series, one labeled row each."""
    samples = timeline["samples"]
    lines = [f"{title} — {len(samples)} x {timeline['interval']} cycles"]
    rows = [
        ("ipc", [s["ipc"] for s in samples]),
        ("ifq", [s["avg_ifq_occupancy"] for s in samples]),
        ("ruu", [s["avg_ruu_occupancy"] for s in samples]),
        ("mode", [s["mode_residency"] for s in samples]),
        ("l1 miss", [s["l1_miss_rate"] for s in samples]),
    ]
    for t in timeline.get("per_thread", ()):
        series = t["samples"]
        rows.append((f"{t['name']} ipc", [s["ipc"] for s in series]))
        rows.append((f"{t['name']} issue",
                     [s["issue_share"] for s in series]))
    width = max(len(label) for label, _ in rows)
    for label, values in rows:
        lo, hi = (min(values), max(values)) if values else (0.0, 0.0)
        lines.append(f"{label:<{width}} |{sparkline(values)}| "
                     f"{lo:.3f}..{hi:.3f}")
    return "\n".join(lines)


def render_diff_text(diff: TimelineDiff) -> str:
    """Sparkline block of a diff: both IPCs and the cumulative win."""
    ipc_base = [r["ipc_base"] for r in diff.rows]
    ipc_model = [r["ipc_model"] for r in diff.rows]
    saved = [r["cycles_saved"] for r in diff.rows]
    lo = min(ipc_base + ipc_model, default=0.0)
    hi = max(ipc_base + ipc_model, default=0.0)
    marks = "".join(
        "#" if r["attribution"] == "pre-execution" else
        "~" if r["attribution"] == "variance" else
        "-" if r["attribution"] == "regression" else " "
        for r in diff.rows)
    width = len("cycles saved")
    lines = [
        f"{diff.workload or 'diff'} — {diff.base_name or 'base'} vs "
        f"{diff.model_name or 'model'}, {len(diff.rows)} x "
        f"{diff.interval} cycles",
        f"{'base ipc':<{width}} |{sparkline(ipc_base, lo, hi)}|",
        f"{'model ipc':<{width}} |{sparkline(ipc_model, lo, hi)}|",
        f"{'cycles saved':<{width}} |{sparkline(saved)}| "
        f"total {diff.total_cycles_saved:.0f}",
        f"{'attribution':<{width}} |{marks}| "
        f"(# pre-execution, ~ variance, - regression)",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_W, _H = 720, 120          # panel plot area
_PAD_L, _PAD_T = 60, 24    # per-panel padding (label gutter / title strip)
_PANEL_GAP = 16


def _fmt(v: float) -> str:
    """Fixed-precision coordinate formatting (the determinism anchor)."""
    return f"{v:.2f}"


def _polyline(xs: list[float], ys: list[float], color: str,
              width: float = 1.5) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{width}" points="{pts}"/>')


def _scale(values: list[float], lo: float, hi: float, y0: float) -> list:
    span = (hi - lo) or 1.0
    return [y0 + _H - (v - lo) / span * _H for v in values]


def _panel_header(y0: float, title: str, lo: float, hi: float) -> list[str]:
    return [
        f'<text x="{_PAD_L}" y="{_fmt(y0 - 8)}" font-size="11" '
        f'font-family="monospace" fill="#333333">{title}</text>',
        f'<text x="{_PAD_L - 6}" y="{_fmt(y0 + 10)}" font-size="9" '
        f'text-anchor="end" font-family="monospace" '
        f'fill="#666666">{hi:.2f}</text>',
        f'<text x="{_PAD_L - 6}" y="{_fmt(y0 + _H)}" font-size="9" '
        f'text-anchor="end" font-family="monospace" '
        f'fill="#666666">{lo:.2f}</text>',
        f'<rect x="{_PAD_L}" y="{_fmt(y0)}" width="{_W}" height="{_H}" '
        f'fill="none" stroke="#dddddd"/>',
    ]


def _svg_document(body: list[str], height: int, title: str) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_W + _PAD_L + 20}" height="{height}" '
            f'viewBox="0 0 {_W + _PAD_L + 20} {height}">\n'
            f'<title>{title}</title>\n'
            f'<rect width="100%" height="100%" fill="#ffffff"/>')
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


def _xs(n: int) -> list[float]:
    if n <= 1:
        return [_PAD_L + _W / 2.0] * n
    step = _W / (n - 1)
    return [_PAD_L + i * step for i in range(n)]


def render_diff_svg(diff: TimelineDiff, title: str = "") -> str:
    """A :class:`TimelineDiff` as a stacked-panel SVG.

    Three panels on the model run's interval grid: interval IPC of both
    runs, cumulative cycles saved, and per-interval saved cycles as bars
    coloured by attribution (green pre-execution, olive variance, red
    regression).
    """
    title = title or (f"{diff.workload}: {diff.base_name} vs "
                      f"{diff.model_name}")
    rows = diff.rows
    xs = _xs(len(rows))
    body: list[str] = []
    y0 = _PAD_T

    ipc_base = [r["ipc_base"] for r in rows]
    ipc_model = [r["ipc_model"] for r in rows]
    hi = max(ipc_base + ipc_model, default=1.0) or 1.0
    body += _panel_header(y0, f"{title} — interval IPC (grey base, "
                              f"blue model)", 0.0, hi)
    body.append(_polyline(xs, _scale(ipc_base, 0.0, hi, y0),
                          _COLORS["base"]))
    body.append(_polyline(xs, _scale(ipc_model, 0.0, hi, y0),
                          _COLORS["model"]))
    y0 += _H + _PANEL_GAP + _PAD_T

    saved = [r["cycles_saved"] for r in rows]
    lo = min(0.0, min(saved, default=0.0))
    hi = max(saved, default=1.0) or 1.0
    body += _panel_header(y0, f"cumulative cycles saved "
                              f"(total {diff.total_cycles_saved:.0f})",
                          lo, hi)
    body.append(_polyline(xs, _scale(saved, lo, hi, y0), _COLORS["saved"],
                          width=2.0))
    y0 += _H + _PANEL_GAP + _PAD_T

    deltas = [r["saved_delta"] for r in rows]
    lo = min(0.0, min(deltas, default=0.0))
    hi = max(0.0, max(deltas, default=0.0)) or 1.0
    body += _panel_header(y0, "per-interval cycles saved, by attribution",
                          lo, hi)
    span = (hi - lo) or 1.0
    zero_y = y0 + _H - (0.0 - lo) / span * _H
    bar_w = max(1.0, _W / max(1, len(rows)) - 1.0)
    for i, r in enumerate(rows):
        v = r["saved_delta"]
        top = y0 + _H - (max(v, 0.0) - lo) / span * _H
        h = abs(v) / span * _H
        body.append(
            f'<rect x="{_fmt(xs[i] - bar_w / 2)}" y="{_fmt(top)}" '
            f'width="{_fmt(bar_w)}" height="{_fmt(h)}" '
            f'fill="{_COLORS[r["attribution"]]}"/>')
    body.append(_polyline([_PAD_L, _PAD_L + _W], [zero_y, zero_y],
                          "#999999", width=0.5))
    return _svg_document(body, y0 + _H + _PAD_T, title)


# Small-multiples grid geometry (suite SVG).
_MINI_W, _MINI_H = 228, 72
_MINI_COLS = 3
_MINI_GAP_X = 18
_MINI_GAP_Y = 44   # vertical slot above each mini panel (label strip)


def render_suite_svg(suite: SuiteDiff, title: str = "") -> str:
    """A :class:`SuiteDiff` as one SVG: a speedup bar panel (dashed
    geomean rule, thin parity rule at 1.0x) over a small-multiples grid
    — one mini panel per workload showing its cumulative cycles-saved
    curve.  Deterministic like every renderer here: fixed formatting,
    fixed palette, no timestamps.
    """
    title = title or (f"suite: {suite.base_name} vs {suite.model_name} "
                      f"({len(suite.rows)} workloads)")
    body: list[str] = []
    y0 = _PAD_T

    speedups = [r["speedup"] for r in suite.rows]
    hi = max(speedups + [suite.geomean_speedup, 1.0], default=1.0)
    body += _panel_header(
        y0, f"{title} — speedup per workload "
            f"(dashed geomean {suite.geomean_speedup:.3f}x)", 0.0, hi)
    slot = _W / max(1, len(suite.rows))
    bar_w = max(2.0, min(28.0, slot * 0.6))
    for i, r in enumerate(suite.rows):
        cx = _PAD_L + (i + 0.5) * slot
        h = r["speedup"] / hi * _H
        body.append(
            f'<rect x="{_fmt(cx - bar_w / 2)}" y="{_fmt(y0 + _H - h)}" '
            f'width="{_fmt(bar_w)}" height="{_fmt(h)}" '
            f'fill="{_COLORS["model"]}"/>')
        body.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(y0 + _H + 12)}" font-size="9" '
            f'text-anchor="middle" font-family="monospace" '
            f'fill="#333333">{r["workload"]}</text>')
    parity_y = y0 + _H - 1.0 / hi * _H
    body.append(_polyline([_PAD_L, _PAD_L + _W], [parity_y, parity_y],
                          "#999999", width=0.5))
    geo_y = y0 + _H - suite.geomean_speedup / hi * _H
    body.append(
        f'<polyline fill="none" stroke="{_COLORS["saved"]}" '
        f'stroke-width="1.0" stroke-dasharray="4,3" '
        f'points="{_fmt(_PAD_L)},{_fmt(geo_y)} '
        f'{_fmt(_PAD_L + _W)},{_fmt(geo_y)}"/>')
    y0 += _H + 16 + _PANEL_GAP

    for i, r in enumerate(suite.rows):
        col = i % _MINI_COLS
        x0 = _PAD_L + col * (_MINI_W + _MINI_GAP_X)
        py0 = y0 + (i // _MINI_COLS) * (_MINI_H + _MINI_GAP_Y) + 14
        body.append(
            f'<text x="{_fmt(x0)}" y="{_fmt(py0 - 4)}" font-size="10" '
            f'font-family="monospace" fill="#333333">{r["workload"]} '
            f'{r["speedup"]:.2f}x, saved {r["cycles_saved"]}</text>')
        body.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(py0)}" width="{_MINI_W}" '
            f'height="{_MINI_H}" fill="none" stroke="#dddddd"/>')
        series = [float(v) for v in r["saved_series"]] or [0.0]
        n = len(series)
        if n == 1:
            xs = [x0 + _MINI_W / 2.0]
        else:
            xs = [x0 + j * (_MINI_W / (n - 1)) for j in range(n)]
        lo = min(0.0, min(series))
        span = (max(series) - lo) or 1.0
        ys = [py0 + _MINI_H - (v - lo) / span * _MINI_H for v in series]
        body.append(_polyline(xs, ys, _COLORS["saved"]))
    grid_rows = -(-len(suite.rows) // _MINI_COLS)
    height = y0 + grid_rows * (_MINI_H + _MINI_GAP_Y) + _PAD_T
    return _svg_document(body, height, title)


# ---------------------------------------------------------------------------
# Markdown report
# ---------------------------------------------------------------------------

def _md_table(columns: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(columns) + " |",
           "|" + "|".join("---" for _ in columns) + "|"]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(out)


def _fills_table(fills: dict) -> str:
    rows = []
    for source in sorted(fills):
        f = fills[source]
        if not f["attempts"]:
            continue
        pct = f["timely"] / f["fills"] * 100 if f["fills"] else 0.0
        rows.append([source, str(f["fills"]), str(f["timely"]),
                     str(f["late"]), str(f["unused"]), str(f["redundant"]),
                     f"{pct:.1f}%"])
    if not rows:
        return "_no speculative fills in this run_"
    return _md_table(["source", "fills", "timely", "late", "unused",
                      "redundant", "timely %"], rows)


#: Diff-table rows beyond this are elided (head + tail kept) so reports
#: on billion-cycle runs stay readable; the elision is stated inline.
MAX_DIFF_ROWS = 64


def render_report(diff: TimelineDiff, model_timeline: dict, *,
                  model_fills: dict | None = None,
                  base_ipc: float = 0.0, model_ipc: float = 0.0) -> str:
    """Assemble the full ``repro report`` markdown document.

    Everything is passed as plain data (timeline dicts, the memory
    snapshot's ``fills`` section) so this layer stays independent of the
    harness; ``repro report`` and ``build_report`` in the harness do the
    gathering.
    """
    summary = diff.attribution_summary()
    lines = [
        f"# repro report — {diff.workload}: {diff.base_name} vs "
        f"{diff.model_name}",
        "",
        f"- sampling interval: {diff.interval} cycles",
        f"- baseline: {diff.base_cycles} cycles (IPC {base_ipc:.3f})",
        f"- model: {diff.model_cycles} cycles (IPC {model_ipc:.3f}), "
        f"speedup {diff.speedup:.3f}x",
        f"- cycles saved: {diff.total_cycles_saved:.0f} "
        f"({diff.base_tail_cycles} after the model finished)",
        f"- intervals: {summary['pre-execution']} pre-execution, "
        f"{summary['variance']} variance, {summary['regression']} "
        f"regression, {summary['neutral']} neutral; "
        f"{diff.attributed_fraction * 100:.1f}% of the win in "
        f"pre-execution intervals",
        "",
        "## Timelines",
        "",
        "```",
        render_diff_text(diff),
        "```",
        "",
        "```",
        render_timeline_text(model_timeline, diff.model_name),
        "```",
        "",
        "## Per-interval attribution",
        "",
    ]
    rows = diff.rows
    elided = 0
    if len(rows) > MAX_DIFF_ROWS:
        head = MAX_DIFF_ROWS // 2
        elided = len(rows) - 2 * head
        rows = rows[:head] + rows[-head:]
    table_rows = [
        [str(r["cycle"]), str(r["committed"]), f"{r['ipc_base']:.3f}",
         f"{r['ipc_model']:.3f}", f"{r['cycles_saved']:.0f}",
         f"{r['saved_delta']:+.0f}", str(r["extracts"]), str(r["fills"]),
         str(r["pt_completed"]), r["attribution"]]
        for r in rows]
    lines.append(_md_table(
        ["cycle", "committed", "ipc base", "ipc model", "saved (cum)",
         "saved Δ", "extracts", "fills", "pt instrs", "attribution"],
        table_rows))
    if elided:
        lines.append("")
        lines.append(f"_{elided} middle intervals elided "
                     f"(of {len(diff.rows)} total)_")

    per_thread = model_timeline.get("per_thread")
    if per_thread:
        lines += ["", f"## Per-thread series ({diff.model_name})", ""]
        for t in per_thread:
            series = t["samples"]
            total_completed = sum(s["completed"] for s in series)
            total_issued = sum(s["issued"] for s in series)
            misses = sum(s["l1_misses"] for s in series)
            accesses = sum(s["l1_accesses"] for s in series)
            rate = misses / accesses * 100 if accesses else 0.0
            lines.append(
                f"- **{t['name']}** (thread {t['thread']}): "
                f"{total_completed} completed, {total_issued} issued, "
                f"L1 miss rate {rate:.1f}%  ")
            lines.append(f"  `ipc   "
                         f"{sparkline([s['ipc'] for s in series])}`  ")
            lines.append(f"  `issue "
                         f"{sparkline([s['issue_share'] for s in series])}`")

    if model_fills is not None:
        lines += ["", f"## Fill timeliness ({diff.model_name})", "",
                  _fills_table(model_fills)]

    lines += ["", "## Figure", "", render_diff_svg(diff), ""]
    return "\n".join(lines)


def render_suite_report(suite: SuiteDiff) -> str:
    """Assemble the ``repro report --suite`` markdown document: the
    per-workload speedup table (with the geomean row the suite's
    invariant check guarantees is consistent), cumulative-win
    sparklines, and the embedded small-multiples SVG."""
    lines = [
        f"# repro suite report — {suite.base_name} vs {suite.model_name}",
        "",
        f"- workloads: {len(suite.rows)}",
        f"- sampling interval: {suite.interval} cycles",
        f"- geomean speedup: {suite.geomean_speedup:.3f}x",
        "",
        "## Per-workload speedups",
        "",
    ]
    table_rows = [
        [r["workload"], str(r["base_cycles"]), str(r["model_cycles"]),
         f"{r['base_ipc']:.3f}", f"{r['model_ipc']:.3f}",
         f"{r['speedup']:.3f}x", str(r["cycles_saved"]),
         f"{r['pe_intervals']}/{r['intervals']}",
         f"{r['attributed_fraction'] * 100:.1f}%"]
        for r in suite.rows]
    table_rows.append(
        ["**geomean**", "", "", "", "",
         f"**{suite.geomean_speedup:.3f}x**", "", "", ""])
    lines.append(_md_table(
        ["workload", "base cycles", "model cycles", "base ipc", "model ipc",
         "speedup", "saved", "PE intervals", "attributed"],
        table_rows))
    lines += ["", "## Cumulative cycles saved", ""]
    width = max((len(r["workload"]) for r in suite.rows), default=0)
    lines.append("```")
    for r in suite.rows:
        lines.append(f"{r['workload']:<{width}} "
                     f"|{sparkline(r['saved_series'])}| "
                     f"total {r['cycles_saved']}")
    lines.append("```")
    lines += ["", "## Figure", "", render_suite_svg(suite), ""]
    return "\n".join(lines)
