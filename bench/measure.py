"""Summary statistics and the metric table shared by the bench scripts."""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: The grammar every metric and workload name follows.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Fewest samples a percentile must leave beyond it before it is reported.
MIN_TAIL = 10

#: Result-file metrics beyond BENCHMARK.json's end-to-end list, reported
#: by the untraced run where the workload produces them:
#: name -> (unit, better, bound).  A bound of 0 means "must be identical".
EXTRA_METRICS = {
    "cache_mb": ("MB", "lower", 0.02),
    "error_rate": ("ratio", "lower", 0.0),
    "paper_gap_pp": ("pp", "lower", 0.0),
    "coverage_bins": ("count", "higher", 0.0),
}

#: Per-layer counters of the simulated machine: deterministic, so a
#: change that claims only speed must leave them identical.
EXACT_LAYER_METRICS = (
    "sim.cycles", "spear.triggers", "spear.fill_timely_frac",
    "spear.fill_unused_frac", "memory.l1_miss_rate",
    "branch.mispredict_rate",
)


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses (``ValueError``) a percentile with fewer than
    :data:`MIN_TAIL` samples beyond it: such a tail is a handful of
    draws, not a measurement.
    """
    n = len(values)
    rank = max(1, math.ceil(n * q / 100))
    if n - rank < MIN_TAIL:
        raise ValueError(f"p{q:g} of {n} samples leaves {n - rank} beyond "
                         f"it; need at least {MIN_TAIL}")
    return sorted(values)[rank - 1]


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def metric_table() -> dict[str, tuple[str, str, float | None]]:
    """Every metric the bench can report: name -> (unit, better, bound).

    End-to-end bounds come from BENCHMARK.json; per-layer metrics have
    no bound (``None``) unless they are deterministic outputs, which
    must stay identical (bound 0).
    """
    spec = load_benchmark()
    table = {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        bound = 0.0 if m["name"] in EXACT_LAYER_METRICS else None
        table[m["name"]] = (m["unit"], m["better"], bound)
    table.update(EXTRA_METRICS)
    return table
