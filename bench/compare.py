"""Compare two sets of benchmark results.

    python3 bench/compare.py A/ B/

``A`` is the base (the parent commit), ``B`` the change.  Each
directory holds result JSON files written by ``bench/run.py --out``.
Runs are paired by workload, traced flag and seed.  Each row is one
workload and one metric: the median and quartiles of each side, the
fraction of pairs B wins (ties count for neither side) and a verdict:

* ``improved``   — B wins at least 9 in 10 pairs and the medians differ
  by more than the spread of A's own runs (the distance between its
  quartiles);
* ``unresolved`` — the spread of either side, as a share of its median,
  is wider than the metric's bound, and not every B run beats every A
  run;
* ``worse``      — B's median is worse than A's by more than the bound;
* ``no worse``   — otherwise.

Metrics whose bound is 0 (deterministic outputs) must be identical pair
by pair; any difference reads ``worse``.  Per-layer metrics without a
bound are shown for information.  Bounds come from BENCHMARK.json and
``measure.py``.  The exit code is 1 when any row reads ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from measure import metric_table, quartiles

WIN_SHARE = 0.9


def load(directory: Path) -> dict[tuple, dict[int, float]]:
    """``{(workload, trace, metric): {seed: value}}`` for one side."""
    out: dict[tuple, dict[int, float]] = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        for name, metric in result["metrics"].items():
            key = (result["workload"], result["trace"], name)
            out[key][result["seed"]] = metric["value"]
    return out


def _better(a: float, b: float, better: str) -> bool:
    """Whether ``b`` is better than ``a``."""
    return b < a if better == "lower" else b > a


def verdict(a: list[float], b: list[float], pairs: list[tuple],
            better: str, bound: float | None) -> tuple[str, float]:
    """The row's verdict and B's win fraction over ``pairs``."""
    wins = (sum(1 for x, y in pairs if _better(x, y, better)) / len(pairs)
            if pairs else 0.0)
    if bound is None:
        return "-", wins
    if bound == 0:
        same = pairs and all(x == y for x, y in pairs)
        return ("identical" if same else "worse"), wins
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    if wins >= WIN_SHARE and _better(ma, mb, better) \
            and abs(mb - ma) > qa3 - qa1:
        return "improved", wins
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0,
                 (qb3 - qb1) / abs(mb) if mb else 0.0)
    every = all(_better(x, y, better) for x in a for y in b)
    if spread > bound and not every:
        return "unresolved", wins
    worse_by = (mb - ma) if better == "lower" else (ma - mb)
    if ma and worse_by / abs(ma) > bound:
        return "worse", wins
    return "no worse", wins


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    table = metric_table()
    side_a, side_b = load(args.base), load(args.change)
    rows = []
    for key in sorted(set(side_a) & set(side_b)):
        workload, trace, name = key
        if name not in table:
            continue
        unit, better, bound = table[name]
        a, b = side_a[key], side_b[key]
        pairs = [(a[s], b[s]) for s in sorted(set(a) & set(b))]
        va, vb = [a[s] for s in sorted(a)], [b[s] for s in sorted(b)]
        text, wins = verdict(va, vb, pairs, better, bound)
        rows.append((f"{workload}{' (traced)' if trace else ''}", name,
                     unit, f"n={len(va)} {_fmt(va)}",
                     f"n={len(vb)} {_fmt(vb)}", f"{wins:.2f}", text))
    header = ("workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "B wins", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
