"""Figure 6 — normalized IPC of baseline vs SPEAR-128 vs SPEAR-256.

Paper: the ``figure6`` claims of :mod:`repro.paper` (the two means and
the best case), and its Table 3 rows' gain/flat/loss verdicts.

Shape assertions (DESIGN.md §5): both SPEAR models gain on average, the
256-entry IFQ gains more, the paper's top gainer gains substantially, and
the four published non-gainers stay at or below a few percent.
"""

from repro.harness import figure6
from repro.paper import CLAIMS, TABLE

from .conftest import emit, emit_claims, once

FLAT_OR_LOSS = {name for name, row in TABLE.items()
                if row.expectation != "gain"}
TOP_GAINER = CLAIMS["fig6-best"].workload


def test_fig6_normalized_ipc(benchmark, runner, out_dir):
    res = once(benchmark, lambda: figure6(runner))

    means = res.mean_speedups
    assert means["SPEAR-128"] > 1.05
    assert means["SPEAR-256"] > means["SPEAR-128"]

    best_wl, best_speedup = res.best("SPEAR-256")
    gainers = {r["workload"]: r["SPEAR-256"] for r in res.rows}
    assert gainers[TOP_GAINER] > 1.25, \
        f"{TOP_GAINER} must gain substantially"
    assert best_wl not in FLAT_OR_LOSS

    for wl in FLAT_OR_LOSS:
        assert gainers[wl] < 1.15, f"{wl} should be flat-to-slightly-negative"

    emit(out_dir, "figure6", res.table(
        "Figure 6 — normalized IPC (baseline / SPEAR-128 / SPEAR-256)"
    ).render())
    emit_claims(out_dir, "figure6", res)
