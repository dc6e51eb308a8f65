"""Figure 8 — L1 data-cache miss reduction from pre-execution.

Paper: the ``figure8`` claims of :mod:`repro.paper` (the SPEAR-256 mean
and the best case).  Shape: most benchmarks see fewer main-thread misses,
the paper's best case (art-class streaming) sees a top-tier reduction,
and nothing gets dramatically worse."""

from repro.harness import figure8
from repro.paper import CLAIMS

from .conftest import emit, emit_claims, once

BEST_REDUCTION = CLAIMS["fig8-best"].workload


def test_fig8_miss_reduction(benchmark, runner, out_dir):
    res = once(benchmark, lambda: figure8(runner))

    mean256 = res.mean_reduction("SPEAR-256")
    assert mean256 > 0.10, "pre-execution must remove misses on average"

    reductions = {r["workload"]: r["SPEAR-256"] for r in res.rows}
    # art-class streaming gets top-tier reductions (paper's best case)
    assert reductions[BEST_REDUCTION] > mean256 * 0.8
    # pollution never explodes the miss count
    assert all(r > -0.25 for r in reductions.values())
    # benchmarks with (near) zero misses see no change
    for r in res.rows:
        if r["base"] == 0:
            assert r["m256"] == 0

    emit(out_dir, "figure8", res.table().render())
    emit_claims(out_dir, "figure8", res)
