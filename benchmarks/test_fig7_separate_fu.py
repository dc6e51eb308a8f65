"""Figure 7 — dedicated functional units (SPEAR.sf models).

Paper: the ``figure7`` claims of :mod:`repro.paper`, each above the
shared-FU mean of Figure 6.  Shape: the sf models are at least as fast as
their shared counterparts on average (dedicated resources can only remove
contention)."""

from repro.harness import figure7

from .conftest import emit, emit_claims, once


def test_fig7_dedicated_fus(benchmark, runner, out_dir):
    res = once(benchmark, lambda: figure7(runner))
    means = res.mean_speedups

    assert means["SPEAR.sf-128"] >= means["SPEAR-128"] * 0.99
    assert means["SPEAR.sf-256"] >= means["SPEAR-256"] * 0.99
    assert means["SPEAR.sf-256"] > means["SPEAR.sf-128"]

    # per-workload: sf never loses much to shared (same hardware + more FUs)
    for row in res.rows:
        assert row["SPEAR.sf-128"] > row["SPEAR-128"] - 0.05

    emit(out_dir, "figure7", res.table(
        "Figure 7 — normalized IPC including dedicated-FU models").render())
    emit_claims(out_dir, "figure7", res)
