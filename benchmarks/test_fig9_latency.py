"""Figure 9 — long-latency tolerance.

Six benchmarks (pointer, update, nbh, dm, mcf, vpr) swept over memory
latencies {40..200} / L2 {4..20}.  Paper: the ``figure9`` claims of
:mod:`repro.paper` — at the longest latency the baseline loses more of
its shortest-latency IPC than SPEAR-128/256 do, so pre-execution flattens
the degradation curve."""

from repro.harness import figure9

from .conftest import emit, emit_claims, once


def test_fig9_latency_tolerance(benchmark, runner, out_dir):
    res = once(benchmark, lambda: figure9(runner))

    base_deg = res.degradation("baseline")
    s128_deg = res.degradation("SPEAR-128")
    s256_deg = res.degradation("SPEAR-256")

    # the paper's headline shape: SPEAR tolerates long latencies better
    assert base_deg > s128_deg
    assert base_deg > s256_deg

    # IPC is monotonically non-increasing in latency for every series
    for series in res.ipc.values():
        for vals in series.values():
            assert all(a >= b * 0.999 for a, b in zip(vals, vals[1:]))

    # SPEAR stays above baseline at the longest latency point
    ahead = sum(1 for s in res.ipc.values()
                if s["SPEAR-256"][-1] >= s["baseline"][-1])
    assert ahead >= 5, "SPEAR should beat baseline at long latency nearly everywhere"

    emit(out_dir, "figure9", res.table().render())
    emit_claims(out_dir, "figure9", res)
