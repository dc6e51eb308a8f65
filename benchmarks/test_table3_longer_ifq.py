"""Table 3 — effect of the longer IFQ (SPEAR-256 / SPEAR-128 ratio,
branch hit ratio, IPB), side by side with the paper's values.

Shape: high-branch-hit workloads benefit most from the deeper queue
(paper: matrix, the highest ratio in :mod:`repro.paper`'s table); at
least one low-hit workload fails to benefit (paper: update and tr — ours:
fft and gzip dip below 1)."""

from repro.harness import table3
from repro.paper import TABLE

from .conftest import emit, once

WINNER = max(TABLE, key=lambda name: TABLE[name].ratio)


def test_table3_longer_ifq(benchmark, runner, out_dir):
    t = once(benchmark, lambda: table3(runner))
    ratios = {row[0]: row[1] for row in t.rows}

    assert ratios[WINNER] > 1.1, f"{WINNER} is the deep-IFQ winner"
    assert min(ratios.values()) < 1.005, \
        "some benchmark must fail to benefit from the longer IFQ"
    assert max(ratios.values()) == ratios[WINNER] or \
        max(ratios.values()) < 1.5

    emit(out_dir, "table3", t.render())
