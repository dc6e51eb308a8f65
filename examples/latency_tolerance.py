#!/usr/bin/env python
"""Figure 9 in miniature: how SPEAR flattens the memory-latency cliff.

Sweeps one workload across the paper's five latency configurations and
prints an ASCII degradation curve for baseline vs SPEAR.

Run:  python examples/latency_tolerance.py [workload]   (default: pointer)
"""

import sys

from repro import BASELINE, SPEAR_128, SPEAR_256, ExperimentRunner
from repro.memory import FIG9_LATENCIES
from repro.paper import CLAIMS


def bar(value: float, scale: float, width: int = 44) -> str:
    n = int(round(value / scale * width)) if scale else 0
    return "#" * max(1, n)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "pointer"
    runner = ExperimentRunner()
    configs = (BASELINE, SPEAR_128, SPEAR_256)

    print(f"== latency tolerance: {workload} ==\n")
    series = {c.name: [] for c in configs}
    for lat in FIG9_LATENCIES:
        for c in configs:
            series[c.name].append(runner.run(workload, c, lat).ipc)

    peak = max(max(v) for v in series.values())
    for i, lat in enumerate(FIG9_LATENCIES):
        print(f"memory latency {lat.memory:3d} / L2 {lat.l2:2d}:")
        for c in configs:
            ipc = series[c.name][i]
            print(f"  {c.name:12s} {ipc:6.3f}  {bar(ipc, peak)}")
        print()

    print("IPC retained at the longest latency (vs the shortest):")
    for c in configs:
        vals = series[c.name]
        print(f"  {c.name:12s} {vals[-1] / vals[0]:6.1%}")
    print("\nThe paper's mean IPC loss at the longest latency over its six "
          "Figure 9 benchmarks:")
    for claim in CLAIMS.values():
        if claim.figure == "figure9":
            print(f"  {claim.config:12s} {claim.paper}%")
    print("Pre-execution keeps feeding the caches while the main thread "
          "stalls.")


if __name__ == "__main__":
    main()
