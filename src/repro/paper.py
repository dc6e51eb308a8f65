"""The SPEAR paper's published numbers: the one place the code reads them.

* :data:`TABLE` has one :class:`PaperRow` per evaluated benchmark: Table
  3's SPEAR-256/SPEAR-128 ratio, branch hit ratio and instructions per
  branch, and whether Figure 6 shows it gaining, flat or losing.
* :data:`CLAIMS` has one :class:`Claim` per headline result, with the
  metric that measures it on its figure's result object.

Table 3's paper columns, the figure footers, ``repro list``, the figure
benchmarks and EXPERIMENTS.md's headline table all read these.  The
module holds data only and imports only the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class PaperRow:
    """One evaluated benchmark as the paper reports it."""

    #: Table 3: SPEAR-256 IPC over SPEAR-128 IPC
    ratio: float
    #: Table 3: bimodal branch hit ratio
    branch_hit_ratio: float
    #: Table 3: instructions per branch
    ipb: float
    #: Figure 6: "gain", "flat" or "loss"
    expectation: str


#: The 15 evaluated benchmarks, in Table 1 order.
TABLE: dict[str, PaperRow] = {
    "pointer": PaperRow(1.00, 0.9788, 7.08, "gain"),
    "update": PaperRow(0.94, 0.8865, 8.72, "gain"),
    "nbh": PaperRow(1.06, 0.9958, 15.21, "gain"),
    "tr": PaperRow(0.99, 0.8865, 22.55, "loss"),
    "matrix": PaperRow(1.45, 0.9942, 11.75, "gain"),
    "field": PaperRow(1.00, 0.9870, 39.30, "flat"),
    "dm": PaperRow(1.01, 0.8907, 4.92, "gain"),
    "ray": PaperRow(1.00, 0.9560, 7.21, "gain"),
    "fft": PaperRow(1.00, 0.9893, 10.32, "loss"),
    "gzip": PaperRow(1.00, 0.8986, 6.08, "loss"),
    "mcf": PaperRow(1.05, 0.9098, 3.45, "gain"),
    "vpr": PaperRow(1.00, 0.9005, 5.92, "gain"),
    "bzip2": PaperRow(1.04, 0.9425, 6.24, "gain"),
    "equake": PaperRow(1.15, 0.9018, 6.18, "gain"),
    "art": PaperRow(1.21, 0.9504, 6.43, "gain"),
}


# Metrics: each reads one configuration off a figure's result object and
# returns percent, or (benchmark, percent) for the benchmark that leads.

def mean_gain(result: Any, config: str) -> float:
    return (result.mean_speedups[config] - 1) * 100


def best_gain(result: Any, config: str) -> tuple[str, float]:
    name, speedup = result.best(config)
    return name, (speedup - 1) * 100


def mean_reduction(result: Any, config: str) -> float:
    return result.mean_reduction(config) * 100


def best_reduction(result: Any, config: str) -> tuple[str, float]:
    name, reduction = result.best(config)
    return name, reduction * 100


def degradation(result: Any, config: str) -> float:
    return result.degradation(config)


@dataclass(frozen=True)
class Claim:
    """One headline result: what the paper publishes and how to measure
    it on the result of ``figure`` (the experiment function's name)."""

    figure: str
    #: the machine configuration the claim is about
    config: str
    #: the published value, in percent
    paper: float
    metric: Callable[[Any, str], Any]
    #: its row label in EXPERIMENTS.md's headline table
    label: str
    #: how a value is printed
    fmt: str = "{:.1f}%"
    #: the benchmark the paper names as the best case, if any
    workload: str = ""
    #: whether EXPERIMENTS.md's headline table shows it
    headline: bool = True

    def measure(self, result: Any) -> Any:
        return self.metric(result, self.config)


#: The headline results, in the order EXPERIMENTS.md lists them.
CLAIMS: dict[str, Claim] = {
    "fig6-mean-128": Claim("figure6", "SPEAR-128", 12.7, mean_gain,
                           "Mean speedup, SPEAR-128", "{:+.1f}%"),
    "fig6-mean-256": Claim("figure6", "SPEAR-256", 20.1, mean_gain,
                           "Mean speedup, SPEAR-256", "{:+.1f}%"),
    "fig7-mean-sf128": Claim("figure7", "SPEAR.sf-128", 18.9, mean_gain,
                             "Mean speedup, SPEAR.sf-128", "{:+.1f}%"),
    "fig7-mean-sf256": Claim("figure7", "SPEAR.sf-256", 26.3, mean_gain,
                             "Mean speedup, SPEAR.sf-256", "{:+.1f}%"),
    "fig6-best": Claim("figure6", "SPEAR-256", 87.6, best_gain,
                       "Best-case benchmark", "{:+.1f}%", workload="mcf"),
    "fig8-mean-256": Claim("figure8", "SPEAR-256", 19.7, mean_reduction,
                           "Mean L1 miss reduction (256)"),
    "fig8-best": Claim("figure8", "SPEAR-256", 38.8, best_reduction,
                       "Best L1 miss reduction (256)", workload="art",
                       headline=False),
    "fig9-loss-base": Claim("figure9", "baseline", 48.5, degradation,
                            "IPC loss at longest latency, baseline"),
    "fig9-loss-128": Claim("figure9", "SPEAR-128", 39.7, degradation,
                           "IPC loss at longest latency, SPEAR-128"),
    "fig9-loss-256": Claim("figure9", "SPEAR-256", 38.4, degradation,
                           "IPC loss at longest latency, SPEAR-256"),
}
