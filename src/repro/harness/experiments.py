"""Regeneration of every table and figure in the paper's evaluation.

Each experiment's (workload x configuration [x latency]) cell matrix is
written once, in :data:`MATRICES`.  :func:`cells_for` enumerates it for
the parallel pre-run, and the experiment's function (``figure6``,
``table3``, ...) takes an :class:`ExperimentRunner`, reads the same
matrix back from the runner's memo, and returns a result object whose
``table()`` renders the same rows/series the paper reports.

The paper's published values come from :mod:`repro.paper`, so reports
show paper-vs-measured side by side (EXPERIMENTS.md is generated from
these).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.configs import (BASELINE, BASELINE_NEXTLINE, BASELINE_STRIDE,
                            SPEAR_128, SPEAR_256, SPEAR_SF_128, SPEAR_SF_256,
                            MachineConfig)
from ..memory.hierarchy import FIG9_LATENCIES, LatencyConfig
from ..observe.compare import (PE_EVENT_KINDS, SuiteDiff, TimelineDiff,
                               diff_timelines)
from ..observe.render import render_report, render_suite_report
from ..paper import CLAIMS, TABLE, mean_gain
from ..policy import POLICIES
from .runner import Cell, ExperimentRunner, TracedRun, TraceSpec
from .tables import TextTable, arithmetic_mean, geometric_mean

#: The 15 evaluated benchmarks, in Table 1 order (ll4 is excluded: it only
#: backs the Figure 1 walk-through).
EVAL_WORKLOADS = list(TABLE)

#: Paper Table 3: per-benchmark SPEAR-256/SPEAR-128 ratio, branch hit
#: ratio and instructions-per-branch.
PAPER_TABLE3 = {name: (row.ratio, row.branch_hit_ratio, row.ipb)
                for name, row in TABLE.items()}

#: Paper headline numbers (mean speedup over baseline, in percent).
PAPER_MEANS = {c.config: c.paper for c in CLAIMS.values()
               if c.metric is mean_gain}

#: Figure 9's six benchmarks and the paper's end-to-end degradations.
FIG9_WORKLOADS = ["pointer", "update", "nbh", "dm", "mcf", "vpr"]
PAPER_FIG9_DEGRADATION = {c.config: c.paper for c in CLAIMS.values()
                          if c.figure == "figure9"}

#: Benchmarks with regular (prefetcher-friendly) vs irregular access.
REGULAR_WORKLOADS = ["art", "matrix", "equake"]
IRREGULAR_WORKLOADS = ["pointer", "update", "mcf"]

#: Each experiment's cell matrix: its config columns, its default
#: workload rows and (figure 9 only) its latency points.  The parallel
#: pre-run (:func:`cells_for`) and the function that renders the
#: experiment both read this one entry.
MATRICES: dict[str, tuple[list[MachineConfig], list[str],
                          list[LatencyConfig] | None]] = {
    "figure6": ([BASELINE, SPEAR_128, SPEAR_256], EVAL_WORKLOADS, None),
    "figure7": ([BASELINE, SPEAR_128, SPEAR_256, SPEAR_SF_128, SPEAR_SF_256],
                EVAL_WORKLOADS, None),
    "figure8": ([BASELINE, SPEAR_128, SPEAR_256], EVAL_WORKLOADS, None),
    "figure9": ([BASELINE, SPEAR_128, SPEAR_256], FIG9_WORKLOADS,
                FIG9_LATENCIES),
    "table3": ([SPEAR_128, SPEAR_256], EVAL_WORKLOADS, None),
    "motivation": ([BASELINE, BASELINE_NEXTLINE, BASELINE_STRIDE, SPEAR_128],
                   REGULAR_WORKLOADS + IRREGULAR_WORKLOADS, None),
}
#: ``repro compare``: figure 7's five models, on the workload it names.
MATRICES["compare"] = MATRICES["figure7"]


def cells_for(experiment: str,
              workloads: list[str] | None = None,
              policy: str | None = None) -> list[Cell]:
    """Enumerate the cell matrix of one experiment, workload-major, in
    the order its function reads it."""
    configs, rows, latencies = MATRICES[experiment]
    return [Cell(n, c, lat, policy=policy) for n in workloads or rows
            for lat in latencies or [None] for c in configs]


def report_cells(workloads: list[str], configs: list[MachineConfig],
                 spec: TraceSpec, policy: str | None = None) -> list[Cell]:
    """Enumerate the traced-cell matrix of a (suite) report: every
    workload under every config, all captured under one trace spec."""
    return [Cell(n, c, trace=spec, policy=policy)
            for n in workloads for c in configs]


# ---------------------------------------------------------------------------
# Table 1 — benchmark inventory
# ---------------------------------------------------------------------------

def table1(runner: ExperimentRunner,
           workloads: list[str] | None = None) -> TextTable:
    """Benchmark suite + simulated instruction counts (scaled analogs)."""
    t = TextTable("Table 1 — benchmark suite (scaled analogs)",
                  ["suite", "name", "text size", "trace instrs", "loads",
                   "IPB", "d-loads found"])
    for name in workloads or EVAL_WORKLOADS:
        art = runner.artifacts(name)
        trace = art.eval_trace
        t.add_row(art.workload.suite, name, len(art.binary.program),
                  len(trace), trace.count_loads(),
                  trace.instructions_per_branch(),
                  len(art.binary.table))
    return t


# ---------------------------------------------------------------------------
# Table 2 — simulation parameters
# ---------------------------------------------------------------------------

def table2(config: MachineConfig = SPEAR_128) -> TextTable:
    """Machine parameter dump, mirroring the paper's Table 2."""
    t = TextTable("Table 2 — simulation parameters", ["parameter", "value"])
    for key, value in config.describe().items():
        t.add_row(key, value)
    return t


# ---------------------------------------------------------------------------
# Figure 6 — normalized IPC, baseline vs SPEAR-128 vs SPEAR-256
# ---------------------------------------------------------------------------

@dataclass
class SpeedupResult:
    """Normalized-IPC comparison across configurations."""

    configs: list[MachineConfig]
    rows: list[dict] = field(default_factory=list)

    @property
    def mean_speedups(self) -> dict[str, float]:
        out = {}
        for cfg in self.configs[1:]:
            out[cfg.name] = arithmetic_mean(
                [r[cfg.name] for r in self.rows])
        return out

    @property
    def geomean_speedups(self) -> dict[str, float]:
        out = {}
        for cfg in self.configs[1:]:
            out[cfg.name] = geometric_mean([r[cfg.name] for r in self.rows])
        return out

    def best(self, config_name: str) -> tuple[str, float]:
        row = max(self.rows, key=lambda r: r[config_name])
        return row["workload"], row[config_name]

    def table(self, title: str) -> TextTable:
        cols = ["workload", "IPC base"] + [
            f"{c.name} (norm)" for c in self.configs[1:]]
        t = TextTable(title, cols)
        for r in self.rows:
            t.add_row(r["workload"], r["ipc_base"],
                      *[r[c.name] for c in self.configs[1:]])
        for cfg in self.configs[1:]:
            mean = self.mean_speedups[cfg.name]
            paper = PAPER_MEANS.get(cfg.name)
            note = f" (paper: +{paper}%)" if paper is not None else ""
            t.add_footer(f"mean {cfg.name}: {(mean - 1) * 100:+.1f}%{note}  "
                         f"geomean {(self.geomean_speedups[cfg.name] - 1) * 100:+.1f}%")
        return t


def figure6(runner: ExperimentRunner,
            workloads: list[str] | None = None) -> SpeedupResult:
    """Baseline vs SPEAR-128 vs SPEAR-256 (the paper's values are the
    ``figure6`` claims and Table 3 verdicts of :mod:`repro.paper`)."""
    return _speedups(runner, "figure6", workloads)


def figure7(runner: ExperimentRunner,
            workloads: list[str] | None = None) -> SpeedupResult:
    """Figure 6 plus the dedicated-FU models (the paper's means are the
    ``figure7`` claims of :mod:`repro.paper`)."""
    return _speedups(runner, "figure7", workloads)


def _speedups(runner: ExperimentRunner, experiment: str,
              workloads: list[str] | None) -> SpeedupResult:
    configs, rows, _ = MATRICES[experiment]
    result = SpeedupResult(configs)
    for name in workloads or rows:
        base = runner.run(name, configs[0])
        row = {"workload": name, "ipc_base": base.ipc}
        for cfg in configs[1:]:
            row[cfg.name] = runner.run(name, cfg).ipc / base.ipc
        result.rows.append(row)
    return result


# ---------------------------------------------------------------------------
# Table 3 — effect of a longer IFQ
# ---------------------------------------------------------------------------

def table3(runner: ExperimentRunner,
           workloads: list[str] | None = None) -> TextTable:
    """SPEAR-256/SPEAR-128 ratio, branch hit ratio, IPB — vs the paper."""
    t = TextTable(
        "Table 3 — performance enhancement with a longer IFQ",
        ["workload", "256/128", "paper", "branch hit", "paper",
         "IPB", "paper"])
    configs, rows, _ = MATRICES["table3"]
    ratios = []
    for name in workloads or rows:
        r128, r256 = (runner.run(name, c) for c in configs)
        ratio = r256.ipc / r128.ipc
        ratios.append(ratio)
        stats = r128.stats
        bhr = stats.branch_hit_ratio
        # The eval trace's IPB: normal fetch predicts each of its
        # conditional branches exactly once.
        ipb = (stats.committed / stats.cond_branches
               if stats.cond_branches else float("inf"))
        p_ratio, p_bhr, p_ipb = PAPER_TABLE3.get(name, ("-", "-", "-"))
        t.add_row(name, ratio, p_ratio, bhr, p_bhr, ipb, p_ipb)
    t.add_footer(f"mean 256/128 ratio: {arithmetic_mean(ratios):.3f}")
    return t


# ---------------------------------------------------------------------------
# Figure 8 — cache miss reduction
# ---------------------------------------------------------------------------

@dataclass
class MissReductionResult:
    rows: list[dict] = field(default_factory=list)

    def mean_reduction(self, config_name: str) -> float:
        return arithmetic_mean([r[config_name] for r in self.rows])

    def best(self, config_name: str) -> tuple[str, float]:
        row = max(self.rows, key=lambda r: r[config_name])
        return row["workload"], row[config_name]

    def table(self) -> TextTable:
        mean, best = CLAIMS["fig8-mean-256"], CLAIMS["fig8-best"]
        t = TextTable(
            "Figure 8 — L1-D miss reduction (main thread)",
            ["workload", "baseline misses", "SPEAR-128", "reduction %",
             "SPEAR-256", "reduction %"])
        for r in self.rows:
            t.add_row(r["workload"], r["base"], r["m128"],
                      r["SPEAR-128"] * 100, r["m256"], r["SPEAR-256"] * 100)
        t.add_footer(
            f"mean reduction SPEAR-128: "
            f"{self.mean_reduction('SPEAR-128') * 100:.1f}%   "
            f"SPEAR-256: {self.mean_reduction('SPEAR-256') * 100:.1f}% "
            f"(paper: {mean.paper}% for {mean.config}, "
            f"best {best.workload} -{best.paper}%)")
        return t


def figure8(runner: ExperimentRunner,
            workloads: list[str] | None = None) -> MissReductionResult:
    """Main-thread L1 miss reduction under SPEAR (the paper's values are
    the ``figure8`` claims of :mod:`repro.paper`)."""
    configs, rows, _ = MATRICES["figure8"]
    result = MissReductionResult()
    for name in workloads or rows:
        base, m128, m256 = (runner.run(name, c).main_l1_misses
                            for c in configs)
        result.rows.append({
            "workload": name, "base": base, "m128": m128, "m256": m256,
            "SPEAR-128": (base - m128) / base if base else 0.0,
            "SPEAR-256": (base - m256) / base if base else 0.0,
        })
    return result


# ---------------------------------------------------------------------------
# Figure 9 — long latency tolerance
# ---------------------------------------------------------------------------

@dataclass
class LatencySweepResult:
    latencies: list[LatencyConfig]
    configs: list[MachineConfig]
    #: ipc[workload][config_name] -> list of IPCs, one per latency point
    ipc: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def degradation(self, config_name: str) -> float:
        """Mean IPC loss (%) at the longest latency vs the shortest."""
        losses = []
        for series in self.ipc.values():
            vals = series[config_name]
            losses.append((vals[0] - vals[-1]) / vals[0] * 100)
        return arithmetic_mean(losses)

    def table(self) -> TextTable:
        cols = ["workload", "config"] + [
            f"mem={l.memory}/L2={l.l2}" for l in self.latencies]
        t = TextTable("Figure 9 — IPC under varying memory latency", cols)
        for name, series in self.ipc.items():
            for cfg in self.configs:
                t.add_row(name, cfg.name, *series[cfg.name])
        for cfg in self.configs:
            paper = PAPER_FIG9_DEGRADATION.get(cfg.name)
            note = f" (paper: {paper}%)" if paper is not None else ""
            t.add_footer(f"{cfg.name}: loses {self.degradation(cfg.name):.1f}% "
                         f"at longest latency{note}")
        return t


def figure9(runner: ExperimentRunner,
            workloads: list[str] | None = None,
            latencies: list[LatencyConfig] | None = None) -> LatencySweepResult:
    """Latency sweep over the paper's six benchmarks (the paper's losses
    at the longest latency are the ``figure9`` claims of
    :mod:`repro.paper`)."""
    configs, rows, points = MATRICES["figure9"]
    latencies = latencies or points
    result = LatencySweepResult(latencies, configs)
    for name in workloads or rows:
        series: dict[str, list[float]] = {c.name: [] for c in configs}
        for lat in latencies:
            for cfg in configs:
                series[cfg.name].append(runner.run(name, cfg, lat).ipc)
        result.ipc[name] = series
    return result


# ---------------------------------------------------------------------------
# Motivation experiment — traditional prefetching vs pre-execution
# ---------------------------------------------------------------------------

def motivation(runner: ExperimentRunner,
               workloads: list[str] | None = None) -> SpeedupResult:
    """The paper's opening claim, measured: traditional prefetchers
    (next-line, stride) help regular streams but fail on irregular
    patterns, while pre-execution helps both."""
    return _speedups(runner, "motivation", workloads)


# ---------------------------------------------------------------------------
# Fill timeliness — where the miss reductions actually come from
# ---------------------------------------------------------------------------

@dataclass
class TimelinessResult:
    """Per-(workload, config) timeliness of speculative fills.

    Complements Figure 8: the same miss-count reduction can come from
    all-timely fills (latency fully hidden) or mostly-late ones (partially
    hidden), and the paper's aggregate metrics cannot tell them apart."""

    rows: list[dict] = field(default_factory=list)

    def table(self) -> TextTable:
        t = TextTable(
            "Speculative fill timeliness (p-thread and prefetcher)",
            ["workload", "config", "source", "fills", "timely", "late",
             "unused", "redundant", "timely_pct"])
        for r in self.rows:
            t.add_row(r["workload"], r["config"], r["source"], r["fills"],
                      r["timely"], r["late"], r["unused"], r["redundant"],
                      r["timely_pct"])
        return t


# ---------------------------------------------------------------------------
# Timeline comparison — where in a run the speedup lives
# ---------------------------------------------------------------------------

def report_trace_spec(interval: int = 1000) -> TraceSpec:
    """The one trace spec every report path shares.

    Only the pre-execution event kinds are captured, unbounded:
    attribution must see the *whole* run (a ring buffer keeping the
    newest N would drop early extract events and misclassify early wins
    as variance), and the PE kinds are a small fraction of a full
    stream.  Centralized so a parallel pre-run (``run_cells`` over
    :func:`report_cells`) seeds exactly the memo entries the diff below
    will look up.
    """
    return TraceSpec(interval=interval, capacity=None,
                     kinds=tuple(sorted(PE_EVENT_KINDS)))


def _traced_pair(runner: ExperimentRunner, workload: str,
                 baseline: MachineConfig, model: MachineConfig,
                 interval: int) -> tuple[TracedRun, TracedRun, TimelineDiff]:
    """``workload`` traced under both configs (the cells
    :func:`report_cells` enumerates), and the diff of their timelines."""
    spec = report_trace_spec(interval)
    base = runner.run_traced(workload, baseline, spec=spec)
    mod = runner.run_traced(workload, model, spec=spec)
    return base, mod, diff_timelines(
        base.result.timeline, mod.result.timeline, mod.events,
        workload=workload, base_name=baseline.name, model_name=model.name)


def timeline_diff(runner: ExperimentRunner, workload: str,
                  baseline: MachineConfig = BASELINE,
                  model: MachineConfig = SPEAR_128, *,
                  interval: int = 1000) -> TimelineDiff:
    """Trace ``workload`` under both configs and diff the timelines.

    Both traced runs go through :meth:`ExperimentRunner.run_traced`, so
    they are memoized and disk-cached under the existing ``traces`` kind;
    a report re-render after a warm run simulates nothing.
    """
    return _traced_pair(runner, workload, baseline, model, interval)[2]


def diff_table(diff: TimelineDiff) -> TextTable:
    """The per-interval attribution rows as an aligned text table."""
    t = TextTable(
        f"{diff.workload}: {diff.base_name} vs {diff.model_name} — "
        f"per-{diff.interval}-cycle cycles-saved attribution",
        ["cycle", "committed", "ipc base", "ipc model", "saved cum",
         "saved Δ", "extracts", "fills", "pt instrs", "attribution"])
    for r in diff.rows:
        t.add_row(r["cycle"], r["committed"], round(r["ipc_base"], 3),
                  round(r["ipc_model"], 3), round(r["cycles_saved"], 1),
                  round(r["saved_delta"], 1), r["extracts"], r["fills"],
                  r["pt_completed"], r["attribution"])
    s = diff.attribution_summary()
    t.add_footer(
        f"total cycles saved {diff.total_cycles_saved:.0f} "
        f"(speedup {diff.speedup:.3f}x); intervals: "
        f"{s['pre-execution']} pre-execution, {s['variance']} variance, "
        f"{s['regression']} regression, {s['neutral']} neutral")
    t.add_footer(f"{diff.attributed_fraction * 100:.1f}% of the win in "
                 f"pre-execution intervals")
    return t


def per_thread_table(traced: TracedRun, workload: str = "") -> TextTable:
    """The per-thread interval series of one traced run as a table."""
    tl = traced.result.timeline
    name = workload or traced.result.workload
    t = TextTable(
        f"{name} / {traced.result.config_name} — per-thread series "
        f"(interval {tl['interval']} cycles)",
        ["cycle", "thread", "completed", "ipc", "issued", "issue share",
         "l1 misses", "miss rate"])
    for thread in tl.get("per_thread", ()):
        for s in thread["samples"]:
            t.add_row(s["cycle"], thread["name"], s["completed"],
                      round(s["ipc"], 3), s["issued"],
                      round(s["issue_share"], 3), s["l1_misses"],
                      round(s["l1_miss_rate"], 3))
    return t


def build_report(runner: ExperimentRunner, workload: str,
                 baseline: MachineConfig = BASELINE,
                 model: MachineConfig = SPEAR_128, *,
                 interval: int = 1000) -> tuple[str, TimelineDiff]:
    """The ``repro report`` markdown document for one workload plus its
    diff (callers render the SVG panels from the diff)."""
    base, mod, diff = _traced_pair(runner, workload, baseline, model,
                                   interval)
    return render_report(diff, mod.result.timeline,
                         model_fills=mod.result.memory["fills"],
                         base_ipc=base.result.ipc,
                         model_ipc=mod.result.ipc), diff


def suite_diff(runner: ExperimentRunner,
               workloads: list[str] | None = None,
               baseline: MachineConfig = BASELINE,
               model: MachineConfig = SPEAR_128, *,
               interval: int = 1000) -> SuiteDiff:
    """Diff baseline vs model for every workload and aggregate.

    Whole-run IPCs come from the traced results themselves, and the
    returned aggregate is validated — its geomean provably equals the
    product of the per-workload cycle ratios raised to ``1/n``.
    """
    diffs, base_ipcs, model_ipcs = [], [], []
    for name in workloads or EVAL_WORKLOADS:
        base, mod, diff = _traced_pair(runner, name, baseline, model,
                                       interval)
        diffs.append(diff)
        base_ipcs.append(base.result.ipc)
        model_ipcs.append(mod.result.ipc)
    return SuiteDiff.from_diffs(diffs, base_ipcs, model_ipcs).validate()


def suite_table(suite: SuiteDiff) -> TextTable:
    """The suite aggregate as an aligned text table with geomean footer."""
    t = TextTable(
        f"suite: {suite.base_name} vs {suite.model_name} — per-workload "
        f"speedups ({len(suite.rows)} workloads)",
        ["workload", "base cycles", "model cycles", "base ipc",
         "model ipc", "speedup", "saved", "PE intervals", "attributed"])
    for r in suite.rows:
        t.add_row(r["workload"], r["base_cycles"], r["model_cycles"],
                  round(r["base_ipc"], 3), round(r["model_ipc"], 3),
                  f"{r['speedup']:.3f}x", r["cycles_saved"],
                  f"{r['pe_intervals']}/{r['intervals']}",
                  f"{r['attributed_fraction'] * 100:.1f}%")
    t.add_footer(f"geomean speedup {suite.geomean_speedup:.3f}x")
    return t


def build_suite_report(runner: ExperimentRunner,
                       workloads: list[str] | None = None,
                       baseline: MachineConfig = BASELINE,
                       model: MachineConfig = SPEAR_128, *,
                       interval: int = 1000) -> tuple[str, SuiteDiff]:
    """The ``repro report --suite`` markdown document plus its aggregate
    (callers render the SVG grid from the aggregate)."""
    suite = suite_diff(runner, workloads, baseline, model,
                       interval=interval)
    return render_suite_report(suite), suite


def timeliness(runner: ExperimentRunner,
               workloads: list[str] | None = None,
               configs: list[MachineConfig] | None = None
               ) -> TimelinessResult:
    """Classify every speculative fill of each (workload, config) cell.

    Reads the ``fills`` section the hierarchy snapshot attaches to every
    result, so cells already simulated for the figures are reused as-is."""
    result = TimelinessResult()
    for name in workloads or EVAL_WORKLOADS:
        for cfg in configs or [SPEAR_128, SPEAR_256]:
            fills = runner.run(name, cfg).memory["fills"]
            for source in ("pthread", "prefetch"):
                f = fills[source]
                if not f["attempts"]:
                    continue
                result.rows.append({
                    "workload": name, "config": cfg.name, "source": source,
                    "fills": f["fills"], "timely": f["timely"],
                    "late": f["late"], "unused": f["unused"],
                    "redundant": f["redundant"],
                    "timely_pct": (f["timely"] / f["fills"] * 100
                                   if f["fills"] else 0.0),
                })
    return result


# ---------------------------------------------------------------------------
# Policy ablation — fixed vs adaptive trigger policies
# ---------------------------------------------------------------------------

#: Fuzz-campaign finds promoted as workloads (PR 8) — included in the
#: policy ablation so the feedback controller is exercised on kernels the
#: hand-built suite does not cover.
FUZZ_WORKLOADS = ["fzgain", "fzmix", "fzdrag", "fzsrl"]


def policy_ablation_workloads() -> list[str]:
    """The policy ablation's default rows: the 15 evaluated benchmarks
    plus the promoted ``fz*`` fuzz finds."""
    return list(EVAL_WORKLOADS) + list(FUZZ_WORKLOADS)


@dataclass
class PolicyAblationResult:
    """Fixed vs adaptive speedups plus the timeliness movement behind
    them (``d_*`` columns are adaptive-epoch fill counts minus fixed)."""

    policies: list[str]
    config: MachineConfig
    rows: list[dict] = field(default_factory=list)

    def geomean(self, policy: str) -> float:
        return geometric_mean([r[policy] for r in self.rows])

    def table(self) -> TextTable:
        t = TextTable(
            f"Policy ablation — {self.config.name} trigger policy "
            f"(speedup vs baseline)",
            ["workload"] + list(self.policies)
            + ["epoch point", "d-timely", "d-late", "d-unused"])
        for r in self.rows:
            t.add_row(r["workload"], *[r[p] for p in self.policies],
                      r["epoch_point"], r["d_timely"], r["d_late"],
                      r["d_unused"])
        for p in self.policies:
            t.add_footer(f"geomean {p}: {self.geomean(p):.3f}")
        moved = sum(1 for r in self.rows if "(hold)" not in r["epoch_point"])
        t.add_footer(f"epoch controller moved off the paper's point on "
                     f"{moved}/{len(self.rows)} workloads; balanced "
                     f"counters hold the fixed behaviour on the rest")
        return t


def ablate_policy(runner: ExperimentRunner,
                  workloads: list[str] | None = None,
                  policies: tuple[str, ...] = POLICIES,
                  config: MachineConfig = SPEAR_128,
                  baseline: MachineConfig = BASELINE
                  ) -> PolicyAblationResult:
    """The headline policy experiment: per-workload speedup under each
    trigger policy, with the fill-timeliness delta that explains the
    adaptive-epoch movement.

    Adaptive-epoch can never fall below fixed by construction (epoch 0
    *is* the fixed run and moves are adopted only when IPC does not
    drop), so its geomean ≥ fixed geomean is an invariant the benchmark
    layer asserts, not a tuning outcome.
    """
    result = PolicyAblationResult(list(policies), config)
    for name in workloads or policy_ablation_workloads():
        base = runner.run(name, baseline)
        row = {"workload": name}
        by_policy = {}
        for p in policies:
            res = runner.run(name, config, policy=p)
            by_policy[p] = res
            row[p] = res.ipc / base.ipc
        fixed_fills = by_policy["fixed"].memory["fills"]["pthread"] \
            if "fixed" in by_policy else None
        epoch = by_policy.get("adaptive-epoch")
        if epoch is not None and fixed_fills is not None:
            pol = epoch.policy or {}
            lvl = pol.get("final_level")
            frac = pol.get("final_fraction")
            chain = pol.get("final_chaining")
            moved = "->" in pol.get("trajectory", "")
            row["epoch_point"] = (
                f"L{lvl} {frac:g}/{'chain' if chain else 'no-chain'}"
                if moved else f"L{lvl} (hold)")
            ef = epoch.memory["fills"]["pthread"]
            row["d_timely"] = ef["timely"] - fixed_fills["timely"]
            row["d_late"] = ef["late"] - fixed_fills["late"]
            row["d_unused"] = ef["unused"] - fixed_fills["unused"]
        else:
            row["epoch_point"] = "-"
            row["d_timely"] = row["d_late"] = row["d_unused"] = 0
        result.rows.append(row)
    return result


def ablate_policy_cells(workloads: list[str] | None = None,
                        policies: tuple[str, ...] = POLICIES,
                        config: MachineConfig = SPEAR_128,
                        baseline: MachineConfig = BASELINE) -> list:
    """The parallel-engine cell matrix behind :func:`ablate_policy`:
    one baseline cell per workload plus one cell per (workload, policy).
    Running these through ``run_cells`` warms exactly the memo entries
    the table assembly reads."""
    names = workloads or policy_ablation_workloads()
    cells = []
    for n in names:
        cells.append(Cell(n, baseline))
        for p in policies:
            cells.append(Cell(n, config, policy=p))
    return cells
