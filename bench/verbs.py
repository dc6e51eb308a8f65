"""The four benchmark workloads, driven only through the program's API.

Each workload has a set-up (everything before the first timed call) and
a repetition (one timed run of the verb plus its output checks).  Calls
go through module attributes (``parallel.run_cells``, not a name bound at
import), so the traced run's wrappers see them.

* ``fig6-cold`` — a cold ``repro figure 6``: 45 cells through the
  parallel engine on a fresh disk cache, then the table.
* ``suite-report`` — a cold ``repro report --suite`` over six workloads
  with tracer and sampler attached, then a warm re-render from the same
  cache in a fresh runner.
* ``fuzz-guided`` — a 200-program coverage-guided fuzz campaign on a
  fresh cache.
* ``kernel`` — the timing kernel alone: 14 ``make_simulator(...).run()``
  calls per round, in process, with no pool and no cache.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro import observe
from repro.core.configs import BASELINE, SPEAR_128
from repro.fuzz import schedule
from repro.fuzz.schedule import GuidedCampaignSpec
from repro.harness import experiments, parallel
from repro.harness.diskcache import DiskCache
from repro.harness.experiments import EVAL_WORKLOADS, PAPER_MEANS, \
    report_trace_spec
from repro.harness.journal import RunJournal
from repro.harness.runner import ExperimentRunner
from repro.memory.hierarchy import LatencyConfig, MemoryHierarchy
from repro.pipeline import kernel as kernels

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: ``suite-report`` rows: the pointer chasers, the big SPEAR wins (mcf,
#: matrix, art) and tr, whose baseline and SPEAR runs are identical.
SUITE_WORKLOADS = ["pointer", "update", "mcf", "matrix", "art", "tr"]

#: ``kernel`` workloads: the suite-report rows, so the kernel-only
#: numbers line up with a harness workload.
KERNEL_WORKLOADS = ["pointer", "mcf", "update", "matrix", "art", "tr"]

#: The stall point: the baseline machine against kilocycle memory, where
#: the fast-forward kernel has idle stretches to skip.
STALL_LATENCY = LatencyConfig(l1=1, l2=20, memory=1000)
STALL_WORKLOADS = ["pointer", "mcf"]

FUZZ_PROGRAMS = 200
SMOKE_FUZZ_PROGRAMS = 20


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass
class Context:
    """What every workload needs to know about the run."""

    seed: int
    jobs: int
    work: Path
    smoke: bool = False

    @property
    def scale(self) -> float:
        return 0.05 if self.smoke else 1.0

    def pinned(self, workload: str) -> dict | None:
        """Pinned output digests; smoke runs (scaled) have none."""
        if self.smoke:
            return None
        return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]


@dataclass
class Rep:
    """One timed repetition and what its checks found."""

    wall_s: float
    instructions: int
    cells: int
    failed_cells: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    #: workload-specific measurements (cache size, per-run samples, ...)
    extra: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


def permute_rows(cells: list, seed: int) -> list:
    """The seed's submission order: workload rows shuffled, and the
    configs within each row.  Rows stay contiguous, so each workload's
    cells still run side by side as they do in the CLI's order."""
    rng = random.Random(seed)
    rows: dict[str, list] = {}
    for cell in cells:
        rows.setdefault(cell.workload, []).append(cell)
    order = list(rows)
    rng.shuffle(order)
    out = []
    for name in order:
        row = list(rows[name])
        rng.shuffle(row)
        out.extend(row)
    return out


def cache_mb(cache: DiskCache) -> float:
    return cache.size_stats()["total"]["bytes"] / 2**20


class Fig6Cold:
    name = "fig6-cold"
    min_reps = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        self.cells = permute_rows(parallel.cells_for("figure6"),
                                  self.ctx.seed)
        self.pinned = self.ctx.pinned(self.name)

    def rep(self, k: int) -> Rep:
        root = self.ctx.work / f"cache-{k}"
        cache = DiskCache(root)
        runner = ExperimentRunner(instruction_scale=self.ctx.scale,
                                  cache=cache)
        journal = RunJournal.for_run("figure6", self.cells, runner,
                                     root=root / "journal")
        t0 = perf_counter()
        report = parallel.run_cells(runner, self.cells, self.ctx.jobs,
                                    journal=journal)
        bad = {f.cell.workload for f in report.failures}
        keep = [w for w in EVAL_WORKLOADS if w not in bad]
        result = experiments.figure6(runner, keep)
        table = result.table("Figure 6").render()
        wall = perf_counter() - t0

        rep = Rep(wall, sum(runner.run(c.workload, c.config).stats.committed
                            for c in self.cells
                            if c.workload not in bad),
                  len(self.cells), report.failed)
        rep.digests["table"] = sha256(table)
        if self.pinned is not None:
            rep.checks["table digest"] = \
                rep.digests["table"] == self.pinned["table"]
        means = result.mean_speedups
        rep.extra["paper_gap_pp"] = sum(
            abs((means[name] - 1) * 100 - PAPER_MEANS[name])
            for name in ("SPEAR-128", "SPEAR-256")) / 2
        rep.extra["cache_mb"] = cache_mb(cache)
        shutil.rmtree(root)
        return rep


class SuiteReport:
    name = "suite-report"
    min_reps = 2

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        self.spec = report_trace_spec()
        self.cells = permute_rows(
            parallel.report_cells(SUITE_WORKLOADS, [BASELINE, SPEAR_128],
                                  self.spec), self.ctx.seed)
        self.pinned = self.ctx.pinned(self.name)

    def _report(self, cache: DiskCache, journal_root: Path):
        """One ``repro report --suite``: the traced cells through the
        engine, then the markdown and the SVG grid."""
        runner = ExperimentRunner(instruction_scale=self.ctx.scale,
                                  cache=cache)
        journal = RunJournal.for_run("report-suite", self.cells, runner,
                                     root=journal_root)
        report = parallel.run_cells(runner, self.cells, self.ctx.jobs,
                                    journal=journal)
        bad = {f.cell.workload for f in report.failures}
        keep = [w for w in SUITE_WORKLOADS if w not in bad]
        md, suite = experiments.build_suite_report(runner, keep)
        svg = observe.render_suite_svg(suite)
        return runner, report, keep, md, svg

    def rep(self, k: int) -> Rep:
        root = self.ctx.work / f"cache-{k}"
        cache = DiskCache(root)
        t0 = perf_counter()
        runner, report, keep, md, svg = self._report(cache, root / "journal")
        cold = perf_counter() - t0

        # The warm pass may read the cache but must not write it: any
        # store would mean a cell was simulated again.
        before = {(kind, key, mtime) for kind, key, _size, mtime
                  in cache.iter_entries()}
        t0 = perf_counter()
        warm_runner, warm_report, _, warm_md, warm_svg = self._report(
            DiskCache(root), root / "journal")
        warm = perf_counter() - t0
        after = {(kind, key, mtime) for kind, key, _size, mtime
                 in cache.iter_entries()}

        instructions = sum(
            runner.run_traced(w, cfg, spec=self.spec).result.stats.committed
            for w in keep for cfg in (BASELINE, SPEAR_128))
        rep = Rep(cold + warm, instructions, 2 * len(self.cells),
                  report.failed + warm_report.failed)
        rep.digests["markdown"] = sha256(md)
        rep.digests["svg"] = sha256(svg)
        if self.pinned is not None:
            rep.checks["markdown digest"] = \
                rep.digests["markdown"] == self.pinned["markdown"]
            rep.checks["svg digest"] = rep.digests["svg"] == self.pinned["svg"]
        rep.checks["warm markdown identical"] = warm_md == md
        rep.checks["warm svg identical"] = warm_svg == svg
        rep.checks["warm pass simulated nothing"] = (
            before == after and warm_runner.simulations == 0)
        rep.extra["warm_report_s"] = warm
        rep.extra["cache_mb"] = cache_mb(cache)
        shutil.rmtree(root)
        return rep

    def tracer_overhead(self, repeats: int = 3) -> float:
        """pointer x SPEAR-128 with the report's tracer and sampler
        attached, over the same run untraced (medians of ``repeats``)."""
        from repro.observe import IntervalSampler, RingBufferSink
        art = ExperimentRunner(
            instruction_scale=self.ctx.scale).artifacts("pointer")

        def timed(traced: bool) -> float:
            samples = []
            for _ in range(repeats):
                hooks = {}
                if traced:
                    hooks = {"tracer": RingBufferSink(self.spec.capacity,
                                                      kinds=self.spec.kinds),
                             "sampler": IntervalSampler(self.spec.interval)}
                samples.append(_timed_run(
                    "reference", art, SPEAR_128, SPEAR_128.latencies,
                    **hooks)[0])
            return statistics.median(samples)

        return timed(True) / timed(False)


class FuzzGuided:
    name = "fuzz-guided"
    min_reps = 2

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.first: dict | None = None

    def setup(self) -> None:
        count = SMOKE_FUZZ_PROGRAMS if self.ctx.smoke else FUZZ_PROGRAMS
        self.spec = GuidedCampaignSpec(self.ctx.seed, count)
        pinned = self.ctx.pinned(self.name)
        self.pinned = pinned.get(str(self.ctx.seed)) if pinned else None

    def rep(self, k: int) -> Rep:
        root = self.ctx.work / f"cache-{k}"
        cache = DiskCache(root)
        # Generated programs halt within their own budgets, so fuzz cells
        # always run at full instruction scale, smoke runs included.
        runner = ExperimentRunner(cache=cache)
        t0 = perf_counter()
        result = schedule.run_guided_campaign(
            self.spec, runner, jobs=self.ctx.jobs,
            journal_root=root / "journal")
        wall = perf_counter() - t0

        instructions = 0
        for index, verdict in enumerate(result.verdicts):
            check = self.spec.check_for(index)
            runs = (len(check.configs) * len(check.backends)
                    + 2 * check.sweep_points)
            instructions += verdict.trace_len * runs
        failed = len(result.failed) + sum(r.failed
                                          for r in result.run_reports)
        rep = Rep(wall, instructions, self.spec.count, failed)
        outputs = {"triage": result.report.to_json(),
                   "coverage": result.coverage.to_json(),
                   "allocations": json.dumps(result.allocations,
                                             sort_keys=True)}
        rep.digests = {"triage": sha256(outputs["triage"]),
                       "coverage": result.coverage.content_hash()}
        rep.checks["no divergences"] = \
            result.report.counts["divergence"] == 0
        if self.first is None:
            self.first = outputs
        else:
            rep.checks["identical to first rep"] = outputs == self.first
        if self.pinned is not None:
            rep.checks["triage digest"] = \
                rep.digests["triage"] == self.pinned["triage"]
            rep.checks["coverage digest"] = \
                rep.digests["coverage"] == self.pinned["coverage"]
        rep.extra["coverage_bins"] = result.coverage.distinct
        rep.extra["cache_mb"] = cache_mb(cache)
        shutil.rmtree(root)
        return rep


def _timed_run(backend: str, art, config, latencies, profile=None,
               **hooks):
    """One ``make_simulator(...).run()``, construction included, with
    the collector paused so its pauses do not land in the sample.  With
    ``profile`` (a ``cProfile.Profile``), ``sim.run()`` runs under it."""
    cfg = config if latencies == config.latencies \
        else config.with_latencies(latencies)
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        sim = kernels.make_simulator(
            backend, art.eval_trace, cfg, art.binary.table,
            MemoryHierarchy(latencies=latencies), warmup=art.warmup_trace,
            **hooks)
        if profile is None:
            result = sim.run()
        else:
            result = profile.runcall(sim.run)
        return perf_counter() - t0, result
    finally:
        gc.enable()


class Kernel:
    name = "kernel"
    min_reps = 2
    #: rounds the traced run times untraced: 42 samples, enough for a
    #: p75 with ten samples beyond it
    percentile_rounds = 3

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        runner = ExperimentRunner(instruction_scale=self.ctx.scale)
        self.artifacts = {w: runner.artifacts(w) for w in KERNEL_WORKLOADS}
        runs = [(w, cfg, "reference", cfg.latencies)
                for w in KERNEL_WORKLOADS for cfg in (BASELINE, SPEAR_128)]
        runs += [(w, BASELINE, "fast-forward", STALL_LATENCY)
                 for w in STALL_WORKLOADS]
        random.Random(self.ctx.seed).shuffle(runs)
        self.runs = runs
        self.pinned = self.ctx.pinned(self.name)

    def rep(self, k: int, profiles: dict | None = None) -> Rep:
        """One round.  With ``profiles`` (``{memory latency:
        cProfile.Profile}``) each run's ``sim.run()`` is profiled."""
        samples, digests, failed = [], {}, 0
        instructions = 0
        for run in self.runs:
            workload, config, backend, latencies = run
            art = self.artifacts[workload]
            profile = profiles[latencies.memory] if profiles else None
            try:
                elapsed, result = _timed_run(backend, art, config,
                                             latencies, profile)
            except Exception:
                failed += 1
                continue
            samples.append(elapsed)
            instructions += result.stats.committed
            label = f"{workload}/{config.name}/{backend}/{latencies.memory}"
            digests[label] = sha256(
                pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        rep = Rep(sum(samples), instructions, len(self.runs), failed,
                  digests=digests)
        if self.pinned is not None:
            for label, digest in digests.items():
                rep.checks[f"{label} digest"] = digest == self.pinned[label]
        rep.extra["samples"] = samples
        return rep


WORKLOADS = {cls.name: cls for cls in (Fig6Cold, SuiteReport, FuzzGuided,
                                       Kernel)}
