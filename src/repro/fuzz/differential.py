"""Per-program differential evaluation: one kernel, one verdict.

For each generated kernel the evaluator runs the full reproduction
pipeline and cross-checks every layer against an independent witness:

* **oracle**      — final architectural state (registers + memory) of
  the functional simulator vs the :mod:`~repro.fuzz.oracle` interpreter
  executing the spec IR directly;
* **halt**        — the program reaches its halt within budget (true by
  construction; a miss means the generator or simulator lost control
  flow);
* **slicer**      — every extracted p-thread names a real load as its
  trigger and stays inside the text segment;
* **commits**     — each timing run commits exactly the functional
  trace (no instruction duplicated or dropped), baseline and SPEAR;
* **backends**    — ``run()``, which skips provably idle stretches, and
  the per-cycle walk produce byte-identical stats, memory and predictor
  state for every config;
* **sweep**       — (sampled) ``run()`` vs the walk again for the spear
  config at figure-9 memory latencies other than its own, which the
  backends check already runs;
* **fills**       — ``timely + late + unused == fills`` for every
  speculative-fill source.

Any failed check makes the verdict a **divergence**; otherwise the
kernel is classified speedup / neutral / regression from the
SPEAR-vs-baseline IPC ratio of the ``run()`` results.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler.driver import compile_spear
from ..compiler.slicer import SlicerConfig
from ..core.configs import PAPER_CONFIGS, MachineConfig
from ..functional.simulator import FunctionalSimulator
from ..memory.hierarchy import FIG9_LATENCIES, LatencyConfig, MemoryHierarchy
from ..pipeline.smt import TimingSimulator
from ..pipeline.stats import PipelineResult
from .generator import SpecWorkload, spec_layout
from .oracle import functional_summary, run_oracle


#: Version of the raw behaviour tuple measured below and attached to
#: every verdict (``FuzzVerdict.behavior``).  Folded into the check
#: payload, so verdicts cached by a build with a different — or no —
#: behaviour schema can never satisfy this one's cells.
BEHAVIOR_VERSION = 1

#: The raw tuple's field order.  All integers; SPEAR-side counters come
#: from the spear config's ``run()`` result, cache counters from the
#: *baseline* run (the memory character SPEAR reacts to), slice shape
#: from the compiled p-thread table.
BEHAVIOR_FIELDS = (
    "triggers",          # pre-execution modes entered (spear)
    "retriggers",        # dormant-d-load/chaining trigger hand-offs
    "modes_completed",   # trigger d-load instances retired in-mode
    "cycles_in_mode",    # cycles spent with the PE active (spear)
    "cycles",            # total cycles (spear)
    "fills",             # p-thread speculative fills started
    "timely", "late", "unused",   # the fill-timeliness partition
    "accesses",          # baseline main-thread L1 accesses
    "l1_misses",         # baseline main-thread primary L1 misses
    "l2_refs",           # baseline main-thread L2 references
    "l2_misses",         # baseline main-thread L2 misses
    "n_slices",          # p-threads in the compiled table
    "slice_total",       # statements across all slices
    "slice_max",         # longest single slice
)


@dataclass(frozen=True)
class FuzzCheckSpec:
    """What one fuzz cell checks — picklable, hashable, and folded into
    the cell's cache/journal key, so changing any knob re-verdicts."""

    #: (baseline, spear) config names from the paper's evaluated models
    configs: tuple[str, str] = ("baseline", "SPEAR-256")
    #: kernel names, part of the cell key only: the check runs each
    #: config once skipping and once walking, whatever they say
    backends: tuple[str, ...] = ("reference", "fast-forward")
    #: figure-9 latency points at which the sweep check compares
    #: ``run()`` with the walk (0 disables; campaigns sample it on a
    #: subset of programs)
    sweep_points: int = 0
    #: IPC-ratio thresholds for speedup / regression classification
    speedup: float = 1.05
    regression: float = 0.95

    def payload(self) -> dict:
        return {"configs": list(self.configs),
                "backends": list(self.backends),
                "sweep_points": self.sweep_points,
                "speedup": self.speedup, "regression": self.regression,
                "behavior": BEHAVIOR_VERSION}

    def resolve_configs(self) -> tuple[MachineConfig, MachineConfig]:
        return PAPER_CONFIGS[self.configs[0]], PAPER_CONFIGS[self.configs[1]]

    def sweep_latencies(self) -> list[LatencyConfig]:
        """The figure-9 latency points the sweep check samples: those
        other than the spear config's own latencies, which the backends
        check already runs, spread evenly (mem = 40 and 160 at two
        points, and never more than four)."""
        own = self.resolve_configs()[1].latencies
        points = [lat for lat in FIG9_LATENCIES if lat != own]
        step = max(1, len(points) // max(1, self.sweep_points))
        return points[::step][:self.sweep_points]


@dataclass(frozen=True)
class FuzzVerdict:
    """The (small, picklable) outcome of one program's evaluation."""

    name: str
    classification: str          #: speedup | neutral | regression | divergence
    speedup: float               #: SPEAR/baseline IPC ratio (reference)
    baseline_ipc: float
    spear_ipc: float
    commits: int                 #: baseline committed instructions
    trace_len: int               #: functional eval-trace length
    halted: bool
    triggers: int                #: SPEAR pre-execution modes entered
    spec_size: int               #: statement count (shrink metric)
    divergences: tuple[str, ...] = ()
    checks: tuple[str, ...] = ()
    #: raw behaviour measurements, :data:`BEHAVIOR_FIELDS` order; None
    #: when the evaluation died before the timing runs (the coverage
    #: layer bands those as unmeasured).  Defaulted, so verdicts pickled
    #: before the coverage engine still unpickle.
    behavior: tuple[int, ...] | None = None

    @property
    def diverged(self) -> bool:
        return bool(self.divergences)

    def to_dict(self) -> dict:
        return {"name": self.name, "classification": self.classification,
                "speedup": round(self.speedup, 6),
                "baseline_ipc": round(self.baseline_ipc, 6),
                "spear_ipc": round(self.spear_ipc, 6),
                "commits": self.commits, "trace_len": self.trace_len,
                "halted": self.halted, "triggers": self.triggers,
                "spec_size": self.spec_size,
                "divergences": list(self.divergences),
                "checks": list(self.checks),
                "behavior": (list(self.behavior)
                             if self.behavior is not None else None)}


def timing_runs(verdict: FuzzVerdict, check: FuzzCheckSpec) -> int:
    """How many timing runs the evaluation behind ``verdict`` made: a
    skipping and a walking run per config once the functional trace
    existed, and two per sampled latency point when the sweep ran,
    which needs a compiled p-thread table."""
    runs = 2 * len(check.configs) if "backends" in verdict.checks else 0
    if "sweep" in verdict.checks:
        runs += 2 * len(check.sweep_latencies())
    return runs


def _timing_run(trace, cfg: MachineConfig, table, *,
                walk: bool) -> PipelineResult:
    """``run()`` of ``trace`` on ``cfg``, as the harness runs it, or with
    ``walk`` the per-cycle walk it must match (the idle skip off)."""
    sim = TimingSimulator(trace, cfg, table,
                          MemoryHierarchy(latencies=cfg.latencies))
    if walk:
        sim._ff = False
    return sim.run()


def _result_state(result: PipelineResult) -> tuple:
    """Everything a skip could drift on, in comparable form."""
    return (result.stats, result.memory, result.predictor)


def _measure_behavior(base: PipelineResult | None,
                      spear: PipelineResult | None,
                      table) -> tuple[int, ...] | None:
    """The raw :data:`BEHAVIOR_FIELDS` tuple, or None when either timing
    run is missing (its divergence already tells the story)."""
    if base is None or spear is None:
        return None
    ss = spear.stats.spear
    fills = spear.memory["fills"]["pthread"]
    main = base.memory["threads"][0]
    slices = [len(pt.slice_pcs) for pt in table] if table is not None else []
    return (ss.triggers, ss.retriggers, ss.modes_completed,
            ss.cycles_in_mode, spear.stats.cycles,
            fills["fills"], fills["timely"], fills["late"], fills["unused"],
            main["accesses"], main["l1_misses"],
            main["l2_hits"] + main["l2_misses"], main["l2_misses"],
            len(slices), sum(slices), max(slices, default=0))


def evaluate_workload(workload: SpecWorkload,
                      check: FuzzCheckSpec = FuzzCheckSpec(), *,
                      slicer_config: SlicerConfig | None = None,
                      scale: float = 1.0) -> FuzzVerdict:
    """Run every differential check on one generated workload."""
    spec = workload.spec
    divergences: list[str] = []
    checks: list[str] = []

    def fail(label: str, detail: str) -> None:
        divergences.append(f"{label}: {detail}")

    # -- functional execution + IR oracle ---------------------------------
    # Either interpreter crashing on a never-faults-by-construction kernel
    # is itself a confirmed finding, so crashes become divergences rather
    # than killing the cell (which would hide them from triage).
    evalp = workload.program("eval")
    budget = int(workload.eval_instructions * scale)
    sim = FunctionalSimulator(evalp)
    checks.append("halt")
    trace = None
    try:
        trace = sim.run(budget, trace=True)
        if not sim.halted:
            fail("halt", f"no halt within {budget} instructions")
    except Exception as exc:
        fail("crash", f"functional: {type(exc).__name__}: {exc}")

    checks.append("oracle")
    try:
        oracle = run_oracle(spec, workload.variant_rng("eval"))
        expected = oracle.summary()
    except Exception as exc:
        expected = None
        fail("crash", f"oracle: {type(exc).__name__}: {exc}")
    if sim.halted and expected is not None:
        actual = functional_summary(sim, spec, spec_layout(spec))
        if expected != actual:
            for part in ("ints", "fps", "memory"):
                if expected[part] != actual[part]:
                    fail("oracle", f"{part}: functional={actual[part]!r} "
                                   f"oracle={expected[part]!r}")
    if trace is None:
        return FuzzVerdict(
            name=workload.name, classification="divergence", speedup=0.0,
            baseline_ipc=0.0, spear_ipc=0.0, commits=0, trace_len=0,
            halted=False, triggers=0, spec_size=spec.size(),
            divergences=tuple(divergences), checks=tuple(checks))

    # -- compile (slicer on generated control flow) -----------------------
    checks.append("slicer")
    table = None
    try:
        train = workload.program("train")
        binary, _, _ = compile_spear(
            train, evalp, slicer_config=slicer_config or SlicerConfig(),
            max_profile_instructions=int(
                workload.profile_instructions * scale))
        table = binary.table
        n_text = len(evalp.instructions)
        for pt in table:
            if not evalp.instructions[pt.dload_pc].is_load:
                fail("slicer", f"d-load pc {pt.dload_pc} is not a load")
            if any(not 0 <= pc < n_text for pc in pt.slice_pcs):
                fail("slicer", f"slice of {pt.dload_pc} leaves the text")
    except Exception as exc:  # a compiler crash is itself a finding
        fail("compile", f"{type(exc).__name__}: {exc}")

    # -- timing runs: each config skipping and walking ---------------------
    base_cfg, spear_cfg = check.resolve_configs()
    results: dict[tuple[str, str], PipelineResult] = {}
    checks.extend(["commits", "backends", "fills"])
    for cfg in (base_cfg, spear_cfg):
        cfg_table = table if cfg.spear_enabled else None
        for run in ("skip", "walk"):
            try:
                res = _timing_run(trace, cfg, cfg_table, walk=run == "walk")
            except Exception as exc:
                fail("timing", f"{cfg.name}/{run}: "
                               f"{type(exc).__name__}: {exc}")
                continue
            results[(cfg.name, run)] = res
            if res.stats.committed != len(trace):
                fail("commits",
                     f"{cfg.name}/{run}: committed "
                     f"{res.stats.committed} != trace {len(trace)}")
            for source, f in res.memory["fills"].items():
                if f["timely"] + f["late"] + f["unused"] != f["fills"]:
                    fail("fills", f"{cfg.name}/{run}/{source}: "
                                  f"{f['timely']}+{f['late']}+{f['unused']}"
                                  f" != {f['fills']}")
        skip = results.get((cfg.name, "skip"))
        walk = results.get((cfg.name, "walk"))
        if (skip is not None and walk is not None
                and _result_state(skip) != _result_state(walk)):
            fail("backends", f"{cfg.name}: run() drifts from the walk")

    # -- skip vs walk at figure-9 latency points (sampled) ----------------
    if check.sweep_points > 0 and table is not None:
        checks.append("sweep")
        try:
            for lat in check.sweep_latencies():
                cfg = spear_cfg.with_latencies(lat)
                skip, walk = (_timing_run(trace, cfg, table, walk=w)
                              for w in (False, True))
                if _result_state(skip) != _result_state(walk):
                    fail("sweep", f"mem={lat.memory}: run() drifts "
                                  f"from the walk")
        except Exception as exc:
            fail("sweep", f"{type(exc).__name__}: {exc}")

    # -- classification ----------------------------------------------------
    base = results.get((base_cfg.name, "skip"))
    spear = results.get((spear_cfg.name, "skip"))
    base_ipc = base.ipc if base is not None else 0.0
    spear_ipc = spear.ipc if spear is not None else 0.0
    ratio = spear_ipc / base_ipc if base_ipc else 0.0
    if divergences:
        cls = "divergence"
    elif ratio >= check.speedup:
        cls = "speedup"
    elif ratio <= check.regression:
        cls = "regression"
    else:
        cls = "neutral"
    return FuzzVerdict(
        name=workload.name, classification=cls, speedup=ratio,
        baseline_ipc=base_ipc, spear_ipc=spear_ipc,
        commits=base.stats.committed if base is not None else 0,
        trace_len=len(trace), halted=sim.halted,
        triggers=spear.stats.spear.triggers if spear is not None else 0,
        spec_size=spec.size(),
        divergences=tuple(divergences), checks=tuple(checks),
        behavior=_measure_behavior(base, spear, table))
