"""Experiment runner: compile-once, trace-once, simulate-many.

Ties the whole system together for the evaluation: for each workload it

1. builds the ``train`` and ``eval`` program variants,
2. runs the SPEAR compiler on the training variant (profiling input),
3. generates the evaluation committed-path trace, and
4. replays that trace through any number of machine configurations.

Each simulation the evaluation needs is one :class:`Cell`: a plain
result, a traced run or a fuzz verdict.  Every cell takes one path,
:meth:`ExperimentRunner.get`: the in-memory memo (keyed by the
normalized cell), then the :class:`~repro.harness.diskcache.DiskCache`
entry :meth:`ExperimentRunner.entry` names, then the computation, whose
value is written through to both.  A figure that needs the same cell as
another figure pays nothing extra, and with a cache attached the memo
extends across processes and invocations: artifacts and values are read
through from disk, so a warm rerun of any figure pays neither
compilation, tracing nor simulation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from ..compiler.driver import CompileReport, compile_spear
from ..compiler.slicer import SlicerConfig
from ..core.configs import BASELINE, MachineConfig
from ..core.spear_binary import SpearBinary
from ..functional.simulator import FunctionalSimulator
from ..functional.trace import Trace
from ..memory.hierarchy import LatencyConfig, MemoryHierarchy
from ..observe.events import TraceEvent
from ..observe.sampler import IntervalSampler
from ..observe.sinks import JsonlStreamSink, RingBufferSink
from ..pipeline.smt import TimingSimulator
from ..pipeline.stats import PipelineResult
from ..policy import DEFAULT_POLICY, make_policy, resolve_policy
from ..workloads.base import Workload, get_workload
from .diskcache import DiskCache


@dataclass
class TracedRun:
    """One observed simulation: the result plus its event stream.

    ``result`` carries the interval timeline; ``events`` are the retained
    ring-buffer contents (newest ``capacity`` events — ``dropped`` says
    how many older ones the ring displaced, so truncation is explicit).
    """

    result: PipelineResult
    events: list[TraceEvent]
    emitted: int
    dropped: int


@dataclass(frozen=True)
class TraceSpec:
    """The trace parameters that identify one traced-run cell.

    Hashable and picklable so it can ride on a :class:`Cell`; ``kinds``
    is normalized to a sorted tuple so equal filters always produce equal
    cache keys.  None keeps every kind; an empty ``kinds`` would keep
    none and is rejected.
    """

    interval: int = 1000
    capacity: int | None = 65536
    kinds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kinds is not None:
            if not self.kinds:
                raise ValueError("empty trace kinds keep no event; "
                                 "use None for every kind")
            object.__setattr__(self, "kinds", tuple(sorted(self.kinds)))

    def payload(self) -> dict:
        """The ``trace`` section of a traced-run cache/journal key."""
        kinds = list(self.kinds) if self.kinds is not None else None
        return {"interval": self.interval, "capacity": self.capacity,
                "kinds": kinds}


@dataclass(frozen=True)
class Cell:
    """One picklable unit of work: simulate ``workload`` under ``config``.

    With ``trace`` set the cell is a *traced* run: a ring-buffer tracer
    and an interval sampler are attached per the spec, and the value is
    a :class:`TracedRun` instead of a plain ``PipelineResult``.

    With ``fuzz`` set the cell is a differential-fuzzing evaluation: the
    generated workload is rebuilt from its ``fuzz:`` name and checked
    under the given spec, and the value is one small picklable
    :class:`~repro.fuzz.differential.FuzzVerdict` (``config`` is unused
    — the check spec names the configs it compares).

    :meth:`ExperimentRunner.get` computes any cell, the parallel engine
    ships cells to its workers, and the run journal keys them.
    """

    workload: str
    config: MachineConfig
    latencies: LatencyConfig | None = None
    trace: TraceSpec | None = None
    fuzz: object | None = None
    #: trigger policy name (``None`` defers to the executing runner's
    #: default; see :data:`~repro.policy.POLICIES`)
    policy: str | None = None


@dataclass
class WorkloadArtifacts:
    """Everything derived from one workload, built lazily."""

    workload: Workload
    binary: SpearBinary
    compile_report: CompileReport
    eval_trace: Trace
    #: prefix replayed functionally before measurement (cache/predictor
    #: warmup — the paper's "skipped instructions"); a :class:`Trace` so
    #: it pickles in columns like ``eval_trace``.  Artifacts cached by
    #: older versions hold a plain list, so consumers only iterate it.
    warmup_trace: Trace


class ExperimentRunner:
    """Caching façade over the compile → trace → simulate pipeline."""

    def __init__(self, *, slicer_config: SlicerConfig | None = None,
                 instruction_scale: float = 1.0,
                 cache: DiskCache | None = None,
                 policy: str | None = None):
        """``instruction_scale`` scales every workload's instruction budget
        (useful to shrink CI runs or enlarge final ones).  ``cache`` is an
        optional persistent artifact cache shared across processes.
        ``policy`` selects the trigger policy (any
        :data:`~repro.policy.POLICIES` name); per-call overrides win.
        Every simulation runs on the one timing kernel,
        :class:`~repro.pipeline.smt.TimingSimulator`."""
        self.slicer_config = slicer_config or SlicerConfig()
        self.instruction_scale = instruction_scale
        self.cache = cache
        self.policy = resolve_policy(policy)   # fail fast on unknown names
        self._artifacts: dict[str, WorkloadArtifacts] = {}
        #: every cell's value, keyed by the normalized cell
        self._memo: dict[Cell, object] = {}
        #: artifact builds actually executed (cache hits don't count)
        self.builds = 0
        #: timing simulations actually executed (memo/cache hits don't count)
        self.simulations = 0

    # -- cell identity --------------------------------------------------------

    def effective_policy(self, policy: str | None,
                         config: MachineConfig) -> str:
        """The policy name a (request, config) pair actually runs under.

        ``None`` defers to the runner default.  Baseline (non-SPEAR)
        configs have no trigger to steer, so they always resolve to the
        fixed policy — which keeps their memo/cache keys, results and
        traces byte-identical whatever policy the caller requested.
        """
        name = resolve_policy(self.policy if policy is None else policy)
        if not config.spear_enabled:
            return DEFAULT_POLICY
        return name

    def _artifact_payload(self, name: str) -> dict:
        return {"workload": name,
                "scale": self.instruction_scale,
                "slicer": asdict(self.slicer_config)}

    def _normalize(self, cell: Cell) -> Cell:
        """The memo identity of ``cell``.

        A fuzz cell keeps only its workload and check spec.  Any other
        cell folds a latency override into its config — keeping the same
        config object when the override is a no-op, so figure 9's latency
        sweep dedupes against the plain cells — and carries its
        :meth:`effective_policy`.  Plain, traced and fuzz cells differ in
        ``trace`` and ``fuzz``, fixed and adaptive ones in ``policy``, so
        no two of them share a memo entry.
        """
        if cell.fuzz is not None:
            return Cell(cell.workload, BASELINE, fuzz=cell.fuzz)
        config = cell.config
        if cell.latencies is not None and cell.latencies != config.latencies:
            config = config.with_latencies(cell.latencies)
        return Cell(cell.workload, config, trace=cell.trace,
                    policy=self.effective_policy(cell.policy, config))

    def entry(self, cell: Cell) -> tuple[str, dict]:
        """Where ``cell``'s value is cached: its ``(kind, payload)``.

        A fuzz verdict lives under ``"fuzz"`` with every check knob in
        its payload.  A traced run lives under ``"traces"`` and any other
        result under ``"results"``, keyed by the config, by the effective
        policy only when it is not fixed (so fixed keys are
        byte-identical to pre-policy ones and adaptive entries never
        collide with them) and, for a traced run, by the trace
        parameters.  The disk cache and the journal's cell key both use
        this answer.
        """
        cell = self._normalize(cell)
        payload = self._artifact_payload(cell.workload)
        if cell.fuzz is not None:
            payload["fuzz"] = cell.fuzz.payload()
            return "fuzz", payload
        payload["config"] = asdict(cell.config)
        if cell.policy != DEFAULT_POLICY:
            payload["policy"] = cell.policy
        if cell.trace is None:
            return "results", payload
        payload["trace"] = cell.trace.payload()
        return "traces", payload

    # -- the cell path --------------------------------------------------------

    def has(self, cell: Cell) -> bool:
        """Whether the memo already holds ``cell``'s value."""
        return self._normalize(cell) in self._memo

    def seed(self, cell: Cell, value) -> None:
        """Adopt a value computed elsewhere (the parallel engine's
        merge)."""
        self._memo[self._normalize(cell)] = value

    def get(self, cell: Cell):
        """``cell``'s value: from the memo, else from the disk cache,
        else computed and written through to the cache.

        The one path every cell takes, and the only place a cell's value
        is read from or written to the disk cache.
        """
        cell = self._normalize(cell)
        value = self._memo.get(cell)
        if value is not None:
            return value
        entry = self.entry(cell) if self.cache is not None else None
        if entry is not None:
            value = self.cache.get(*entry)
        if value is None:
            value = self._compute(cell)
            if entry is not None:
                self.cache.put(*entry, value)
        self._memo[cell] = value
        return value

    def _compute(self, cell: Cell):
        """Compute one normalized cell's value, bypassing memo and cache.

        ``adaptive-epoch`` converges through plain fixed runs, each one
        a cell of its own (so epochs are shared with, and epoch 0 *is*,
        the fixed result); traced, it traces one run at the converged
        operating point.  ``adaptive-phase`` attaches a fresh in-run
        controller, so a traced run records its decisions.
        """
        name = cell.workload
        if cell.fuzz is not None:
            from ..fuzz.differential import evaluate_workload, timing_runs
            verdict = evaluate_workload(
                get_workload(name), cell.fuzz,
                slicer_config=self.slicer_config,
                scale=self.instruction_scale)
            self.simulations += timing_runs(verdict, cell.fuzz)
            return verdict
        config, policy = cell.config, make_policy(cell.policy)
        controller = policy.make_controller(config)
        if cell.trace is None:
            converged = policy.converge(
                lambda cfg: self.run(name, cfg, policy=DEFAULT_POLICY),
                config)
            if converged is not None:
                return converged[0]
            return self._simulate(name, config, policy=controller)
        summary = None
        if controller is None and cell.policy != DEFAULT_POLICY:
            summary = self.run(name, config, policy=cell.policy).policy
            config = replace(
                config,
                trigger_occupancy_fraction=summary["final_fraction"],
                chaining=summary["final_chaining"])
        sink = RingBufferSink(cell.trace.capacity, kinds=cell.trace.kinds)
        result = self._simulate(name, config, sink,
                                IntervalSampler(cell.trace.interval),
                                controller)
        if summary is not None:
            result = replace(result, policy=summary)
        return TracedRun(result, sink.events(), sink.emitted, sink.dropped)

    def _simulate(self, name: str, config: MachineConfig, tracer=None,
                  sampler=None, policy=None) -> PipelineResult:
        """One timing simulation of ``name``'s measured window, after
        replaying its warmup prefix."""
        art = self.artifacts(name)
        sim = TimingSimulator(art.eval_trace, config, art.binary.table,
                              MemoryHierarchy(latencies=config.latencies),
                              warmup=art.warmup_trace, tracer=tracer,
                              sampler=sampler, policy=policy)
        result = sim.run()
        self.simulations += 1
        return result

    # -- artifact construction ------------------------------------------------

    def artifacts(self, name: str) -> WorkloadArtifacts:
        art = self._artifacts.get(name)
        if art is None:
            if self.cache is not None:
                art = self.cache.get("artifacts", self._artifact_payload(name))
            if art is None:
                art = self._build(name)
                self.builds += 1
                if self.cache is not None:
                    self.cache.put("artifacts", self._artifact_payload(name),
                                   art)
            self._artifacts[name] = art
        return art

    def _build(self, name: str) -> WorkloadArtifacts:
        workload = get_workload(name)
        train = workload.program("train")
        evalp = workload.program("eval")
        profile_budget = int(workload.profile_instructions
                             * self.instruction_scale)
        binary, report, _ = compile_spear(
            train, evalp, slicer_config=self.slicer_config,
            max_profile_instructions=profile_budget)
        eval_budget = int(workload.eval_instructions * self.instruction_scale)
        warm_budget = int(workload.warmup_instructions * self.instruction_scale)
        sim = FunctionalSimulator(evalp)
        full = sim.run(warm_budget + eval_budget, trace=True)
        # A workload that halts early still needs a measurable window.
        warm_budget = min(warm_budget, max(0, len(full.entries) - eval_budget))
        # The measured window keeps the tail, so the prefix ends short of
        # any ``halt``.
        warmup = Trace(full.entries[:warm_budget],
                       program_name=full.program_name, halted=False)
        measured = Trace(full.entries[warm_budget:],
                         program_name=full.program_name, halted=full.halted)
        return WorkloadArtifacts(workload, binary, report, measured, warmup)

    # -- simulation -----------------------------------------------------------

    def run(self, name: str, config: MachineConfig,
            latencies: LatencyConfig | None = None, *,
            policy: str | None = None) -> PipelineResult:
        """Simulate one workload under one machine configuration: the
        plain cell's value (see :meth:`get`)."""
        return self.get(Cell(name, config, latencies, policy=policy))

    def run_traced(self, name: str, config: MachineConfig,
                   latencies: LatencyConfig | None = None, *,
                   interval: int = 1000, capacity: int | None = 65536,
                   kinds: tuple[str, ...] | None = None,
                   spec: TraceSpec | None = None,
                   policy: str | None = None) -> TracedRun:
        """Simulate one cell with tracing and interval sampling attached.

        Traced runs are cached under their own kind ("traces") with the
        trace parameters folded into the key, so they coexist with — and
        never pollute — the plain "results" entries the figures, journal
        and parallel engine consume.  ``spec`` bundles the trace
        parameters (the parallel engine ships it on the cell); when given
        it overrides the individual keyword arguments.

        Policies follow the same rules as :meth:`run`: ``adaptive-phase``
        attaches its controller to the traced simulation (so
        ``policy-decision`` events land in the stream and the decision
        series in the timeline); ``adaptive-epoch`` first converges
        through plain runs, then traces one run at the converged
        operating point — in-run decision events only ever appear under
        ``adaptive-phase``.
        """
        if spec is None:
            spec = TraceSpec(interval, capacity,
                             tuple(kinds) if kinds is not None else None)
        return self.get(Cell(name, config, latencies, trace=spec,
                             policy=policy))

    def run_streamed(self, name: str, config: MachineConfig,
                     target, latencies: LatencyConfig | None = None, *,
                     interval: int = 1000,
                     kinds: tuple[str, ...] | None = None
                     ) -> tuple[PipelineResult, int]:
        """Simulate with every event streamed to ``target`` as JSONL.

        The full-length capture path for billion-cycle runs: events go
        straight to the stream (a path or writable text file) through
        :class:`JsonlStreamSink`, so nothing is buffered in memory and
        nothing is cached — the stream itself is the artifact.  Returns
        the (timeline-carrying) result and the emitted-event count.
        """
        config = self._normalize(Cell(name, config, latencies)).config
        self.artifacts(name)       # a bad workload fails before the stream
        sink = JsonlStreamSink(target, kinds=kinds)
        try:
            result = self._simulate(name, config, sink,
                                    IntervalSampler(interval))
        finally:
            sink.close()
        return result, sink.emitted

    def speedup(self, name: str, config: MachineConfig,
                baseline: MachineConfig,
                latencies: LatencyConfig | None = None) -> float:
        """Normalized IPC of ``config`` over ``baseline``."""
        return (self.run(name, config, latencies).ipc
                / self.run(name, baseline, latencies).ipc)
