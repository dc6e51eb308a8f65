"""Experiment runner: compile-once, trace-once, simulate-many.

Ties the whole system together for the evaluation: for each workload it

1. builds the ``train`` and ``eval`` program variants,
2. runs the SPEAR compiler on the training variant (profiling input),
3. generates the evaluation committed-path trace, and
4. replays that trace through any number of machine configurations.

Traces, compiled binaries and results are memoized so a figure that needs
the same (workload, config) pair as another figure pays nothing extra.
With a :class:`~repro.harness.diskcache.DiskCache` attached the memo
extends across processes and invocations: artifacts and results are read
through from disk and written through on build, so a warm rerun of any
figure pays neither compilation, tracing nor simulation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..compiler.driver import CompileReport, compile_spear
from ..compiler.slicer import SlicerConfig
from ..core.configs import MachineConfig
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

    Hashable and picklable so it can ride on a parallel-engine
    :class:`~repro.harness.parallel.Cell`; ``kinds`` is normalized to a
    sorted tuple so equal filters always produce equal cache keys.  None
    keeps every kind; an empty ``kinds`` would keep none and is rejected.
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
        Every simulation runs on the reference timing kernel,
        :class:`~repro.pipeline.smt.TimingSimulator`."""
        self.slicer_config = slicer_config or SlicerConfig()
        self.instruction_scale = instruction_scale
        self.cache = cache
        self.policy = resolve_policy(policy)   # fail fast on unknown names
        self._artifacts: dict[str, WorkloadArtifacts] = {}
        self._results: dict[tuple, PipelineResult] = {}
        #: traced runs memoize separately: their results carry timelines
        #: and must never masquerade as plain "results" cache entries.
        self._traced: dict[tuple, TracedRun] = {}
        #: fuzz verdicts memoize under their own kind too — a verdict is
        #: the outcome of many runs plus the differential checks, not a
        #: ``PipelineResult``.
        self._fuzz: dict[tuple, object] = {}
        #: artifact builds actually executed (cache hits don't count)
        self.builds = 0
        #: timing simulations actually executed (memo/cache hits don't count)
        self.simulations = 0

    # -- cache keys -----------------------------------------------------------

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

    def result_payload(self, name: str, config: MachineConfig,
                       policy: str | None = None) -> dict:
        """Cache/journal key payload of one (workload, config) result.

        Only a non-fixed *effective* policy is tagged into the payload,
        so fixed-policy keys are byte-identical to pre-policy ones and
        adaptive entries can never collide with them.
        """
        payload = self._artifact_payload(name)
        payload["config"] = asdict(config)
        pol = self.effective_policy(policy, config)
        if pol != DEFAULT_POLICY:
            payload["policy"] = pol
        return payload

    def traced_payload(self, name: str, config: MachineConfig,
                       spec: TraceSpec,
                       policy: str | None = None) -> dict:
        """Cache/journal key payload of one traced cell — the result key
        plus the trace parameters, under the ``"traces"`` kind."""
        payload = self.result_payload(name, config, policy)
        payload["trace"] = spec.payload()
        return payload

    def fuzz_payload(self, name: str, check) -> dict:
        """Cache/journal key payload of one fuzz cell: the workload name
        (which fully encodes the generated program), the runner knobs
        that change evaluation, and every differential-check knob."""
        payload = self._artifact_payload(name)
        payload["fuzz"] = check.payload()
        return payload

    @staticmethod
    def normalize_config(config: MachineConfig,
                         latencies: LatencyConfig | None) -> MachineConfig:
        """Fold a latency override into the config — without allocating a
        fresh (but equal) ``MachineConfig`` when the override is a no-op,
        so memo keys dedupe across e.g. figure 9's latency sweep."""
        if latencies is not None and latencies != config.latencies:
            config = config.with_latencies(latencies)
        return config

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
        """Simulate one workload under one machine configuration.

        A non-fixed effective ``policy`` takes the adaptive path (its own
        3-tuple memo key and policy-tagged cache payload); the fixed
        policy is this exact pre-policy code path, unchanged.
        """
        config = self.normalize_config(config, latencies)
        pol = self.effective_policy(policy, config)
        if pol != DEFAULT_POLICY:
            return self._run_adaptive(name, config, pol)
        key = (name, config)
        result = self._results.get(key)
        if result is None:
            if self.cache is not None:
                result = self.cache.get(
                    "results", self.result_payload(name, config))
            if result is None:
                art = self.artifacts(name)
                memory = MemoryHierarchy(latencies=config.latencies)
                sim = TimingSimulator(art.eval_trace, config,
                                      art.binary.table, memory,
                                      warmup=art.warmup_trace)
                result = sim.run()
                self.simulations += 1
                if self.cache is not None:
                    self.cache.put(
                        "results", self.result_payload(name, config),
                        result)
            self._results[key] = result
        return result

    def _run_adaptive(self, name: str, config: MachineConfig,
                      pol: str) -> PipelineResult:
        """One cell under a non-fixed policy.

        ``adaptive-epoch`` converges through plain fixed runs (each one
        memoized under its ordinary key, so epochs are shared with — and
        epoch 0 *is* — the fixed result); ``adaptive-phase`` attaches a
        fresh in-run controller.  Either way the outcome memoizes under a
        ``(name, config, policy)`` 3-tuple — a different tuple length
        than fixed keys, so the two can never collide.
        """
        key = (name, config, pol)
        result = self._results.get(key)
        if result is None:
            payload = self.result_payload(name, config, pol)
            if self.cache is not None:
                result = self.cache.get("results", payload)
            if result is None:
                policy_obj = make_policy(pol)
                converged = policy_obj.converge(
                    lambda cfg: self.run(name, cfg, policy=DEFAULT_POLICY),
                    config)
                if converged is not None:
                    result, _ = converged
                else:
                    art = self.artifacts(name)
                    memory = MemoryHierarchy(latencies=config.latencies)
                    sim = TimingSimulator(
                        art.eval_trace, config, art.binary.table, memory,
                        warmup=art.warmup_trace,
                        policy=policy_obj.make_controller(config))
                    result = sim.run()
                    self.simulations += 1
                if self.cache is not None:
                    self.cache.put("results", payload, result)
            self._results[key] = result
        return result

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
        config = self.normalize_config(config, latencies)
        pol = self.effective_policy(policy, config)
        key = ((name, config, spec) if pol == DEFAULT_POLICY
               else (name, config, spec, pol))
        traced = self._traced.get(key)
        if traced is None:
            payload = self.traced_payload(name, config, spec, pol)
            if self.cache is not None:
                traced = self.cache.get("traces", payload)
            if traced is None:
                import dataclasses
                run_cfg, controller, epoch_summary = config, None, None
                if pol != DEFAULT_POLICY:
                    policy_obj = make_policy(pol)
                    controller = policy_obj.make_controller(config)
                    if controller is None:
                        # Epoch mode: trace the converged operating point.
                        converged = self.run(name, config, policy=pol)
                        epoch_summary = converged.policy
                        run_cfg = dataclasses.replace(
                            config,
                            trigger_occupancy_fraction=epoch_summary[
                                "final_fraction"],
                            chaining=epoch_summary["final_chaining"])
                art = self.artifacts(name)
                sink = RingBufferSink(spec.capacity, kinds=spec.kinds)
                sampler = IntervalSampler(spec.interval)
                memory = MemoryHierarchy(latencies=run_cfg.latencies)
                sim = TimingSimulator(art.eval_trace, run_cfg,
                                      art.binary.table, memory,
                                      warmup=art.warmup_trace,
                                      tracer=sink, sampler=sampler,
                                      policy=controller)
                result = sim.run()
                self.simulations += 1
                if epoch_summary is not None:
                    result = dataclasses.replace(result, policy=epoch_summary)
                traced = TracedRun(result, sink.events(), sink.emitted,
                                   sink.dropped)
                if self.cache is not None:
                    self.cache.put("traces", payload, traced)
            self._traced[key] = traced
        return traced

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
        config = self.normalize_config(config, latencies)
        art = self.artifacts(name)
        sink = JsonlStreamSink(target, kinds=kinds)
        try:
            sampler = IntervalSampler(interval)
            memory = MemoryHierarchy(latencies=config.latencies)
            sim = TimingSimulator(art.eval_trace, config, art.binary.table,
                                  memory, warmup=art.warmup_trace,
                                  tracer=sink, sampler=sampler)
            result = sim.run()
            self.simulations += 1
        finally:
            sink.close()
        return result, sink.emitted

    def run_fuzz(self, name: str, check):
        """Evaluate one generated kernel differentially (memo/cached).

        ``name`` must be a ``fuzz:`` workload name; the verdict — a
        small picklable :class:`~repro.fuzz.differential.FuzzVerdict` —
        caches under the ``"fuzz"`` kind, so campaigns resume and rerun
        for free exactly like figures do.
        """
        from ..fuzz.differential import evaluate_workload
        key = (name, check)
        verdict = self._fuzz.get(key)
        if verdict is None:
            if self.cache is not None:
                verdict = self.cache.get("fuzz", self.fuzz_payload(name,
                                                                   check))
            if verdict is None:
                workload = get_workload(name)
                verdict = evaluate_workload(
                    workload, check, slicer_config=self.slicer_config,
                    scale=self.instruction_scale)
                self.simulations += len(check.configs) * len(check.backends)
                if self.cache is not None:
                    self.cache.put("fuzz", self.fuzz_payload(name, check),
                                   verdict)
            self._fuzz[key] = verdict
        return verdict

    def seed_fuzz(self, name: str, check, verdict) -> None:
        """Adopt a verdict computed elsewhere (parallel engine merge)."""
        self._fuzz[(name, check)] = verdict

    def has_fuzz(self, name: str, check) -> bool:
        """Whether the memo already holds this fuzz cell's verdict."""
        return (name, check) in self._fuzz

    def _result_key(self, name: str, config: MachineConfig,
                    latencies: LatencyConfig | None,
                    policy: str | None) -> tuple:
        """The memo key :meth:`run` uses — fixed keys keep the pre-policy
        2-tuple shape, adaptive keys append the policy name (a 3-tuple),
        so the two populations can never collide."""
        config = self.normalize_config(config, latencies)
        pol = self.effective_policy(policy, config)
        if pol == DEFAULT_POLICY:
            return (name, config)
        return (name, config, pol)

    def seed_result(self, name: str, config: MachineConfig,
                    latencies: LatencyConfig | None,
                    result: PipelineResult,
                    policy: str | None = None) -> None:
        """Adopt a result computed elsewhere (the parallel engine's merge)."""
        self._results[self._result_key(name, config, latencies,
                                       policy)] = result

    def has_result(self, name: str, config: MachineConfig,
                   latencies: LatencyConfig | None = None,
                   policy: str | None = None) -> bool:
        """Whether the memo already holds this cell's result — the one
        blessed membership check (parallel engine, journal resume)."""
        return self._result_key(name, config, latencies,
                                policy) in self._results

    def _traced_key(self, name: str, config: MachineConfig,
                    latencies: LatencyConfig | None, spec: TraceSpec,
                    policy: str | None) -> tuple:
        """The memo key :meth:`run_traced` uses (same shape rule as
        :meth:`_result_key`)."""
        config = self.normalize_config(config, latencies)
        pol = self.effective_policy(policy, config)
        if pol == DEFAULT_POLICY:
            return (name, config, spec)
        return (name, config, spec, pol)

    def seed_traced(self, name: str, config: MachineConfig,
                    latencies: LatencyConfig | None, spec: TraceSpec,
                    traced: TracedRun, policy: str | None = None) -> None:
        """Adopt a traced run computed elsewhere (the parallel engine's
        merge resolves the spilled cache entry, then seeds it here)."""
        self._traced[self._traced_key(name, config, latencies, spec,
                                      policy)] = traced

    def has_traced(self, name: str, config: MachineConfig,
                   latencies: LatencyConfig | None, spec: TraceSpec,
                   policy: str | None = None) -> bool:
        """Whether the memo already holds this traced cell."""
        return self._traced_key(name, config, latencies, spec,
                                policy) in self._traced

    def speedup(self, name: str, config: MachineConfig,
                baseline: MachineConfig,
                latencies: LatencyConfig | None = None) -> float:
        """Normalized IPC of ``config`` over ``baseline``."""
        return (self.run(name, config, latencies).ipc
                / self.run(name, baseline, latencies).ipc)

    def clear(self) -> None:
        """Drop every memo and reset the work counters, so a cleared
        runner reports as if freshly constructed."""
        self._artifacts.clear()
        self._results.clear()
        self._traced.clear()
        self._fuzz.clear()
        self.builds = 0
        self.simulations = 0
