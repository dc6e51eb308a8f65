"""Cycle-level SMT timing model with SPEAR pre-execution hardware.

This is the repository's analog of the paper's modified ``sim-outorder``:
an 8-wide out-of-order pipeline with an IFQ front end, pre-decode (PD
d-load detection + PT indicator marking), the P-thread Extractor, per-
thread RUUs, shared or dedicated functional units, two memory ports and a
bimodal branch predictor.

It is *trace driven*: instruction values come from the committed-path
trace produced by the functional simulator, and the pipeline models timing
only.  DESIGN.md §2 documents why this substitution preserves the paper's
phenomena; §6 lists the modeling decisions (perfect BTB, fetch-stall
mispredict recovery, MSHR-merged fills).

Pre-execution sequencing (paper §3.2):

1. pre-decode sees a d-load enter the IFQ while occupancy ≥ half → trigger;
2. wait until every instruction decoded at trigger time has committed;
3. copy live-in registers, one cycle each;
4. PE extracts marked IFQ entries (≤ issue_width/2 per cycle) from the
   p-thread head pointer, clearing indicators, until the triggering d-load
   has been extracted;
5. extracted instances execute as thread 1 with issue priority, touching
   only the data cache;
6. when the triggering d-load instance completes, the mode ends.

An in-flight instruction is an int.  The main thread decodes trace index
``i`` as instance ``i``; the p-thread instance of the same entry is
``n + i`` (``n`` trace entries), unique because the PE never extracts an
index twice.  Per-instance state lives in run-long arrays indexed by that
int (outstanding producer count, done flag, consumer list).  The main
thread decodes and commits in trace order, so its ROB is the window of
indices ``[_committed, _decoded)``.

The paper's IFQ is a circular FIFO whose entries carry a one-bit
*p-thread indicator*, set at pre-decode.  The main thread's decoder
consumes entries from the head; the P-thread Extractor (PE) *copies*
marked entries out from its own head pointer, leaving them in place for
the main thread, and clears their indicators so nothing is pre-executed
twice.  Decode consumes in trace order, and resolving a mispredict
squashes everything fetched past the branch, so the IFQ is an index
window too: the trace indices ``[_decoded, _fetch_idx)`` followed by
``_bubbles`` wrong-path placeholders.  The PE head pointer ``_pe_idx`` is
a trace index as well, so the buffer's circularity never needs to be
modelled.  A resident entry's indicator is set exactly when its pc is
marked and it lies at or past that pointer, so the indicators are a
deque of marked trace indices, pruned below ``max(_pe_idx, head)``.

Stall-heavy workloads spend most of their cycles doing nothing: the IFQ
is full or empty, the ROB head waits on DRAM, nothing is ready to issue,
and the only future state change is a completion event already in the
event map.  So the run loop proves a cycle idle and jumps straight to the
next cycle anything *can* change — the next completion event, the
post-mispredict fetch-redirect cycle or a policy decision boundary —
applying the skipped cycles' stall counters, occupancy sums and sampler
boundaries in one arithmetic step (:meth:`TimingSimulator._fast_forward`).
The skip changes only *when* cycles are processed, never what a cycle
does: results and trace streams are byte-identical to walking every
cycle, which an instance with the ``_ff`` switch cleared still does as
the equivalence oracle.  A jump needs no latency adjustment: the event
map and the hierarchy's pending-fill table are keyed by absolute cycle.
"""

from __future__ import annotations

from collections import deque

from ..branch.predictors import BimodalPredictor
from ..core.configs import MachineConfig, OP_LATENCY
from ..core.pthread import PThreadTable
from ..functional.trace import Trace
from ..isa import NUM_REGS
from ..memory.hierarchy import MemoryHierarchy
from ..memory.prefetcher import make_prefetcher
from ..observe.events import (COMMIT, COMPLETE, DECODE, EXTRACT, FETCH, FILL,
                              ISSUE, MISPREDICT, MODE, MODE_NAMES, PREFETCH,
                              TraceEvent)
from ..observe.sampler import IntervalSampler
from ..observe.sinks import TraceSink, kind_sinks
from .funits import FU_OF_CLASS, FUPool
from .stats import PipelineResult, PipelineStats

#: Thread ids: trace events, memory accounting and the sampler's
#: per-thread series use them.
MAIN_THREAD = 0
P_THREAD = 1

# Pre-execution mode states.
_IDLE, _DRAIN, _COPY, _ACTIVE = range(4)

#: Op class -> functional-unit kind and -> execution latency as lists the
#: issue loop indexes per instruction; the dicts stay the definitions.
_FU_KIND = [FU_OF_CLASS[c] for c in range(len(FU_OF_CLASS))]
_LATENCY = [OP_LATENCY[c] for c in range(len(OP_LATENCY))]


def trace_flags(trace: Trace, table: PThreadTable
                ) -> tuple[bytearray, bytearray]:
    """Per-entry (marked, d-load) indicator vectors for one trace.

    Computed once per run instead of touching TraceEntry attributes and
    pc sets per fetched instruction.
    """
    entries = trace.entries
    n = len(entries)
    marked = bytearray(n)
    dloads = bytearray(n)
    marked_pcs = table.marked_pcs
    dload_pcs = table.dload_pcs
    if marked_pcs or dload_pcs:
        for i, e in enumerate(entries):
            pc = e.pc
            if pc in marked_pcs:
                marked[i] = 1
            if pc in dload_pcs:
                dloads[i] = 1
    return marked, dloads


class TimingSimulator:
    """One run of one trace through one machine configuration.

    This is the one timing kernel: the harness, every verb and
    :func:`~repro.pipeline.kernel.make_simulator` build it, and
    :meth:`run` skips provably idle stretches (see the module docstring).
    An instance with ``_ff`` cleared walks every cycle instead; the
    equivalence tests and the fuzz ``backends`` and ``sweep`` checks
    compare ``run()`` with that walk byte for byte.
    """

    # No __slots__ here: one instance exists per run (no allocation win)
    # and tests monkeypatch bound methods on instances.

    #: Whether the run loop consults :meth:`_fast_forward` each cycle;
    #: cleared only on the per-cycle walk the equivalence checks run.
    _ff = True
    #: Jump diagnostics (instance-shadowed on the first jump).  Not part
    #: of ``PipelineStats``, so a result cannot tell a skip from a walk.
    ff_jumps = 0
    ff_cycles_skipped = 0

    def __init__(self, trace: Trace, config: MachineConfig,
                 table: PThreadTable | None = None,
                 memory: MemoryHierarchy | None = None,
                 warmup: Trace | list | None = None,
                 tracer: TraceSink | None = None,
                 sampler: IntervalSampler | None = None,
                 policy=None):
        self.trace = trace
        self.config = config
        #: observability hooks.  ``_sinks`` maps each event kind to the
        #: tracer if it keeps that kind, else to None; every emit site
        #: tests its kind's entry for ``is None`` before building an
        #: event, so an untraced run pays one predictable branch per site
        #: and a filtered one builds only the events its sink keeps.
        self._sinks = kind_sinks(tracer)
        self._sampler = sampler
        self.table = table if (table is not None and config.spear_enabled) \
            else PThreadTable.empty()
        self.mem = memory or MemoryHierarchy(latencies=config.latencies)
        self.predictor = BimodalPredictor(config.predictor_table_size)
        self.prefetcher = make_prefetcher(
            config.prefetcher, block_bytes=self.mem.l1.config.block_bytes,
            degree=config.prefetch_degree)
        self._prefetch_active = config.prefetcher != "none"
        if warmup is not None:
            # The paper's "skipped instructions" (Table 1): replay the
            # warmup prefix through caches and predictor functionally so
            # measurement starts from steady state.
            mem = self.mem
            predictor = self.predictor
            for e in warmup:
                if e.addr >= 0:
                    mem.warm(e.addr, is_write=e.is_store)
                elif e.is_cond:
                    predictor.predict_and_update(e.pc, e.taken)
            mem.finish_warmup()
            predictor.stats = type(predictor.stats)()
        self.stats = PipelineStats()

        # Front end state; the IFQ is an index window (see the module
        # docstring) with its head at ``_decoded``.
        #: next trace index to fetch: the IFQ's real entries end here
        self._fetch_idx = 0
        #: wrong-path placeholders behind the real entries
        self._bubbles = 0
        #: fetched marked trace indices, increasing; entries below
        #: ``max(_pe_idx, head)`` are stale and pruned lazily
        self._marked: deque[int] = deque()
        #: trace idx of the unresolved mispredict; decode may not pass it,
        #: and its resolution squashes everything fetched after it
        self._await_branch_idx = -1
        self._fetch_resume_cycle = 0
        #: highest trace index ever extracted (suppresses duplicate
        #: p-thread instances after a wrong-path flush re-fetch).
        self._max_extracted_idx = -1
        #: real entries fetched past the current barrier (reconverge mode).
        self._wrong_path_real = 0

        # Back end state; instances are ints (see the module docstring).
        n = len(trace.entries)
        self._n = n
        #: outstanding producers per instance, set at decode or extract
        self._deps = [0] * (2 * n)
        #: completed instances; the extra last byte is set, so the
        #: "no producer" id -1 reads as done
        self._done = bytearray(2 * n + 1)
        self._done[-1] = 1
        #: instances waiting on each in-flight instance, made on its first
        #: consumer and dropped when it completes
        self._consumers: list[list[int] | None] = [None] * (2 * n)
        #: the main thread's ROB is the window [_committed, _decoded)
        self._decoded = 0
        self._main_ready: list[int] = []
        self._pt_ready: list[int] = []
        self._pt_inflight = 0
        self._events: dict[int, list[int]] = {}
        #: register -> its last decoded main-thread writer, or -1
        self._last_writer = [-1] * NUM_REGS
        #: memory word -> its last decoded main-thread store
        self._store_map: dict[int, int] = {}

        self._fu_main = FUPool(config.fu)
        self._fu_pt = FUPool(config.fu) if config.separate_fu else self._fu_main

        # SPEAR mode state.
        self._mode = _IDLE
        self._trigger_trace_idx = -1
        self._trigger_extracted = False
        #: the p-thread instance of the trigger d-load; its completion
        #: ends the mode
        self._trigger_pid = -1
        #: last main-thread index decoded when the mode triggered
        self._drain_idx = -1
        self._drain_producers: list[int] = []
        self._copy_remaining = 0
        #: the PE head pointer, a trace index: marked entries below it have
        #: had their indicators cleared
        self._pe_idx = 0
        self._pt_last_writer = [-1] * NUM_REGS

        self._cycle = 0
        self._committed = 0
        #: cumulative per-thread execution counters (indexed MAIN_THREAD /
        #: P_THREAD) feeding the sampler's per-thread series.
        self._completed_by_thread = [0, 0]
        self._issued_by_thread = [0, 0]

        #: ``MachineConfig.trigger_occupancy`` is a derived property; it is
        #: consulted on every fetch group, so compute it once.  Both it and
        #: the chaining shadow below are the *live* operating point: fixed
        #: for the config's lifetime under the fixed policy, mutated at
        #: decision boundaries by an attached phase controller.
        self._trigger_occ = config.trigger_occupancy
        self._chaining = config.chaining
        #: optional in-run trigger-policy controller (adaptive-phase);
        #: ``None`` is the fixed policy and costs one predictable branch
        #: per decision-interval check in the run loop.
        self._policy = policy
        if policy is not None:
            policy.attach(self)

        # Trace-derived vectors, computed once per run instead of touching
        # TraceEntry attributes and pc sets per fetched instruction.
        self._entries = trace.entries
        self._marked_flags, self._dload_flags = trace_flags(trace, self.table)

    # ------------------------------------------------------------------
    # Top-level loop
    # ------------------------------------------------------------------

    def run(self) -> PipelineResult:
        """Run the whole trace and return the result."""
        self._run_loop(self.config.max_cycles)
        return self._finalize()

    def step(self) -> bool:
        """Advance exactly one cycle.

        Returns True while the run is incomplete, so ``while sim.step():
        ...`` drives a run to the same state ``run()`` would reach —
        stats are flushed at every step boundary, which is what makes
        mid-run :meth:`stats_snapshot` meaningful.
        """
        n = len(self._entries)
        if self._committed < n:
            self._run_loop(self._cycle + 1)
        return self._committed < n

    def stats_snapshot(self) -> dict:
        """Current counters as a plain dict — valid mid-run between
        :meth:`step` calls, not just at the end."""
        stats = self.stats
        snap = stats.snapshot()
        cycle = self._cycle
        committed = self._committed
        snap.update(
            cycles=cycle, committed=committed,
            ipc=committed / cycle if cycle else 0.0,
            avg_ifq_occupancy=stats.ifq_occupancy_sum / cycle if cycle else 0.0,
            avg_ruu_occupancy=stats.ruu_occupancy_sum / cycle if cycle else 0.0)
        return snap

    def _run_loop(self, stop: int) -> None:
        # The per-cycle loop dominates wall clock; everything invariant is
        # hoisted into locals, the rare phases (complete / commit / mode
        # tick / issue / extract / wrong-path fetch) are only dispatched
        # when their guard says they have work, and the every-cycle phases
        # (decode, fetch) are inlined — semantics are identical to calling
        # each phase unconditionally.  Values that change within a run
        # (IFQ and RUU room, the pending trigger) live in locals for one
        # cycle at most, so ``step()`` reaches ``run()``'s state.
        # Resumable: accumulators seed from the stats fields and flush back
        # on exit, so any split of a run into ``_run_loop`` calls (one big
        # one, per-cycle steps) leaves identical state, and so does any
        # idle stretch jumped rather than walked.
        n = len(self._entries)
        cfg = self.config
        stats = self.stats
        sstats = stats.spear
        max_cycles = cfg.max_cycles
        if stop > max_cycles:
            stop = max_cycles
        decode_width = cfg.decode_width
        fetch_width = cfg.fetch_width
        ruu_size = cfg.ruu_size
        wp_mode = cfg.wrong_path
        events = self._events
        deps = self._deps
        done = self._done
        consumers = self._consumers
        ifq_size = cfg.ifq_size
        marked = self._marked
        spear = cfg.spear_enabled
        chaining = self._chaining
        trigger_occ = self._trigger_occ
        policy = self._policy
        policy_on = policy is not None
        policy_interval = policy.interval if policy_on else 0
        entries = self._entries
        marked_flags = self._marked_flags
        dload_flags = self._dload_flags
        last_writer = self._last_writer
        store_map = self._store_map
        main_ready = self._main_ready
        predict_and_update = self.predictor.predict_and_update
        sinks = self._sinks
        fetch_sink = sinks[FETCH]
        decode_sink = sinks[DECODE]
        mispredict_sink = sinks[MISPREDICT]
        sampler = self._sampler
        sampling = sampler is not None
        sample_interval = sampler.interval if sampling else 0
        main_ts = self.mem.thread_stats[MAIN_THREAD]
        ff = self._ff
        ifq_occ_sum = stats.ifq_occupancy_sum
        ruu_occ_sum = stats.ruu_occupancy_sum
        mode_cycles = sstats.cycles_in_mode
        fetched_total = stats.fetched
        while self._committed < n:
            cycle = self._cycle
            if cycle >= stop:
                break
            if (ff and cycle not in events and not main_ready
                    and not self._pt_ready and not done[self._committed]):
                # When the whole machine is provably idle this cycle, jump
                # to the next cycle anything can change, updating the
                # idle-classified stats and sampler boundaries in bulk.
                # The guard holds the skip's cheapest vetoes (completion,
                # commit, issue), so busy cycles never pay the call.
                jump = self._fast_forward(cycle, stop, ifq_occ_sum,
                                          ruu_occ_sum, mode_cycles)
                if jump is not None:
                    cycle, ifq_occ_sum, ruu_occ_sum, mode_cycles = jump
                    self._cycle = cycle
                    if cycle >= stop:
                        break
            finished = events.pop(cycle, None)
            if finished is not None:
                self._complete(finished)
            # The ROB head is the oldest uncommitted index; only a decoded
            # instance can be done.
            if done[self._committed]:
                self._commit()
            mode = self._mode
            if mode == _IDLE:
                if spear and marked and (
                        chaining or self._fetch_idx - self._decoded
                        + self._bubbles >= trigger_occ):
                    # With chaining triggers the occupancy requirement is
                    # waived (see _try_retrigger), so the fast-path guard
                    # must not swallow low-occupancy retriggers under that
                    # config.
                    self._try_retrigger(self._decoded)
                    mode = self._mode
            elif mode != _ACTIVE:
                # DRAIN or COPY: the mode tick has nothing to do in ACTIVE.
                self._spear_mode_tick()
                mode = self._mode
            if self._pt_ready or main_ready:
                self._issue()
            if (mode == _ACTIVE and not self._trigger_extracted
                    and marked):
                extracted = self._extract()
            else:
                extracted = 0

            # ---- decode / rename (inlined _decode) -----------------------
            decoded = self._decoded
            fetch_idx = self._fetch_idx
            bubbles = self._bubbles
            if decoded < fetch_idx or bubbles:
                budget = decode_width - extracted
                barrier = self._await_branch_idx
                # Counted down per decoded instruction, this cycle only.
                ruu_room = ruu_size - (decoded - self._committed)
                # The trigger d-load the main thread must not reach while
                # its mode is still pending (not yet extracted); -1: none.
                pending = (self._trigger_trace_idx
                           if self._mode != _IDLE
                           and not self._trigger_extracted else -1)
                while budget > 0:
                    if decoded == fetch_idx and not bubbles:
                        stats.decode_stall_empty_ifq += 1
                        break
                    if ruu_room <= 0:
                        stats.decode_stall_ruu_full += 1
                        break
                    if decoded == fetch_idx or decoded > barrier >= 0:
                        # The head is a bubble, or lies past an unresolved
                        # mispredicted branch: wrong-path content that sits
                        # in the IFQ (keeping the occupancy the trigger
                        # logic sees realistic) until the branch resolves
                        # and squashes it.
                        break
                    # The head's trace index is ``decoded``, which also
                    # names its instance.
                    if decoded == pending:
                        # Main thread caught up with an untriggered or
                        # still-pending pre-execution target: pre-executing
                        # it would be pointless.  Ending the mode may
                        # retrigger on a younger d-load, so re-read.  The
                        # head has left the IFQ but is not decoded yet.
                        sstats.modes_aborted += 1
                        self._decoded = decoded
                        self._end_mode(decoded + 1)
                        pending = (self._trigger_trace_idx
                                   if self._mode != _IDLE
                                   and not self._trigger_extracted else -1)
                    entry = entries[decoded]
                    d = 0
                    for r in entry.srcs:
                        prod = last_writer[r]
                        if not done[prod]:
                            d += 1
                            waiting = consumers[prod]
                            if waiting is None:
                                consumers[prod] = [decoded]
                            else:
                                waiting.append(decoded)
                    if entry.is_load:
                        prod = store_map.get(entry.addr >> 3, -1)
                        if not done[prod]:
                            d += 1
                            waiting = consumers[prod]
                            if waiting is None:
                                consumers[prod] = [decoded]
                            else:
                                waiting.append(decoded)
                    if entry.dst >= 0:
                        last_writer[entry.dst] = decoded
                    if entry.is_store:
                        store_map[entry.addr >> 3] = decoded
                    if decode_sink is not None:
                        decode_sink.emit(TraceEvent(cycle, DECODE, MAIN_THREAD,
                                                    entry.pc, decoded))
                    if d:
                        deps[decoded] = d
                    else:
                        main_ready.append(decoded)
                    decoded += 1
                    ruu_room -= 1
                    budget -= 1
                self._decoded = decoded
            elif extracted == 0:
                stats.decode_stall_empty_ifq += 1
            else:
                # The decode budget went to PE extraction this cycle; the
                # empty IFQ is not what stalled the main thread.
                stats.decode_pe_busy += 1

            # ---- fetch / pre-decode (inlined _fetch) ---------------------
            if self._await_branch_idx >= 0:
                stats.fetch_stall_mispredict += 1
                room = ifq_size - (self._fetch_idx - self._decoded
                                   + self._bubbles)
                if wp_mode == "bubbles":
                    if room > fetch_width:
                        room = fetch_width
                    if room > 0:
                        self._bubbles += room
                        stats.wrong_path_fetched += room
                elif wp_mode == "reconverge" and room > 0 \
                        and self._fetch_idx < n:
                    # Its own first checks: skip the call when they fail.
                    self._fetch_wrong_path_reconvergent()
            elif cycle < self._fetch_resume_cycle:
                stats.fetch_stall_mispredict += 1
            else:
                fetched = 0
                idx = self._fetch_idx
                # Counted up per fetched instruction, this cycle only; no
                # bubbles outside a mispredict.
                occupancy = idx - self._decoded
                while fetched < fetch_width and idx < n:
                    if occupancy >= ifq_size:
                        stats.fetch_stall_ifq_full += 1
                        break
                    entry = entries[idx]
                    is_dload = dload_flags[idx]
                    occupancy += 1
                    if marked_flags[idx]:
                        marked.append(idx)
                    if fetch_sink is not None:
                        fetch_sink.emit(TraceEvent(cycle, FETCH, MAIN_THREAD,
                                                   entry.pc, idx))
                    idx += 1
                    fetched += 1

                    if is_dload:
                        if self._mode != _IDLE:
                            sstats.triggers_blocked += 1
                        elif occupancy >= trigger_occ:
                            self._begin_trigger(idx - 1)
                        else:
                            sstats.triggers_suppressed += 1

                    if entry.is_cond:
                        stats.cond_branches += 1
                        correct = predict_and_update(entry.pc, entry.taken)
                        if not correct:
                            stats.mispredicts += 1
                            self._await_branch_idx = idx - 1
                            if mispredict_sink is not None:
                                mispredict_sink.emit(TraceEvent(
                                    cycle, MISPREDICT, MAIN_THREAD, entry.pc,
                                    idx - 1, "taken" if entry.taken else
                                    "not-taken"))
                            self._wrong_path_real = 0
                            break
                        if entry.taken:
                            break  # redirect: taken branch ends fetch group
                    elif entry.is_branch:
                        break  # unconditional control flow ends fetch group
                self._fetch_idx = idx
                fetched_total += fetched

            ifq_occ_sum += self._fetch_idx - self._decoded + self._bubbles
            ruu_occ_sum += self._decoded - self._committed
            if self._mode != _IDLE:
                mode_cycles += 1
            self._cycle = cycle + 1
            if policy_on and (cycle + 1) % policy_interval == 0:
                # Decision boundary: the controller may move the live
                # operating point, so the hoisted locals must refresh.
                # Keyed on the cycle number alone (like the sampler), so
                # any split of the run into _run_loop calls — steps, idle
                # jumps clamped to the boundary — produces the identical
                # decision sequence.
                if policy.tick(self, cycle + 1):
                    trigger_occ = self._trigger_occ
                    chaining = self._chaining
            if sampling and (cycle + 1) % sample_interval == 0:
                sampler.take(cycle + 1, self._committed, ifq_occ_sum,
                             ruu_occ_sum, mode_cycles, main_ts.accesses,
                             main_ts.l1_misses,
                             per_thread=self._thread_counters())
        stats.ifq_occupancy_sum = ifq_occ_sum
        stats.ruu_occupancy_sum = ruu_occ_sum
        stats.decoded = self._decoded
        stats.fetched = fetched_total
        sstats.cycles_in_mode = mode_cycles
        if self._committed < n and self._cycle >= max_cycles:
            raise RuntimeError(
                f"{cfg.name}: exceeded max_cycles={cfg.max_cycles} "
                f"({self._committed}/{n} committed) — likely a deadlock")

    def _finalize(self) -> PipelineResult:
        """Close out a completed run: tail sampler interval, final stats
        fields, and the :class:`PipelineResult`."""
        stats = self.stats
        sampler = self._sampler
        if sampler is not None:
            # Partial tail interval (no-op if the run ended on a boundary).
            main_ts = self.mem.thread_stats[MAIN_THREAD]
            sampler.take(self._cycle, self._committed,
                         stats.ifq_occupancy_sum, stats.ruu_occupancy_sum,
                         stats.spear.cycles_in_mode, main_ts.accesses,
                         main_ts.l1_misses,
                         per_thread=self._thread_counters())
        stats.cycles = self._cycle
        stats.committed = self._committed
        timeline = sampler.timeline() if sampler is not None else None
        policy = self._policy
        if policy is not None and timeline is not None:
            # Attach the decision series so policy moves are attributable
            # against the sampled phases (rendered generically by
            # ``repro analyze``).
            timeline = dict(timeline)
            timeline["policy"] = policy.series()
        return PipelineResult(
            config_name=self.config.name,
            stats=stats,
            memory=self.mem.snapshot(),
            predictor={"hit_ratio": self.predictor.stats.hit_ratio,
                       "lookups": self.predictor.stats.lookups},
            prefetcher=self.prefetcher.stats.snapshot(),
            workload=self.trace.program_name,
            timeline=timeline,
            policy=policy.summary() if policy is not None else None)

    def _fast_forward(self, cycle: int, stop: int, ifq_occ_sum: int,
                      ruu_occ_sum: int, mode_cycles: int
                      ) -> tuple[int, int, int, int] | None:
        """Skip to the next event horizon if this cycle is provably idle.

        Returns None when the coming cycle has (or may have) real work,
        else the ``(new_cycle, ifq_occ_sum, ruu_occ_sum, mode_cycles)``
        state after jumping over the idle stretch.  Mirrors the loop's
        phase order: completion, commit, mode tick / retrigger, issue,
        extract, decode, fetch.  Any phase that would mutate state vetoes
        the skip; phases that would only bump a stall counter contribute
        that counter to the bulk update.  The veto chain errs on the side
        of not jumping: what it cannot prove idle is walked.  The run
        loop's guard has already vetoed due completions, a done ROB head
        and ready instructions.
        """
        events = self._events
        cfg = self.config
        decoded = self._decoded
        fetch_idx = self._fetch_idx
        occ = fetch_idx - decoded + self._bubbles

        # ---- decode: would the main decoder consume anything? ----------
        # 0 = no counter, 1 = decode_stall_empty_ifq, 2 = decode_stall_
        # ruu_full.  Order matches the loop: the RUU-full check comes
        # before the barrier/bubble head checks (which bump nothing).
        ruu = decoded - self._committed
        if occ:
            if ruu >= cfg.ruu_size:
                decode_stat = 2
            elif decoded < fetch_idx and not (
                    decoded > self._await_branch_idx >= 0):
                return None                  # head is decodable
            else:
                decode_stat = 0
        else:
            decode_stat = 1                  # empty IFQ (and nothing to
            #                                  extract on an idle cycle)

        # ---- fetch -----------------------------------------------------
        # 0 = no counter, 1 = fetch_stall_mispredict, 2 = fetch_stall_
        # ifq_full.  ``fetch_resume`` carries the redirect cycle as an
        # extra horizon candidate.
        n = len(self._entries)
        ifq_full = occ >= cfg.ifq_size
        fetch_stat = 0
        fetch_resume = 0
        if self._await_branch_idx >= 0:
            wp = cfg.wrong_path
            if not ifq_full and (wp == "bubbles" or
                                 (wp == "reconverge" and fetch_idx < n)):
                return None                  # wrong-path fetch has work
            fetch_stat = 1
        elif cycle < self._fetch_resume_cycle:
            fetch_stat = 1
            fetch_resume = self._fetch_resume_cycle
        elif fetch_idx < n:
            if not ifq_full:
                return None                  # normal fetch has work
            fetch_stat = 2
        # else: trace exhausted — fetch is a silent no-op.

        # ---- SPEAR mode machinery ---------------------------------------
        mode = self._mode
        marked = self._marked
        drain_stall = extract_stall = False
        if mode == _COPY:
            return None                      # live-in copy counts down
        if mode == _DRAIN:
            if self._drain_satisfied():      # idempotent (pops done
                return None                  # producers), as the mode
            drain_stall = True               # tick would this cycle
        elif mode == _IDLE:
            # ``_chaining``/``_trigger_occ`` are the *live* operating
            # point (an adaptive-phase controller may have moved them),
            # mirroring the run loop's hoisted locals exactly.
            if (cfg.spear_enabled and marked
                    and (self._chaining or occ >= self._trigger_occ)
                    and self._retrigger_candidate()):
                return None                  # a dormant d-load would fire
        else:  # _ACTIVE
            # The PE has a candidate when a marked entry lies at or past
            # both its head pointer and the IFQ head.
            if (not self._trigger_extracted and marked
                    and marked[-1] >= max(self._pe_idx, decoded)):
                if self._pt_inflight >= cfg.pthread_ruu_size:
                    extract_stall = True
                else:
                    return None              # the PE would extract

        # ---- provably idle: jump to the horizon -------------------------
        horizon = cfg.max_cycles
        if events:
            nxt = min(events)
            if nxt < horizon:
                horizon = nxt
        if fetch_resume and fetch_resume < horizon:
            horizon = fetch_resume
        policy = self._policy
        if policy is not None:
            # Never jump past a policy decision boundary: clamping the
            # horizon to the boundary-processing cycle (the cycle ``c``
            # with ``(c + 1) % interval == 0``) lets the normal loop
            # bottom run the controller tick there, so decisions fire at
            # the cycles a walk fires them.  If the *current* cycle is a
            # boundary the clamp makes ``delta <= 0`` and the skip is
            # refused outright.
            pint = policy.interval
            boundary = (cycle // pint + 1) * pint - 1
            if boundary < horizon:
                horizon = boundary
        if horizon > stop:
            horizon = stop
        delta = horizon - cycle
        if delta <= 0:
            return None

        stats = self.stats
        if decode_stat == 1:
            stats.decode_stall_empty_ifq += delta
        elif decode_stat:
            stats.decode_stall_ruu_full += delta
        if fetch_stat == 1:
            stats.fetch_stall_mispredict += delta
        elif fetch_stat:
            stats.fetch_stall_ifq_full += delta
        if drain_stall:
            stats.spear.drain_wait_cycles += delta
        if extract_stall:
            stats.spear.extraction_stall_ruu_full += delta

        in_mode = 1 if mode != _IDLE else 0
        sampler = self._sampler
        if sampler is not None:
            interval = sampler.interval
            if (cycle // interval + 1) * interval <= horizon:
                main_ts = self.mem.thread_stats[MAIN_THREAD]
                sampler.advance_idle(
                    cycle, horizon, self._committed,
                    ifq_occ_sum, occ, ruu_occ_sum, ruu,
                    mode_cycles, in_mode,
                    main_ts.accesses, main_ts.l1_misses,
                    per_thread=self._thread_counters())
        self.ff_jumps += 1
        self.ff_cycles_skipped += delta
        return (horizon, ifq_occ_sum + delta * occ,
                ruu_occ_sum + delta * ruu, mode_cycles + delta * in_mode)

    def _retrigger_candidate(self) -> bool:
        """Whether ``_try_retrigger`` would find a dormant d-load, without
        pruning: the same tail-first scan, stopped at the stale entries."""
        low = max(self._pe_idx, self._decoded)
        dload_flags = self._dload_flags
        for idx in reversed(self._marked):
            if idx < low:
                return False
            if dload_flags[idx]:
                return True
        return False

    def _thread_counters(self) -> tuple:
        """Cumulative per-thread (completed, issued, l1_accesses,
        l1_misses) tuples for the sampler's per-thread series."""
        stats = self.mem.thread_stats
        completed = self._completed_by_thread
        issued = self._issued_by_thread
        m, p = stats[MAIN_THREAD], stats[P_THREAD]
        # Built literally (no genexpr/tuple() machinery): this runs at
        # every sampler boundary of every traced run.
        return ((completed[MAIN_THREAD], issued[MAIN_THREAD],
                 m.accesses, m.l1_misses),
                (completed[P_THREAD], issued[P_THREAD],
                 p.accesses, p.l1_misses))

    # ------------------------------------------------------------------
    # Completion / wakeup
    # ------------------------------------------------------------------

    def _complete(self, finished: list[int]) -> None:
        """Process the instances whose completion event is this cycle
        (the run loop pops the event list and skips the call when empty)."""
        n = self._n
        main_ready = self._main_ready
        pt_ready = self._pt_ready
        sink = self._sinks[COMPLETE]
        if sink is not None:
            # Pre-pass keeps the completion loop itself branch-free for
            # the (default) untraced run.
            cycle = self._cycle
            entries = self._entries
            for iid in finished:
                thread, idx = (P_THREAD, iid - n) if iid >= n \
                    else (MAIN_THREAD, iid)
                sink.emit(TraceEvent(cycle, COMPLETE, thread,
                                     entries[idx].pc, idx))
        completed_by_thread = self._completed_by_thread
        done = self._done
        deps = self._deps
        consumers = self._consumers
        for iid in finished:
            done[iid] = 1
            waiting = consumers[iid]
            if waiting is not None:
                consumers[iid] = None
                for cons in waiting:
                    d = deps[cons] - 1
                    deps[cons] = d
                    if not d:
                        (pt_ready if cons >= n else main_ready).append(cons)
            if iid >= n:
                completed_by_thread[P_THREAD] += 1
                self._pt_inflight -= 1
                if iid == self._trigger_pid and self._mode == _ACTIVE:
                    self.stats.spear.modes_completed += 1
                    self._end_mode(self._decoded)
                continue
            completed_by_thread[MAIN_THREAD] += 1
            if iid == self._await_branch_idx:
                self._await_branch_idx = -1
                self._fetch_resume_cycle = (
                    self._cycle + self.config.mispredict_redirect_penalty)
                # Decode stopped right past the branch, so everything left
                # in the IFQ was fetched after it: squash it all.  In the
                # reconverge model that span is re-fetched from just past
                # the branch, with fresh indicators; the cache state left by
                # any p-thread extraction survives.
                self.stats.wrong_path_flushed += (
                    self._fetch_idx - (iid + 1) + self._bubbles)
                self._bubbles = 0
                self._marked.clear()
                self._fetch_idx = self._pe_idx = iid + 1

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _commit(self) -> None:
        """Retire done instances from the ROB head, in order.  A committed
        index stays in ``_last_writer`` and ``_store_map`` until overwritten:
        it is done, so decode treats it as no producer."""
        first = committed = self._committed
        end = min(committed + self.config.commit_width, self._decoded)
        done = self._done
        while committed < end and done[committed]:
            committed += 1
        self._committed = committed
        sink = self._sinks[COMMIT]
        if sink is not None:
            cycle = self._cycle
            entries = self._entries
            for idx in range(first, committed):
                sink.emit(TraceEvent(cycle, COMMIT, MAIN_THREAD,
                                     entries[idx].pc, idx))

    # ------------------------------------------------------------------
    # SPEAR mode state machine
    # ------------------------------------------------------------------

    def _spear_mode_tick(self) -> None:
        # Only called in DRAIN or COPY: the run loop routes idle-time
        # dormant-d-load wakeups straight to _try_retrigger, and ACTIVE
        # has nothing to tick.
        if self._mode == _DRAIN:
            if self._drain_satisfied():
                self._mode = _COPY
                if self._sinks[MODE] is not None:
                    self._emit_mode(_DRAIN, _COPY)
                if self._copy_remaining == 0:
                    self._begin_active()
            else:
                self.stats.spear.drain_wait_cycles += 1
        elif self._mode == _COPY:
            self.stats.spear.livein_copy_cycles += 1
            self._copy_remaining -= 1
            if self._copy_remaining <= 0:
                self._begin_active()

    def _emit_mode(self, old: int, new: int) -> None:
        self._sinks[MODE].emit(TraceEvent(
            self._cycle, MODE, -1, -1, -1,
            f"{MODE_NAMES[old]}->{MODE_NAMES[new]}"))

    def _begin_active(self) -> None:
        self._mode = _ACTIVE
        if self._sinks[MODE] is not None:
            self._emit_mode(_COPY, _ACTIVE)
        # Live-in semantics: the p-thread starts from the main thread's
        # architectural register state.  Any register whose main-thread
        # producer is still in flight is not copyable yet, so chain-starting
        # p-thread instances must wait for it.  Without this seeding, a
        # loop-carried slice (pointer chase, fft index mixing) would
        # "teleport" to oracle future values at every trigger and overstate
        # pre-execution by the whole IFQ depth.  A copied producer that is
        # already done reads as no producer.
        self._pt_last_writer = self._last_writer[:]
        self._trigger_extracted = False

    def _drain_satisfied(self) -> bool:
        """Has the configured 'deterministic state' been reached?"""
        policy = self.config.drain_policy
        if policy == "livein":
            producers = self._drain_producers
            done = self._done
            while producers and done[producers[-1]]:
                producers.pop()
            return not producers
        if policy == "full":
            return self._committed > self._drain_idx
        return True  # "none"

    def _begin_trigger(self, trace_idx: int) -> None:
        """Enter pre-execution mode for the d-load at ``trace_idx``."""
        pc = self._entries[trace_idx].pc
        pthread = self.table[pc]
        self._mode = _DRAIN
        if self._sinks[MODE] is not None:
            self._emit_mode(_IDLE, _DRAIN)
        self._trigger_trace_idx = trace_idx
        self._trigger_extracted = False
        self._drain_idx = self._decoded - 1
        if self.config.drain_policy == "livein":
            lw = self._last_writer
            done = self._done
            self._drain_producers = [
                p for p in (lw[r] for r in pthread.live_ins) if not done[p]]
        self._copy_remaining = (len(pthread.live_ins)
                                * self.config.livein_copy_cycles)
        self.stats.spear.triggers += 1

    def _end_mode(self, head: int) -> None:
        """Leave pre-execution mode; ``head`` is the IFQ head's trace index
        (see :meth:`_try_retrigger`)."""
        old = self._mode
        self._mode = _IDLE
        self._trigger_trace_idx = -1
        if self._sinks[MODE] is not None:
            self._emit_mode(old, _IDLE)
        self._try_retrigger(head)

    def _try_retrigger(self, head: int) -> None:
        """A d-load that entered the IFQ while a mode was running is dormant
        but still marked; give it a chance to trigger now (DESIGN.md §6.3).

        ``head`` is the IFQ head's trace index: ``_decoded``, except in
        decode's mode abort, where the head has left the IFQ before
        ``_decoded`` counts it.

        With chaining triggers enabled the occupancy requirement is waived:
        a completed p-thread hands off to the next dormant d-load directly,
        the Collins-style chaining the paper's related work describes.
        ``_chaining`` is the live operating point (an adaptive-phase
        controller may flip it mid-run), not the config constant."""
        if (not self._chaining and self._fetch_idx - head + self._bubbles
                < self._trigger_occ):
            return
        marked = self._marked
        low = max(self._pe_idx, head)
        while marked and marked[0] < low:
            marked.popleft()
        # Scan from the tail: the *newest* dormant d-load plays the role of
        # a freshly pre-decoded one, so the PE sweeps every marked entry
        # between its head pointer and the IFQ tail in this mode.
        dload_flags = self._dload_flags
        for idx in reversed(marked):
            if dload_flags[idx]:
                self._begin_trigger(idx)
                self.stats.spear.retriggers += 1
                return

    # ------------------------------------------------------------------
    # P-thread extraction
    # ------------------------------------------------------------------

    def _extract(self) -> int:
        """Copy marked IFQ entries into the p-thread; returns how many.

        The run loop calls it only in ACTIVE mode with the trigger d-load
        not yet extracted and the marked deque non-empty.
        """
        cfg = self.config
        sstats = self.stats.spear
        budget = cfg.extract_width
        extracted = 0
        marked = self._marked
        low = max(self._pe_idx, self._decoded)
        while marked and marked[0] < low:
            marked.popleft()
        while budget > 0 and marked:
            if self._pt_inflight >= cfg.pthread_ruu_size:
                sstats.extraction_stall_ruu_full += 1
                break
            # Copying the entry clears its indicator: the PE head pointer
            # moves past it.
            idx = marked.popleft()
            self._pe_idx = idx + 1
            if idx <= self._max_extracted_idx:
                # Duplicate from a wrong-path flush re-fetch: this dynamic
                # instance was already pre-executed; skip it.
                if idx == self._trigger_trace_idx:
                    sstats.modes_completed += 1
                    self._end_mode(self._decoded)
                    break
                continue
            self._max_extracted_idx = idx
            self._spawn_pthread_instr(idx)
            extracted += 1
            budget -= 1
            if idx == self._trigger_trace_idx:
                self._trigger_extracted = True
                break
        return extracted

    def _spawn_pthread_instr(self, trace_idx: int) -> None:
        entry = self._entries[trace_idx]
        pid = self._n + trace_idx
        ptlw = self._pt_last_writer
        done = self._done
        consumers = self._consumers
        d = 0
        for r in entry.srcs:
            prod = ptlw[r]
            if not done[prod]:
                d += 1
                waiting = consumers[prod]
                if waiting is None:
                    consumers[prod] = [pid]
                else:
                    waiting.append(pid)
        if entry.dst >= 0:
            ptlw[entry.dst] = pid
        is_trigger = trace_idx == self._trigger_trace_idx
        if is_trigger:
            self._trigger_pid = pid
        sink = self._sinks[EXTRACT]
        if sink is not None:
            sink.emit(TraceEvent(
                self._cycle, EXTRACT, P_THREAD, entry.pc, trace_idx,
                "trigger" if is_trigger else ""))
        self._pt_inflight += 1
        sstats = self.stats.spear
        sstats.pthread_instrs += 1
        sstats.extracted += 1
        if entry.is_load:
            sstats.pthread_loads += 1
        if d:
            self._deps[pid] = d
        else:
            self._pt_ready.append(pid)

    # ------------------------------------------------------------------
    # Issue / execute
    # ------------------------------------------------------------------

    def _issue(self) -> None:
        cfg = self.config
        fu_main = self._fu_main
        fu_pt = self._fu_pt
        # A new cycle's units.
        fu_main._avail[:] = fu_main._capacity
        if fu_pt is not fu_main:
            fu_pt._avail[:] = fu_pt._capacity

        # Dedicated-FU models give each thread its own issue width (the
        # paper likens them to a CMP); shared models split one width, and
        # the thread that issues second gets what the first left.
        budget = cfg.issue_width
        issued_by_thread = self._issued_by_thread
        if cfg.pthread_priority:
            if self._pt_ready:
                used = self._issue_from(self._pt_ready, fu_pt, budget,
                                        P_THREAD)
                issued_by_thread[P_THREAD] += used
                if not cfg.separate_fu:
                    budget -= used
            if budget > 0 and self._main_ready:
                issued_by_thread[MAIN_THREAD] += self._issue_from(
                    self._main_ready, fu_main, budget, MAIN_THREAD)
        else:
            # Ablation path: the p-thread competes after the main thread.
            if self._main_ready:
                used = self._issue_from(self._main_ready, fu_main, budget,
                                        MAIN_THREAD)
                issued_by_thread[MAIN_THREAD] += used
                if not cfg.separate_fu:
                    budget -= used
            if budget > 0 and self._pt_ready:
                issued_by_thread[P_THREAD] += self._issue_from(
                    self._pt_ready, fu_pt, budget, P_THREAD)

    def _issue_from(self, ready: list[int], pool: FUPool, budget: int,
                    thread: int) -> int:
        """Issue up to ``budget`` of ``thread``'s ready instances; returns
        count issued.

        Claims units from ``pool``'s availability list, counting a
        structural hazard in ``pool.conflicts`` when none is left.  Every
        ready instance was decoded or extracted in an earlier cycle: issue
        runs before extract and decode within a cycle.
        """
        if budget <= 0 or not ready:
            return 0
        issued = 0
        leftovers: list[int] = []
        # Instance id minus this offset is the trace index.
        offset = self._n if thread else 0
        entries = self._entries
        events = self._events
        cycle = self._cycle
        mem = self.mem
        stats = self.stats
        avail = pool._avail
        fu_kind = _FU_KIND
        latency = _LATENCY
        prefetch_active = self._prefetch_active
        sinks = self._sinks
        issue_sink = sinks[ISSUE]
        for idx, iid in enumerate(ready):
            if issued >= budget:
                leftovers.extend(ready[idx:])
                break
            trace_idx = iid - offset
            e = entries[trace_idx]
            kind = fu_kind[e.op_class]
            if not avail[kind]:
                pool.conflicts[kind] += 1
                stats.issue_fu_conflicts += 1
                leftovers.append(iid)
                continue
            avail[kind] -= 1
            if e.is_load:
                lat = mem.access(e.addr, thread=thread, now=cycle)
                comp = cycle + (lat if lat > 1 else 1)
                if issue_sink is not None:
                    issue_sink.emit(TraceEvent(cycle, ISSUE, thread,
                                               e.pc, trace_idx,
                                               f"load:{lat}"))
                if prefetch_active and thread == MAIN_THREAD:
                    prefetch_sink = sinks[PREFETCH]
                    fill_sink = sinks[FILL]
                    for target in self.prefetcher.observe(
                            e.pc, e.addr, lat > mem.latencies.l1):
                        if prefetch_sink is not None:
                            prefetch_sink.emit(TraceEvent(
                                cycle, PREFETCH, MAIN_THREAD, e.pc,
                                trace_idx, f"{target:#x}"))
                        if mem.prefetch(target, now=cycle):
                            self.prefetcher.stats.useful_hint += 1
                            if fill_sink is not None:
                                fill_sink.emit(TraceEvent(
                                    cycle, FILL, MAIN_THREAD, e.pc,
                                    trace_idx, f"{target:#x}"))
            elif e.is_store:
                mem.access(e.addr, is_write=True, thread=thread, now=cycle)
                comp = cycle + 1
                if issue_sink is not None:
                    issue_sink.emit(TraceEvent(cycle, ISSUE, thread,
                                               e.pc, trace_idx, "store"))
            else:
                comp = cycle + latency[e.op_class]
                if issue_sink is not None:
                    issue_sink.emit(TraceEvent(cycle, ISSUE, thread,
                                               e.pc, trace_idx))
            lst = events.get(comp)
            if lst is None:
                events[comp] = [iid]
            else:
                lst.append(iid)
            issued += 1
        ready[:] = leftovers
        stats.issued += issued
        return issued

    # ------------------------------------------------------------------
    # Fetch / pre-decode
    # ------------------------------------------------------------------

    def _fetch_wrong_path_reconvergent(self) -> None:
        """Wrong-path fetch in the reconvergent model.

        The kernels' conditional branches are short forward hammocks whose
        wrong path reconverges within a few instructions, so the machine's
        wrong-path fetch stream is nearly identical to the future committed
        path.  We therefore keep fetching real trace entries — pre-decode
        marking and trigger checks included, so the PE can pre-execute
        across the mispredict exactly as the paper's hardware does — but
        decode stops at the unresolved branch, and the entries are
        squashed and re-fetched at resolution.  Further branches inside the
        wrong-path span are not predicted: the machine is already off the
        architectural path.
        """
        cfg = self.config
        ifq_size = cfg.ifq_size
        stats = self.stats
        entries = self._entries
        n = len(entries)
        sink = self._sinks[FETCH]
        fetched = 0
        while fetched < cfg.fetch_width and self._fetch_idx < n:
            occupancy = self._fetch_idx - self._decoded + self._bubbles
            if occupancy >= ifq_size:
                break
            fetched += 1
            stats.wrong_path_fetched += 1
            if self._wrong_path_real >= cfg.reconverge_window:
                # Past plausible reconvergence: the stream is genuinely
                # wrong-path from here on — opaque bubbles only.
                self._bubbles += 1
                continue
            idx = self._fetch_idx
            entry = entries[idx]
            if self._marked_flags[idx]:
                self._marked.append(idx)
            if sink is not None:
                sink.emit(TraceEvent(self._cycle, FETCH, MAIN_THREAD,
                                     entry.pc, idx, "wrong-path"))
            self._fetch_idx = idx + 1
            self._wrong_path_real += 1
            if self._dload_flags[idx]:
                sstats = stats.spear
                if self._mode != _IDLE:
                    sstats.triggers_blocked += 1
                elif occupancy + 1 >= self._trigger_occ:
                    self._begin_trigger(idx)
                else:
                    sstats.triggers_suppressed += 1
            if entry.is_branch and entry.taken:
                break


def simulate(trace: Trace, config: MachineConfig,
             table: PThreadTable | None = None,
             memory: MemoryHierarchy | None = None,
             tracer: TraceSink | None = None,
             sampler: IntervalSampler | None = None,
             policy=None) -> PipelineResult:
    """Run ``trace`` through ``config`` and return the result.
    ``policy`` is an optional in-run trigger-policy controller (see
    :mod:`repro.policy`)."""
    return TimingSimulator(trace, config, table, memory, tracer=tracer,
                           sampler=sampler, policy=policy).run()
