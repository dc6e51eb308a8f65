"""Event-driven fast-forward timing kernel.

Stall-heavy workloads spend most of their cycles doing literally nothing:
the IFQ is full or empty, the RUU head is waiting on DRAM, no instruction
is ready to issue, and the only future state change is a completion event
already scheduled in the event map.  The reference kernel still walks
those cycles one by one; this backend proves a cycle idle and jumps
straight to the next cycle anything *can* change — the next completion
event or the post-mispredict fetch-redirect cycle — applying the skipped
cycles' stall counters, occupancy sums and interval-sampler boundaries in
one arithmetic step.

The contract is **byte identity** with the reference kernel: identical
``PipelineResult`` (stats, memory, predictor, timeline) and identical
trace streams.  The skip test is therefore deliberately conservative — it
re-derives exactly the decisions the reference loop would make this cycle
(including the stall counter each phase would bump) and refuses to skip
whenever any phase would mutate state.  Traced runs are equivalent by
construction: every tracer emit site lives on an active path, and idle
cycles emit nothing.

In-flight memory latencies need no adjustment on a jump: the event map
and the hierarchy's pending-fill table are keyed by *absolute* cycle
numbers, which a jump does not reinterpret.
"""

from __future__ import annotations

from .smt import MAIN_THREAD, TimingSimulator, _COPY, _DRAIN, _IDLE


class FastForwardSimulator(TimingSimulator):
    """The ``fast-forward`` backend: reference semantics, skipped idle."""

    backend = "fast-forward"
    _ff = True

    #: Diagnostics (instance-shadowed on first jump).  Deliberately not
    #: part of ``PipelineStats`` — results stay byte-identical to the
    #: reference kernel's.
    ff_jumps = 0
    ff_cycles_skipped = 0

    def _fast_forward(self, cycle: int, stop: int, ifq_occ_sum: int,
                      ruu_occ_sum: int, mode_cycles: int
                      ) -> tuple[int, int, int, int] | None:
        """Skip to the next event horizon if this cycle is provably idle.

        Mirrors the reference loop's phase order: completion, commit,
        mode tick / retrigger, issue, extract, decode, fetch.  Any phase
        that would mutate state vetoes the skip; phases that would only
        bump a stall counter contribute that counter to the bulk update.
        """
        events = self._events
        if cycle in events:
            return None                      # completions fire this cycle
        if self._done[self._committed]:
            return None                      # commit has work
        if self._main_ready or self._pt_ready:
            return None                      # issue has work
        cfg = self.config
        decoded = self._decoded
        fetch_idx = self._fetch_idx
        occ = fetch_idx - decoded + self._bubbles

        # ---- decode: would the main decoder consume anything? ----------
        # 0 = no counter, 1 = decode_stall_empty_ifq, 2 = decode_stall_
        # ruu_full.  Order matches the reference: the RUU-full check comes
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
            # mirroring the reference loop's hoisted locals exactly.
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
            # identical cycles on every kernel.  If the *current* cycle
            # is a boundary the clamp makes ``delta <= 0`` and the skip
            # is refused outright.
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
