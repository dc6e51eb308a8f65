"""Tracer/sampler wiring in the timing model, stream determinism, and the
stats-accounting fixes the observability layer exposed (dormant-trigger
chaining, decode-stall attribution)."""

import dataclasses

import pytest

from repro.core import PThread, PThreadTable, SPEAR_128, BASELINE
from repro.functional import Trace, TraceEntry
from repro.isa import OpClass
from repro.memory import MemoryHierarchy
from repro.observe import (COMMIT, DECODE, EXTRACT, MISPREDICT, MODE,
                           POLICY, IntervalSampler, RingBufferSink,
                           serialize_events)
from repro.pipeline import TimingSimulator

INT_ALU = int(OpClass.INT_ALU)
LOAD = int(OpClass.LOAD)


def alu(pc, srcs=(), dst=-1):
    return TraceEntry(pc, INT_ALU, tuple(srcs), dst, -1, False,
                      False, False, False, False)


def load(pc, addr, dst, srcs=()):
    return TraceEntry(pc, LOAD, tuple(srcs), dst, addr, False,
                      True, False, False, False)


def gather_like_trace(iters=200):
    entries = []
    for i in range(iters):
        entries.append(load(0, 0x10000 + 8 * i, dst=4, srcs=(1,)))
        entries.append(alu(1, srcs=(4,), dst=5))
        entries.append(alu(2, srcs=(5,), dst=6))
        entries.append(load(3, 0x400000 + 4096 * (i * 17 % 997), dst=7,
                            srcs=(6,)))
        entries.append(alu(4, srcs=(7, 9), dst=9))
        entries.append(alu(5, srcs=(1,), dst=1))
    return Trace(entries, program_name="synthetic-gather")


def table_for():
    t = PThreadTable()
    t.add(PThread(dload_pc=3, slice_pcs=frozenset((0, 1, 2, 3)),
                  live_ins=(1,)))
    return t


def traced_run(trace, config=SPEAR_128, table=None, interval=None):
    sink = RingBufferSink(capacity=None)
    sampler = IntervalSampler(interval) if interval else None
    sim = TimingSimulator(trace, config, table,
                          MemoryHierarchy(latencies=config.latencies),
                          tracer=sink, sampler=sampler)
    return sim.run(), sink


class TestTracerWiring:
    def test_event_counts_match_stats(self):
        res, sink = traced_run(gather_like_trace(), table=table_for())
        events = sink.events()
        by_kind = {}
        for e in events:
            by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
        assert by_kind[COMMIT] == res.stats.committed
        assert by_kind[DECODE] == res.stats.decoded
        assert by_kind[EXTRACT] == res.stats.spear.extracted
        assert by_kind.get(MISPREDICT, 0) == res.stats.mispredicts

    def test_mode_events_match_trigger_counters(self):
        res, sink = traced_run(gather_like_trace(), table=table_for())
        infos = [e.info for e in sink.events() if e.kind == MODE]
        starts = sum(1 for i in infos if i.startswith("IDLE->"))
        ends = sum(1 for i in infos if i.endswith("->IDLE"))
        s = res.stats.spear
        assert starts == s.triggers
        assert ends == s.modes_completed + s.modes_aborted

    def test_stream_cycles_monotone(self):
        _, sink = traced_run(gather_like_trace(), table=table_for())
        cycles = [e.cycle for e in sink.events()]
        assert cycles == sorted(cycles)

    def test_trigger_extract_flagged(self):
        res, sink = traced_run(gather_like_trace(), table=table_for())
        flagged = [e for e in sink.events()
                   if e.kind == EXTRACT and e.info == "trigger"]
        assert len(flagged) >= res.stats.spear.modes_completed


class TestTracerDisabled:
    def test_untraced_run_identical_to_traced(self):
        trace = gather_like_trace()
        plain = TimingSimulator(
            trace, SPEAR_128, table_for(),
            MemoryHierarchy(latencies=SPEAR_128.latencies)).run()
        observed, _ = traced_run(trace, table=table_for(), interval=1000)
        assert plain.stats.snapshot() == observed.stats.snapshot()
        assert plain.summary() == observed.summary()
        assert plain.memory == observed.memory

    def test_plain_run_has_no_timeline(self):
        trace = gather_like_trace(iters=20)
        res = TimingSimulator(trace, BASELINE, None).run()
        assert res.timeline is None


class _RecordingSink:
    """Keeps every event the simulator offers, whatever its subscription,
    so a test sees which events were built at all."""

    def __init__(self, kinds):
        self.kinds = frozenset(kinds)
        self.offered = []

    def emit(self, event):
        self.offered.append(event)

    def close(self):
        pass


class TestSubscribedKinds:
    def test_only_subscribed_kinds_are_built(self):
        sink = _RecordingSink({EXTRACT})
        res = TimingSimulator(
            gather_like_trace(), SPEAR_128, table_for(),
            MemoryHierarchy(latencies=SPEAR_128.latencies),
            tracer=sink).run()
        assert {e.kind for e in sink.offered} == {EXTRACT}
        assert len(sink.offered) == res.stats.spear.extracted > 0

    def test_policy_site_follows_the_subscription(self):
        from repro.policy.controller import PhaseController

        def offered(kinds):
            sink = _RecordingSink(kinds)
            TimingSimulator(gather_like_trace(), SPEAR_128, table_for(),
                            MemoryHierarchy(latencies=SPEAR_128.latencies),
                            tracer=sink,
                            policy=PhaseController(SPEAR_128,
                                                   interval=500)).run()
            return {e.kind for e in sink.offered}

        assert offered({POLICY}) == {POLICY}
        assert offered({MODE}) == {MODE}


class TestDeterminism:
    def test_byte_identical_streams(self):
        trace = gather_like_trace()
        _, a = traced_run(trace, table=table_for())
        _, b = traced_run(trace, table=table_for())
        assert serialize_events(a.events()) == serialize_events(b.events())


class TestSamplerIntegration:
    def test_timeline_consistent_with_totals(self):
        res, _ = traced_run(gather_like_trace(), table=table_for(),
                            interval=500)
        tl = res.timeline
        samples = tl["samples"]
        assert tl["interval"] == 500
        assert sum(s["committed"] for s in samples) == res.stats.committed
        assert sum(s["cycles"] for s in samples) == res.stats.cycles
        assert samples[-1]["cycle"] == res.stats.cycles
        assert all(s["cycle"] % 500 == 0 for s in samples[:-1])
        assert all(0.0 <= s["mode_residency"] <= 1.0 for s in samples)


class TestPerThreadSeries:
    def test_per_thread_totals_match_stats(self):
        res, _ = traced_run(gather_like_trace(), table=table_for(),
                            interval=500)
        tl = res.timeline
        assert [t["name"] for t in tl["per_thread"]] == ["main", "pthread"]
        main = res.thread_series(0)
        pthread = res.thread_series(1)
        assert len(main) == len(tl["samples"]) == len(pthread)
        # Thread 0 completes exactly the committed instructions; thread 1
        # completes exactly the extracted p-thread instructions.
        assert sum(s["completed"] for s in main) == res.stats.committed
        assert sum(s["completed"] for s in pthread) == \
            res.stats.spear.pthread_instrs
        # Per-thread L1 accounting decomposes the memory snapshot.
        threads = res.memory["threads"]
        assert sum(s["l1_misses"] for s in main) == threads[0]["l1_misses"]
        assert sum(s["l1_misses"] for s in pthread) == \
            threads[1]["l1_misses"]

    def test_issue_share_partitions_unity(self):
        res, _ = traced_run(gather_like_trace(), table=table_for(),
                            interval=500)
        main = res.thread_series(0)
        pthread = res.thread_series(1)
        for m, p in zip(main, pthread):
            total = m["issued"] + p["issued"]
            if total:
                assert m["issue_share"] + p["issue_share"] == \
                    pytest.approx(1.0)

    def test_thread_series_absent_without_sampler(self):
        res = TimingSimulator(gather_like_trace(iters=20), BASELINE,
                              None).run()
        assert res.thread_series(0) is None

    def test_baseline_pthread_series_is_flat(self):
        res, _ = traced_run(gather_like_trace(), config=BASELINE,
                            interval=500)
        pthread = res.thread_series(1)
        assert all(s["completed"] == 0 for s in pthread)
        assert all(s["issued"] == 0 for s in pthread)


class TestChainingRetrigger:
    """A dormant marked d-load must retrigger under chaining even at low
    IFQ occupancy — the run-loop fast path used to require the occupancy
    threshold regardless of ``config.chaining``."""

    def setup_method(self):
        # 36 instructions: the IFQ (128 deep, 64-entry trigger threshold)
        # can never reach trigger occupancy, so every trigger must come
        # from the chaining path.
        self.trace = gather_like_trace(iters=6)
        assert len(self.trace) < SPEAR_128.trigger_occupancy

    def test_without_chaining_stays_dormant(self):
        sim = TimingSimulator(self.trace, SPEAR_128, table_for())
        res = sim.run()
        assert res.stats.spear.triggers == 0
        assert res.stats.spear.triggers_suppressed > 0
        assert res.stats.committed == len(self.trace)

    def test_chaining_wakes_dormant_dload(self):
        chained = dataclasses.replace(SPEAR_128, name="chain", chaining=True)
        sim = TimingSimulator(self.trace, chained, table_for())
        res = sim.run()
        s = res.stats.spear
        # The dormant d-loads now trigger (at this scale the main thread
        # catches each one immediately, so the modes abort — but they ran,
        # which the occupancy-gated fast path used to make impossible).
        assert s.triggers >= 1
        assert s.modes_completed + s.modes_aborted == s.triggers
        assert res.stats.committed == len(self.trace)


class TestDecodeStallSplit:
    """``decode_stall_empty_ifq`` must mean the IFQ was empty and decode
    idle — cycles whose decode budget went to PE extraction are counted
    under ``decode_pe_busy``."""

    def test_counter_in_snapshot(self):
        res = TimingSimulator(gather_like_trace(iters=20), BASELINE,
                              None).run()
        snap = res.stats.snapshot()
        assert "decode_pe_busy" in snap
        assert snap["decode_pe_busy"] == 0

    def test_baseline_never_pe_busy(self):
        res = TimingSimulator(gather_like_trace(), BASELINE, None).run()
        assert res.stats.decode_pe_busy == 0

    def test_spear_accounting_disjoint(self):
        res = TimingSimulator(gather_like_trace(), SPEAR_128,
                              table_for()).run()
        s = res.stats
        # Both counters tally cycles, never double-counted: together they
        # cannot exceed the cycle count.
        assert s.decode_stall_empty_ifq + s.decode_pe_busy <= s.cycles
