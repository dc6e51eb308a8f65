"""L1/L2/DRAM hierarchy: latencies, fill merging, per-thread stats, warmup."""

import pytest

from repro.memory import (FIG9_LATENCIES, LatencyConfig, MemoryHierarchy)


def hier(**kw):
    return MemoryHierarchy(latencies=LatencyConfig(1, 12, 120), **kw)


class TestLatencyLevels:
    def test_cold_goes_to_memory(self):
        m = hier()
        assert m.access(0x1000, now=0) == 120

    def test_l1_hit_after_fill_completes(self):
        m = hier()
        m.access(0x1000, now=0)
        assert m.access(0x1000, now=200) == 1

    def test_l2_hit_after_l1_eviction(self):
        m = hier()
        m.access(0x0, now=0)
        # Evict from L1 by filling its set (L1: 256 sets x 32B -> same set
        # every 8 KiB); 4 ways -> 4 conflicting fills evict block 0.
        for i in range(1, 5):
            m.access(i * 8192, now=1000 * i)
        assert m.access(0x0, now=100_000) == 12

    def test_latency_config_validation(self):
        with pytest.raises(ValueError):
            LatencyConfig(5, 3, 100)
        with pytest.raises(ValueError):
            LatencyConfig(0, 3, 100)

    def test_fig9_sweep_points(self):
        assert len(FIG9_LATENCIES) == 5
        assert FIG9_LATENCIES[0].memory == 40
        assert FIG9_LATENCIES[-1].memory == 200
        assert FIG9_LATENCIES[2] == LatencyConfig(1, 12, 120)


class TestFillMerging:
    def test_second_access_pays_remaining_latency(self):
        m = hier()
        m.access(0x1000, thread=1, now=0)        # p-thread starts the miss
        lat = m.access(0x1000, thread=0, now=30)  # main arrives mid-fill
        assert lat == 90
        assert m.thread_stats[0].delayed_hits == 1
        assert m.thread_stats[0].l1_misses == 0

    def test_fill_completes_exactly_at_ready(self):
        m = hier()
        m.access(0x1000, now=0)
        assert m.access(0x1000, now=120) == 1

    def test_merge_is_not_a_primary_miss(self):
        m = hier()
        m.access(0x1000, thread=1, now=0)
        m.access(0x1000, thread=0, now=1)
        assert m.thread_stats[0].l1_misses == 0
        assert m.thread_stats[1].l1_misses == 1

    def test_l2_fill_also_tracked(self):
        m = hier()
        m.access(0x0, now=0)
        for i in range(1, 5):
            m.access(i * 8192, now=500 * i)
        m.access(0x0, now=10_000)                 # L2 hit, fill in flight
        assert m.access(0x0, now=10_006) == 6     # remaining 12 - 6

    def test_same_thread_access_pays_remaining_latency(self):
        m = hier()
        assert m.access(0x1000, now=0) == 120
        assert m.access(0x1000, now=50) == 70     # merges into its own fill
        assert m.access(0x1000, now=500) == 1
        assert m.thread_stats[0].delayed_hits == 1
        assert m.thread_stats[0].l1_misses == 1


class TestThreadStats:
    def test_separate_accounting(self):
        m = hier()
        m.access(0x1000, thread=0, now=0)
        m.access(0x2000, thread=1, now=0)
        assert m.thread_stats[0].accesses == 1
        assert m.thread_stats[1].accesses == 1

    def test_avg_latency(self):
        m = hier()
        m.access(0x1000, now=0)
        m.access(0x1000, now=500)
        assert m.thread_stats[0].avg_latency == pytest.approx((120 + 1) / 2)

    def test_snapshot_structure(self):
        m = hier()
        m.access(0x40, now=0)
        snap = m.snapshot()
        assert snap["latencies"]["memory"] == 120
        assert snap["threads"][0]["l1_misses"] == 1
        assert snap["l2"]["misses"] == 1


class TestWarmup:
    def test_warm_then_hit(self):
        m = hier()
        m.warm(0x1000)
        m.finish_warmup()
        assert m.access(0x1000, now=0) == 1
        assert m.thread_stats[0].l1_hits == 1

    def test_warmup_stats_discarded(self):
        m = hier()
        for i in range(100):
            m.warm(i * 64)
        m.finish_warmup()
        assert m.l1.stats.accesses == 0
        assert m.thread_stats[0].accesses == 0

    def test_warmup_leaves_no_pending_fills(self):
        m = hier()
        m.access(0x5000, now=0)    # creates a pending fill
        m.finish_warmup()
        assert m.access(0x5000, now=0) == 1  # no delayed-hit artifact

    def test_reset_clears_everything(self):
        m = hier()
        m.access(0x1000, now=0)
        m.reset()
        assert m.access(0x1000, now=0) == 120
