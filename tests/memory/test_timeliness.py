"""Speculative-fill timeliness attribution and the prefetch-L2 accounting
fix (prefetch probes must not inflate demand L2 statistics)."""

import pytest

from repro.memory import MemoryHierarchy
from repro.memory.hierarchy import LatencyConfig


MAIN, PT = 0, 1

#: L1D is 256 sets x 32 B: addresses 8 KiB apart share a set.
SET_STRIDE = 256 * 32


@pytest.fixture
def mem():
    return MemoryHierarchy(latencies=LatencyConfig(1, 12, 120))


def pthread_fills(mem):
    return mem.fill_snapshot()["pthread"]


def prefetch_fills(mem):
    return mem.fill_snapshot()["prefetch"]


class TestPthreadTimeliness:
    def test_timely_when_main_hits_after_fill_completes(self, mem):
        mem.access(0x1000, thread=PT, now=0)          # fill, ready at 120
        assert mem.access(0x1000, thread=MAIN, now=200) == 1
        f = pthread_fills(mem)
        assert f["fills"] == 1 and f["timely"] == 1
        assert f["late"] == f["unused"] == f["redundant"] == 0

    def test_late_when_main_merges_into_flight(self, mem):
        mem.access(0x1000, thread=PT, now=0)
        assert mem.access(0x1000, thread=MAIN, now=50) == 70
        f = pthread_fills(mem)
        assert f["fills"] == 1 and f["late"] == 1 and f["timely"] == 0

    def test_first_main_touch_decides_once(self, mem):
        mem.access(0x1000, thread=PT, now=0)
        mem.access(0x1000, thread=MAIN, now=50)       # late
        mem.access(0x1000, thread=MAIN, now=200)      # plain hit, no recount
        f = pthread_fills(mem)
        assert f["late"] == 1 and f["timely"] == 0
        assert f["late"] + f["timely"] + f["unused"] == f["fills"]

    def test_redundant_when_block_already_resident(self, mem):
        mem.access(0x1000, thread=MAIN, now=0)
        mem.access(0x1000, thread=PT, now=200)        # L1 hit
        f = pthread_fills(mem)
        assert f["fills"] == 0 and f["redundant"] == 1

    def test_redundant_when_merging_into_main_fill(self, mem):
        mem.access(0x1000, thread=MAIN, now=0)        # main demand fill
        mem.access(0x1000, thread=PT, now=10)         # delayed hit
        f = pthread_fills(mem)
        assert f["redundant"] == 1 and f["fills"] == 0
        # the main-initiated fill is not speculative: nothing classified
        assert f["timely"] == f["late"] == 0

    def test_unused_on_eviction(self, mem):
        mem.access(0x0, thread=PT, now=0)
        # Four more blocks in the same set, touched by the main thread,
        # evict the LRU speculative block before it is ever used.
        for i in range(1, 5):
            mem.access(i * SET_STRIDE, thread=MAIN, now=130 + i * 130)
        f = pthread_fills(mem)
        assert f["unused"] == 1 and f["timely"] == f["late"] == 0
        assert f["fills"] == 1

    def test_snapshot_folds_resident_untouched_without_mutating(self, mem):
        mem.access(0x1000, thread=PT, now=0)
        first = pthread_fills(mem)
        assert first["unused"] == 1                   # resident, never used
        assert pthread_fills(mem) == first            # idempotent
        # a later main touch still classifies it (snapshot didn't resolve)
        mem.access(0x1000, thread=MAIN, now=200)
        assert pthread_fills(mem)["timely"] == 1
        assert pthread_fills(mem)["unused"] == 0

    def test_sum_invariant_and_attempts(self, mem):
        for i in range(8):
            mem.access(0x1000 + 0x40 * i, thread=PT, now=i)
        mem.access(0x1000, thread=MAIN, now=50)       # late
        mem.access(0x1040, thread=MAIN, now=500)      # timely
        mem.access(0x1000, thread=PT, now=600)        # redundant
        f = pthread_fills(mem)
        assert f["timely"] + f["late"] + f["unused"] == f["fills"] == 8
        assert f["attempts"] == f["fills"] + f["redundant"] == 9


class TestPrefetchTimeliness:
    def test_prefetch_fill_classified(self, mem):
        assert mem.prefetch(0x2000, now=0) is True
        mem.access(0x2000, thread=MAIN, now=300)
        f = prefetch_fills(mem)
        assert f["fills"] == 1 and f["timely"] == 1

    def test_prefetch_redundant_when_resident_or_in_flight(self, mem):
        mem.access(0x2000, thread=MAIN, now=0)
        assert mem.prefetch(0x2000, now=10) is False   # in flight
        assert mem.prefetch(0x2000, now=500) is False  # resident
        f = prefetch_fills(mem)
        assert f["redundant"] == 2 and f["fills"] == 0

    def test_sources_classified_independently(self, mem):
        mem.access(0x1000, thread=PT, now=0)
        mem.prefetch(0x3000, now=0)
        mem.access(0x1000, thread=MAIN, now=50)
        mem.access(0x3000, thread=MAIN, now=400)
        assert pthread_fills(mem)["late"] == 1
        assert prefetch_fills(mem)["timely"] == 1


class TestPrefetchL2Accounting:
    """Regression: ``prefetch()`` used to call ``l2.access`` and count its
    probe in the demand L2 statistics every report consumes."""

    def test_prefetch_does_not_touch_demand_l2_stats(self, mem):
        before = mem.l2.stats.snapshot()
        mem.prefetch(0x4000, now=0)
        after = mem.l2.stats.snapshot()
        assert (after["accesses"], after["hits"], after["misses"]) == \
            (before["accesses"], before["hits"], before["misses"])
        assert mem.prefetch_l2_misses == 1 and mem.prefetch_l2_hits == 0

    def test_prefetch_l2_hit_counted_separately(self, mem):
        mem.l2.install(0x4000)                        # L2-resident, L1-absent
        mem.prefetch(0x4000, now=0)
        assert mem.prefetch_l2_hits == 1 and mem.prefetch_l2_misses == 0
        # L2-hit latency: the fill completes at now + l2
        assert mem.access(0x4000, now=5) == 12 - 5

    def test_prefetch_still_installs_into_l2_on_miss(self, mem):
        mem.prefetch(0x4000, now=0)
        assert mem.l2.contains(0x4000)

    def test_snapshot_reports_prefetch_l2_traffic(self, mem):
        mem.prefetch(0x4000, now=0)
        snap = mem.snapshot()
        assert snap["prefetch_l2_misses"] == 1
        assert snap["prefetch_fills"] == 1
        assert snap["fills"]["prefetch"]["fills"] == 1


class TestLifecycle:
    def test_reset_clears_fill_accounting(self, mem):
        mem.access(0x1000, thread=PT, now=0)
        mem.prefetch(0x2000, now=0)
        mem.reset()
        assert pthread_fills(mem)["fills"] == 0
        assert prefetch_fills(mem)["fills"] == 0
        assert mem.prefetch_l2_hits == mem.prefetch_l2_misses == 0

    def test_finish_warmup_clears_fill_accounting(self, mem):
        mem.access(0x1000, thread=PT, now=0)
        mem.finish_warmup()
        f = pthread_fills(mem)
        assert f["fills"] == f["unused"] == 0
