"""Hardware prefetchers: stride detection, next-line, hierarchy integration."""

import pytest

from repro.memory import (MemoryHierarchy, NextLinePrefetcher, NoPrefetcher,
                          StridePrefetcher, make_prefetcher)


class TestStride:
    def test_detects_constant_stride(self):
        p = StridePrefetcher(degree=2, distance=1)
        assert p.observe(4, 0x1000, True) == []        # learn entry
        assert p.observe(4, 0x1040, True) == []        # learn stride
        out = p.observe(4, 0x1080, True)               # confident
        assert out == [0x10C0, 0x1100]

    def test_distance_pushes_targets_out(self):
        p = StridePrefetcher(degree=1, distance=16)
        p.observe(4, 0x1000, True)
        p.observe(4, 0x1008, True)                     # 8-byte stream
        assert p.observe(4, 0x1010, True) == [0x1010 + 16 * 8]

    def test_distinct_pcs_independent(self):
        p = StridePrefetcher()
        p.observe(4, 0x1000, True)
        p.observe(8, 0x9000, True)
        p.observe(4, 0x1040, True)
        p.observe(8, 0x9100, True)
        assert p.observe(4, 0x1080, True)              # stride 0x40 confirmed
        assert p.observe(8, 0x9200, True)              # stride 0x100 confirmed

    def test_random_addresses_never_prefetch(self):
        import random
        rng = random.Random(0)
        p = StridePrefetcher()
        issued = []
        for _ in range(500):
            issued += p.observe(4, rng.randrange(0, 1 << 20) & ~7, True)
        assert len(issued) < 10       # random pattern: (almost) no prefetches

    def test_stride_change_resets_confidence(self):
        p = StridePrefetcher()
        p.observe(4, 0x1000, True)
        p.observe(4, 0x1040, True)
        assert p.observe(4, 0x1080, True)
        assert p.observe(4, 0x5000, True) == []        # broken stride
        assert p.observe(4, 0x5040, True) == []        # relearning

    def test_table_aliasing(self):
        p = StridePrefetcher(table_size=4)
        p.observe(1, 0x1000, True)
        p.observe(5, 0x9000, True)                     # same slot, new tag
        assert p._table[1][0] == 5

    def test_zero_stride_never_fires(self):
        p = StridePrefetcher()
        for _ in range(10):
            assert p.observe(4, 0x2000, True) == []

    def test_negative_stride(self):
        p = StridePrefetcher(degree=1, distance=1)
        p.observe(4, 0x2000, True)
        p.observe(4, 0x1FC0, True)
        assert p.observe(4, 0x1F80, True) == [0x1F40]

    def test_power_of_two_table(self):
        with pytest.raises(ValueError):
            StridePrefetcher(table_size=100)


class TestNextLine:
    def test_prefetches_next_blocks_on_miss(self):
        p = NextLinePrefetcher(block_bytes=32, degree=2)
        assert p.observe(4, 0x100, True) == [0x120, 0x140]

    def test_quiet_on_hits(self):
        p = NextLinePrefetcher()
        assert p.observe(4, 0x100, False) == []

    def test_stats(self):
        p = NextLinePrefetcher(degree=1)
        p.observe(4, 0x100, True)
        p.observe(4, 0x100, False)
        assert p.stats.observed == 2
        assert p.stats.issued == 1


class TestFactoryAndNone:
    def test_factory(self):
        assert isinstance(make_prefetcher("none"), NoPrefetcher)
        assert isinstance(make_prefetcher("nextline"), NextLinePrefetcher)
        assert isinstance(make_prefetcher("stride"), StridePrefetcher)
        with pytest.raises(ValueError):
            make_prefetcher("markov")

    def test_none_never_prefetches(self):
        p = NoPrefetcher()
        assert p.observe(4, 0x100, True) == []


class TestHierarchyPrefetch:
    def test_prefetch_starts_fill(self):
        m = MemoryHierarchy()
        assert m.prefetch(0x1000, now=0)
        assert m.prefetch_fills == 1
        # demand access mid-fill merges
        lat = m.access(0x1000, now=60)
        assert lat == 60
        assert m.thread_stats[0].delayed_hits == 1

    def test_prefetch_idempotent(self):
        m = MemoryHierarchy()
        assert m.prefetch(0x1000, now=0)
        assert not m.prefetch(0x1000, now=1)   # already in flight
        m.access(0x1000, now=500)
        assert not m.prefetch(0x1000, now=501)  # already present

    def test_prefetch_not_counted_as_demand(self):
        m = MemoryHierarchy()
        m.prefetch(0x1000, now=0)
        assert m.thread_stats[0].accesses == 0
        assert m.thread_stats[0].l1_misses == 0

    def test_timely_prefetch_becomes_hit(self):
        m = MemoryHierarchy()
        m.prefetch(0x1000, now=0)
        assert m.access(0x1000, now=400) == 1
