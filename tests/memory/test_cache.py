"""Set-associative cache: geometry, LRU, write-back accounting."""

import pytest

from repro.memory import L1D_CONFIG, Cache, CacheConfig


def tiny_cache(sets=4, ways=2, block=32):
    return Cache(CacheConfig("T", sets=sets, ways=ways, block_bytes=block))


class TestConfig:
    def test_capacity(self):
        # Table 2's L1D holds 32 KB: a sequential 32 KB sweep fits, and
        # one more block evicts.
        c = Cache(L1D_CONFIG)
        for a in range(0, 32 * 1024, 32):
            c.access(a)
        assert c.stats.evictions == 0
        assert all(c.contains(a) for a in range(0, 32 * 1024, 32))
        c.access(32 * 1024)
        assert c.stats.evictions == 1
        cfg = CacheConfig("L1", sets=256, ways=4, block_bytes=32)
        assert cfg.block_bits == 5
        assert cfg.set_mask == 255

    @pytest.mark.parametrize("kw", [
        dict(sets=3, ways=2, block_bytes=32),
        dict(sets=4, ways=2, block_bytes=24),
        dict(sets=4, ways=0, block_bytes=32),
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            CacheConfig("bad", **kw)


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        c = tiny_cache()
        assert not c.access(0x100)
        assert c.access(0x100)
        assert c.stats.misses == 1 and c.stats.hits == 1

    def test_same_block_hits(self):
        c = tiny_cache(block=32)
        c.access(0x100)
        assert c.access(0x11F)   # same 32B block
        assert not c.access(0x120)  # next block

    def test_different_sets_dont_conflict(self):
        c = tiny_cache(sets=4, ways=1)
        c.access(0x000)
        c.access(0x020)  # next set
        assert c.access(0x000)

    def test_miss_rate(self):
        c = tiny_cache()
        for _ in range(3):
            c.access(0x40)
        assert c.stats.miss_rate == pytest.approx(1 / 3)

    def test_contains_is_pure(self):
        c = tiny_cache()
        c.access(0x100)
        before = c.stats.accesses
        assert c.contains(0x100)
        assert not c.contains(0x999000)
        assert c.stats.accesses == before


class TestLRU:
    def test_lru_victim(self):
        c = tiny_cache(sets=1, ways=2)
        c.access(0 * 32)    # A
        c.access(1 * 32)    # B
        c.access(0 * 32)    # touch A -> B is LRU
        c.access(2 * 32)    # C evicts B
        assert c.contains(0)
        assert not c.contains(32)
        assert c.contains(64)

    def test_full_associative_cycle(self):
        c = tiny_cache(sets=1, ways=4)
        blocks = [i * 32 for i in range(4)]
        for b in blocks:
            c.access(b)
        assert all(c.contains(b) for b in blocks)
        c.access(4 * 32)
        assert not c.contains(blocks[0])      # oldest evicted
        assert all(c.contains(b) for b in blocks[1:])

    def test_eviction_count(self):
        c = tiny_cache(sets=1, ways=1)
        c.access(0)
        c.access(32)
        c.access(64)
        assert c.stats.evictions == 2

    def test_probe_updates_lru(self):
        c = tiny_cache(sets=1, ways=2)
        c.access(0)
        c.access(32)
        c.probe(0)          # refresh A
        c.install(64)
        assert c.contains(0) and not c.contains(32)

    def test_probe_can_skip_lru_update(self):
        c = tiny_cache(sets=1, ways=2)
        c.access(0)
        c.access(32)
        c.probe(0, update_lru=False, count=False)
        c.install(64)       # A is still LRU -> evicted
        assert not c.contains(0)


class TestWriteback:
    def test_dirty_eviction_counts_writeback(self):
        c = tiny_cache(sets=1, ways=1)
        c.access(0, is_write=True)
        c.access(32)
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = tiny_cache(sets=1, ways=1)
        c.access(0)
        c.access(32)
        assert c.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        c = tiny_cache(sets=1, ways=1)
        c.access(0)
        c.access(0, is_write=True)
        c.access(32)
        assert c.stats.writebacks == 1


class TestMisc:
    def test_reset(self):
        c = tiny_cache()
        c.access(0x100)
        c.reset()
        assert not c.contains(0x100)
        assert c.stats.accesses == 0

    def test_utilization(self):
        c = tiny_cache(sets=2, ways=2)
        assert c._sets == [[], []]
        c.access(0)
        assert c._sets == [[0], []]

    def test_install_existing_block_is_noop(self):
        c = tiny_cache(sets=1, ways=2)
        c.install(0)
        assert c.install(0) == -1
        assert c.stats.evictions == 0

    def test_snapshot(self):
        c = tiny_cache()
        c.access(0)
        snap = c.stats.snapshot()
        assert snap["misses"] == 1 and "miss_rate" in snap
