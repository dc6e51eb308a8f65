"""Property-based cache invariants."""

from hypothesis import Phase, given, settings, strategies as st

from repro.memory import Cache, CacheConfig

addr = st.integers(0, 1 << 20)


class StampCache:
    """Oracle: a per-way tag/timestamp/dirty LRU cache (the tag store
    this repository used before the recency-ordered one).  A way holding
    -1 is invalid; a fill takes the first invalid way, else the way with
    the smallest timestamp."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.tags = [[-1] * config.ways for _ in range(config.sets)]
        self.stamp = [[0] * config.ways for _ in range(config.sets)]
        self.dirty = [[False] * config.ways for _ in range(config.sets)]
        self.clock = 0
        self.stats = {"accesses": 0, "hits": 0, "misses": 0,
                      "evictions": 0, "writebacks": 0}

    def _where(self, addr):
        block = addr >> self.config.block_bits
        return block, block & self.config.set_mask

    def probe(self, addr, *, is_write=False, update_lru=True, count=True):
        block, s = self._where(addr)
        if count:
            self.stats["accesses"] += 1
        if block not in self.tags[s]:
            if count:
                self.stats["misses"] += 1
            return False
        way = self.tags[s].index(block)
        if count:
            self.stats["hits"] += 1
        if update_lru:
            self.clock += 1
            self.stamp[s][way] = self.clock
        if is_write:
            self.dirty[s][way] = True
        return True

    def install(self, addr, *, is_write=False):
        block, s = self._where(addr)
        tags, stamps, dirty = self.tags[s], self.stamp[s], self.dirty[s]
        self.clock += 1
        if block in tags:
            way = tags.index(block)
            stamps[way] = self.clock
            if is_write:
                dirty[way] = True
            return -1
        if -1 in tags:
            victim = tags.index(-1)
        else:
            victim = min(range(len(stamps)), key=stamps.__getitem__)
        evicted = tags[victim]
        if evicted != -1:
            self.stats["evictions"] += 1
            if dirty[victim]:
                self.stats["writebacks"] += 1
        tags[victim] = block
        stamps[victim] = self.clock
        dirty[victim] = is_write
        return evicted

    def access(self, addr, *, is_write=False):
        if self.probe(addr, is_write=is_write):
            return True
        self.install(addr, is_write=is_write)
        return False

    def contains(self, addr):
        return self.probe(addr, update_lru=False, count=False)

    def resident(self):
        """Each set's valid block ids, least recently used first."""
        return [[t for _, t in sorted(zip(stamps, tags)) if t != -1]
                for tags, stamps in zip(self.tags, self.stamp)]


#: One cache operation: (name, address, is_write, update_lru, count).
#: 10 block ids over 2 sets keep both sets under eviction pressure.
operation = st.tuples(
    st.sampled_from(["probe", "install", "contains", "access"]),
    st.builds(lambda block, offset: block * 32 + offset,
              st.integers(0, 9), st.integers(0, 31)),
    st.booleans(), st.booleans(), st.booleans())


class TestCacheProperties:
    @given(st.lists(addr, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_access_installs(self, addrs):
        """After accessing an address, it is always present."""
        c = Cache(CacheConfig("p", sets=8, ways=2, block_bytes=32))
        for a in addrs:
            c.access(a)
            assert c.contains(a)

    @given(st.lists(addr, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_stats_conservation(self, addrs):
        """hits + misses == accesses, always."""
        c = Cache(CacheConfig("p", sets=4, ways=4, block_bytes=64))
        for a in addrs:
            c.access(a)
        assert c.stats.hits + c.stats.misses == c.stats.accesses

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_lru(self, block_ids):
        """The cache agrees with a straightforward ordered-list LRU model."""
        ways = 2
        c = Cache(CacheConfig("p", sets=1, ways=ways, block_bytes=32))
        reference: list[int] = []    # most recent last
        for bid in block_ids:
            a = bid * 32
            hit = c.access(a)
            ref_hit = bid in reference
            assert hit == ref_hit
            if ref_hit:
                reference.remove(bid)
            elif len(reference) == ways:
                reference.pop(0)
            reference.append(bid)

    @given(st.lists(addr, min_size=1, max_size=100), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_recent_distinct_blocks_hit(self, addrs, ways):
        """The most recent `ways` distinct blocks of a set all hit."""
        c = Cache(CacheConfig("p", sets=1, ways=ways, block_bytes=32))
        recent: list[int] = []
        for a in addrs:
            c.access(a)
            bid = a >> 5
            if bid in recent:
                recent.remove(bid)
            recent.append(bid)
            recent = recent[-ways:]
        for bid in recent:
            assert c.contains(bid << 5)

    @given(st.lists(addr, min_size=1, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_bounded(self, addrs):
        c = Cache(CacheConfig("p", sets=4, ways=2, block_bytes=32))
        for a in addrs:
            c.access(a)
        assert all(len(blocks) <= 2 for blocks in c._sets)
        distinct = len({a >> 5 for a in addrs})
        valid = sum(map(len, c._sets))
        assert 0 < valid <= min(8, distinct)

    # No explain phase: on a failure it spends minutes varying a long
    # operation list; the shrunk example is what a reader needs.
    @given(st.integers(1, 4), st.lists(operation, min_size=20, max_size=120))
    @settings(max_examples=200, deadline=None,
              phases=[p for p in Phase if p is not Phase.explain])
    def test_matches_stamp_lru_oracle(self, ways, ops):
        """Every return value (hits, evicted block ids), the final
        counters and each set's resident blocks in recency order equal
        the timestamp cache's, over
        mixed probes (each ``update_lru``/``count``/``is_write``
        combination), installs of new and present blocks, presence
        checks and accesses."""
        config = CacheConfig("p", sets=2, ways=ways, block_bytes=32)
        cache, oracle = Cache(config), StampCache(config)
        for name, a, is_write, update_lru, count in ops:
            if name == "probe":
                kw = dict(is_write=is_write, update_lru=update_lru,
                          count=count)
            elif name == "contains":
                kw = {}
            else:
                kw = dict(is_write=is_write)
            assert getattr(cache, name)(a, **kw) == \
                getattr(oracle, name)(a, **kw), (name, a, kw)
        snap = cache.stats.snapshot()
        snap.pop("miss_rate")
        assert snap == oracle.stats
        assert cache._sets == oracle.resident()
