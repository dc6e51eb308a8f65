"""Set-associative cache with true-LRU replacement.

Models one level of the paper's hierarchy (Table 2: L1D = 256 sets x 32 B
blocks x 4-way; unified L2 = 1024 sets x 64 B x 4-way; both LRU).

The cache stores only tags — this repository's timing model never needs
cached *data* (values come from the oracle trace), so a tag store is exact
for hit/miss behaviour while staying fast.
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_pow2(v: int) -> bool:
    return v > 0 and (v & (v - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    sets: int
    ways: int
    block_bytes: int

    def __post_init__(self) -> None:
        if not _is_pow2(self.sets):
            raise ValueError(f"{self.name}: sets must be a power of two")
        if not _is_pow2(self.block_bytes):
            raise ValueError(f"{self.name}: block size must be a power of two")
        if self.ways < 1:
            raise ValueError(f"{self.name}: ways must be >= 1")

    @property
    def block_bits(self) -> int:
        return self.block_bytes.bit_length() - 1

    @property
    def set_mask(self) -> int:
        return self.sets - 1


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict:
        return {"accesses": self.accesses, "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "writebacks": self.writebacks, "miss_rate": self.miss_rate}


class Cache:
    """One cache level.

    ``probe``/``install`` are split so the hierarchy can model non-inclusive
    fills; ``access`` is the common probe-then-fill path.

    Each set is a list of the block ids it holds in recency order, least
    recent first, so a hit moves its block to the end and a full set
    evicts index 0.  The 4-way sets of Table 2 make ``in`` and
    ``list.remove`` C-level scans of at most four items, and a miss
    raises nothing.  The dirty blocks of every set share one Python
    ``set``: a block id is unique across the cache.
    """

    __slots__ = ("config", "_block_bits", "_set_mask", "_ways", "_sets",
                 "_dirty", "stats")

    def __init__(self, config: CacheConfig):
        self.config = config
        self._block_bits = config.block_bits
        self._set_mask = config.set_mask
        self._ways = config.ways
        self.reset()

    def block_of(self, addr: int) -> int:
        """Global block id for an address."""
        return addr >> self._block_bits

    def reset(self) -> None:
        self._sets: list[list[int]] = [[] for _ in range(self.config.sets)]
        self._dirty: set[int] = set()
        self.stats = CacheStats()

    # -- core operations -----------------------------------------------------

    def probe(self, addr: int, *, is_write: bool = False,
              update_lru: bool = True, count: bool = True) -> bool:
        """Check for presence; touches LRU on hit.  Returns hit/miss."""
        block = addr >> self._block_bits
        blocks = self._sets[block & self._set_mask]
        if block not in blocks:
            if count:
                stats = self.stats
                stats.accesses += 1
                stats.misses += 1
            return False
        if count:
            stats = self.stats
            stats.accesses += 1
            stats.hits += 1
        if update_lru and blocks[-1] != block:
            blocks.remove(block)
            blocks.append(block)
        if is_write:
            self._dirty.add(block)
        return True

    def install(self, addr: int, *, is_write: bool = False) -> int:
        """Fill the block, evicting LRU if needed.

        Returns the evicted block id, or -1 when the set had room.
        """
        block = addr >> self._block_bits
        blocks = self._sets[block & self._set_mask]
        if block in blocks:  # already present (racing install)
            if blocks[-1] != block:
                blocks.remove(block)
                blocks.append(block)
            if is_write:
                self._dirty.add(block)
            return -1
        evicted = -1
        if len(blocks) >= self._ways:
            evicted = blocks.pop(0)
            stats = self.stats
            stats.evictions += 1
            dirty = self._dirty
            if evicted in dirty:
                dirty.remove(evicted)
                stats.writebacks += 1
        blocks.append(block)
        if is_write:
            self._dirty.add(block)
        return evicted

    def access(self, addr: int, *, is_write: bool = False) -> bool:
        """Probe and fill on miss.  Returns True on hit."""
        if self.probe(addr, is_write=is_write):
            return True
        self.install(addr, is_write=is_write)
        return False

    def contains(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no stats)."""
        block = addr >> self._block_bits
        return block in self._sets[block & self._set_mask]
