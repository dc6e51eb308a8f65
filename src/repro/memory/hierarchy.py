"""Two-level data-memory hierarchy with in-flight fill tracking.

Reproduces the paper's Table 2 memory system: L1D (256 sets, 32 B blocks,
4-way, 1-cycle), unified L2 (1024 sets, 64 B, 4-way, 12-cycle) and DRAM
(120 cycles); all latencies are load-to-use and configurable for the
Figure 9 latency sweep.

In-flight fills matter for SPEAR: if the p-thread starts a miss at cycle T
and the main thread touches the same block at T+30 with a 120-cycle memory,
the main thread must pay the *remaining* 90 cycles — not 1, not 120.  The
hierarchy therefore records a ready-cycle per L1 block being filled and
reports such overlapping accesses as *delayed hits* (an MSHR-merge model).

Per-thread accounting distinguishes the main thread (0) from the p-thread
(1), which is what Figure 8's main-thread L1 miss reduction needs.

Timeliness attribution: every speculative fill — one initiated by a
p-thread access or by the hardware prefetcher — is classified by what the
main thread subsequently did with the block:

* **timely**    — the first main-thread touch was an L1 hit on the warmed
  block: the fill completely hid the miss latency;
* **late**      — the first main-thread touch merged into the fill while it
  was still in flight: latency was only partially hidden;
* **unused**    — the block was evicted (or the run ended) without any
  main-thread touch: wasted bandwidth, potential pollution;
* **redundant** — the speculative access found the block already present
  or already in flight: no fill was needed.

This is the per-event breakdown behind Figure 8 that the end-of-run
aggregates cannot express: the same miss-count reduction can come from
all-timely fills (real latency hiding) or mostly-late ones (marginal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cache import Cache, CacheConfig

#: Paper Table 2 geometries.
L1D_CONFIG = CacheConfig("L1D", sets=256, ways=4, block_bytes=32)
L2_CONFIG = CacheConfig("L2", sets=1024, ways=4, block_bytes=64)

#: Speculative-fill source indices (``FillStats`` lives in a pair).
PTHREAD_FILL = 0
PREFETCH_FILL = 1
FILL_SOURCES = ("pthread", "prefetch")


@dataclass(frozen=True)
class LatencyConfig:
    """Load-to-use latencies for the three places data can come from."""

    l1: int = 1
    l2: int = 12
    memory: int = 120

    def __post_init__(self) -> None:
        if not (0 < self.l1 <= self.l2 <= self.memory):
            raise ValueError(
                f"latencies must satisfy 0 < l1 <= l2 <= memory, got "
                f"{self.l1}/{self.l2}/{self.memory}")


#: The latency points of the paper's Figure 9 sweep, shortest to longest.
FIG9_LATENCIES = [LatencyConfig(1, lat_l2, lat_mem)
                  for lat_l2, lat_mem in
                  [(4, 40), (8, 80), (12, 120), (16, 160), (20, 200)]]


@dataclass
class ThreadMemStats:
    """Per-thread view of hierarchy behaviour."""

    accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0        # primary misses (block absent, fill started)
    delayed_hits: int = 0     # merged into an in-flight fill
    l2_hits: int = 0
    l2_misses: int = 0
    total_latency: int = 0

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.accesses if self.accesses else 0.0

    @property
    def avg_latency(self) -> float:
        return self.total_latency / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict:
        return {"accesses": self.accesses, "l1_hits": self.l1_hits,
                "l1_misses": self.l1_misses, "delayed_hits": self.delayed_hits,
                "l2_hits": self.l2_hits, "l2_misses": self.l2_misses,
                "l1_miss_rate": self.l1_miss_rate,
                "avg_latency": self.avg_latency}


@dataclass
class FillStats:
    """Timeliness classification of one source's speculative fills.

    ``timely + late + unused`` equals ``fills`` once every fill is
    resolved (evicted or still resident at end of run — the snapshot
    folds resident-untouched fills into ``unused``); ``redundant``
    counts the attempts that never started a fill.
    """

    fills: int = 0      # fills started (block absent and not in flight)
    redundant: int = 0  # attempts finding the block present or in flight
    timely: int = 0     # first main-thread touch hit the warmed block
    late: int = 0       # first main-thread touch merged into the fill
    unused: int = 0     # evicted without any main-thread touch

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class MemoryHierarchy:
    """L1D + unified L2 + DRAM with MSHR-style fill merging.

    ``access(addr, is_write, thread, now)`` returns the load-to-use latency
    in cycles and updates cache state.  ``now`` is the current pipeline
    cycle; pass 0 if timing is irrelevant (e.g. profiling).
    """

    __slots__ = ("l1", "l2", "latencies", "_pending", "thread_stats",
                 "prefetch_fills", "fill_stats", "_fill_owner",
                 "prefetch_l2_hits", "prefetch_l2_misses")

    def __init__(self, *, l1_config: CacheConfig = L1D_CONFIG,
                 l2_config: CacheConfig = L2_CONFIG,
                 latencies: LatencyConfig = LatencyConfig(),
                 num_threads: int = 2):
        self.l1 = Cache(l1_config)
        self.l2 = Cache(l2_config)
        self.latencies = latencies
        #: L1 block id -> cycle at which its in-flight fill completes.
        self._pending: dict[int, int] = {}
        self.thread_stats = [ThreadMemStats() for _ in range(num_threads)]
        #: fills started by a hardware prefetcher (see :meth:`prefetch`)
        self.prefetch_fills = 0
        #: timeliness accounting, indexed by PTHREAD_FILL / PREFETCH_FILL
        self.fill_stats = (FillStats(), FillStats())
        #: L1 block id -> source index of every speculative fill not yet
        #: classified; consumed by first main-thread touch or eviction.
        self._fill_owner: dict[int, int] = {}
        #: L2 traffic initiated by prefetch probes — counted apart from
        #: the demand hit/miss statistics the Figure 9 analyses consume.
        self.prefetch_l2_hits = 0
        self.prefetch_l2_misses = 0

    def warm(self, addr: int, *, is_write: bool = False) -> None:
        """Touch the hierarchy during warmup (no latency bookkeeping)."""
        if not self.l1.probe(addr, is_write=is_write, count=False):
            self.l2.access(addr, is_write=is_write)
            self.l1.install(addr, is_write=is_write)

    def finish_warmup(self) -> None:
        """Drop in-flight state and zero statistics after a warmup replay,
        keeping cache contents (the paper's 'skipped instructions')."""
        self._pending.clear()
        self.l1.stats = type(self.l1.stats)()
        self.l2.stats = type(self.l2.stats)()
        self.thread_stats = [ThreadMemStats() for _ in self.thread_stats]
        self.prefetch_fills = 0
        self.fill_stats = (FillStats(), FillStats())
        self._fill_owner.clear()
        self.prefetch_l2_hits = 0
        self.prefetch_l2_misses = 0

    def access(self, addr: int, *, is_write: bool = False, thread: int = 0,
               now: int = 0) -> int:
        """Perform one data access; returns its latency in cycles."""
        ts = self.thread_stats[thread]
        ts.accesses += 1
        lat = self.latencies
        block = self.l1.block_of(addr)

        ready = self._pending.get(block)
        if ready is not None:
            if now < ready:
                # Merge with the in-flight fill started by an earlier access
                # (possibly by the other thread): pay the remaining latency.
                ts.delayed_hits += 1
                latency = ready - now
                ts.total_latency += latency
                # Keep LRU warm; the block was already installed at fill start.
                self.l1.probe(addr, is_write=is_write, count=False)
                if thread:
                    # A p-thread access that would have started this very
                    # fill: the block is already on its way.
                    self.fill_stats[PTHREAD_FILL].redundant += 1
                else:
                    # First main-thread touch classifies the speculative
                    # fill once; the owner record is consumed by it.
                    src = self._fill_owner.pop(block, None)
                    if src is not None:
                        self.fill_stats[src].late += 1
                return latency
            del self._pending[block]

        if self.l1.probe(addr, is_write=is_write):
            ts.l1_hits += 1
            ts.total_latency += lat.l1
            if thread:
                self.fill_stats[PTHREAD_FILL].redundant += 1
            else:
                owner = self._fill_owner
                if owner:
                    src = owner.pop(block, None)
                    if src is not None:
                        self.fill_stats[src].timely += 1
            return lat.l1

        ts.l1_misses += 1
        if self.l2.access(addr, is_write=is_write):
            ts.l2_hits += 1
            latency = lat.l2
        else:
            ts.l2_misses += 1
            latency = lat.memory
        evicted = self.l1.install(addr, is_write=is_write)
        owner = self._fill_owner
        if owner and evicted >= 0:
            self._resolve_eviction(evicted)
        if thread:
            owner[block] = PTHREAD_FILL
            self.fill_stats[PTHREAD_FILL].fills += 1
        if latency > lat.l1:
            self._pending[block] = now + latency
        ts.total_latency += latency
        return latency

    def prefetch(self, addr: int, *, now: int = 0) -> bool:
        """Hardware-prefetch a block: start a fill without demand stats.

        Returns True when a fill was actually started (block absent and
        not already in flight).  Prefetch fills may evict useful lines —
        pollution is modeled, as real prefetchers suffer it.
        """
        stats = self.fill_stats[PREFETCH_FILL]
        block = self.l1.block_of(addr)
        if block in self._pending:
            stats.redundant += 1
            return False
        if self.l1.probe(addr, count=False):
            stats.redundant += 1
            return False
        # Prefetch probes must not inflate the *demand* L2 hit/miss
        # statistics (snapshots, the Figure 9 sweep read them): probe
        # uncounted, install on miss, and account the traffic apart.
        if self.l2.probe(addr, count=False):
            self.prefetch_l2_hits += 1
            latency = self.latencies.l2
        else:
            self.l2.install(addr)
            self.prefetch_l2_misses += 1
            latency = self.latencies.memory
        evicted = self.l1.install(addr)
        if self._fill_owner and evicted >= 0:
            self._resolve_eviction(evicted)
        self._fill_owner[block] = PREFETCH_FILL
        self._pending[block] = now + latency
        self.prefetch_fills += 1
        stats.fills += 1
        return True

    def _resolve_eviction(self, block: int) -> None:
        """An L1 eviction finalizes the classification of a speculative
        fill that was never touched by the main thread: unused."""
        src = self._fill_owner.pop(block, None)
        if src is not None:
            self.fill_stats[src].unused += 1

    # -- reporting -----------------------------------------------------------

    def fill_snapshot(self) -> dict:
        """Timeliness classification per source, with still-resident
        untouched fills folded into ``unused`` so the categories always
        sum to the fills started.  Non-mutating (safe to call mid-run)."""
        resident = [0, 0]
        for src in self._fill_owner.values():
            resident[src] += 1
        out = {}
        for idx, name in enumerate(FILL_SOURCES):
            s = self.fill_stats[idx]
            d = s.snapshot()
            d["unused"] += resident[idx]
            d["attempts"] = s.fills + s.redundant
            out[name] = d
        return out

    def snapshot(self) -> dict:
        return {
            "l1": self.l1.stats.snapshot(),
            "l2": self.l2.stats.snapshot(),
            "threads": [t.snapshot() for t in self.thread_stats],
            "latencies": {"l1": self.latencies.l1, "l2": self.latencies.l2,
                          "memory": self.latencies.memory},
            "prefetch_fills": self.prefetch_fills,
            "prefetch_l2_hits": self.prefetch_l2_hits,
            "prefetch_l2_misses": self.prefetch_l2_misses,
            "fills": self.fill_snapshot(),
        }
