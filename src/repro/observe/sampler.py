"""Per-interval time series of the timing model's behaviour.

End-of-run aggregates hide phase behaviour: a workload whose IPC
collapses for 10k cycles around every pointer-chase burst averages out
to "slightly slow".  The :class:`IntervalSampler` is fed cumulative
counters by the simulator every ``interval`` cycles (plus once at the
end for the partial tail) and stores per-interval deltas: IPC, average
IFQ/RUU occupancy, SPEAR mode residency and main-thread L1 miss rate.

Alongside the global series the sampler keeps an optional *per-thread*
view — one parallel series per hardware thread (main program thread 0,
SPEAR p-thread 1) with instructions completed, issue share and L1 miss
rate per interval — so a timeline shows the p-thread's footprint
directly instead of folding it into the whole-machine numbers.

The result (``timeline()``) is a plain dict of parallel lists so it
pickles compactly into the disk cache and renders directly as a table
(``repro analyze``), sparkline or SVG (``repro report``).
"""

from __future__ import annotations

#: Human names of the hardware threads, indexed by thread id.
THREAD_NAMES = ("main", "pthread")


class IntervalSampler:
    """Collects one :class:`~repro.pipeline.stats.PipelineResult` timeline.

    The simulator calls ``take()`` with *cumulative* counters; the
    sampler differences consecutive calls, so it never reaches into
    simulator internals and stays trivially deterministic.

    >>> s = IntervalSampler(interval=100)
    >>> s.take(100, 80, 500, 1000, 40, 30, 6)
    >>> s.take(200, 240, 1500, 1800, 140, 90, 8)
    >>> [round(x["ipc"], 2) for x in s.samples]
    [0.8, 1.6]

    When the simulator also supplies per-thread cumulative counters
    (``completed``, ``issued``, ``l1_accesses``, ``l1_misses`` per
    hardware thread), the timeline gains a ``per_thread`` view:

    >>> s = IntervalSampler(interval=100)
    >>> s.take(100, 50, 0, 0, 0, 10, 1,
    ...        per_thread=((50, 60, 10, 1), (20, 20, 8, 4)))
    >>> tl = s.timeline()
    >>> [t["name"] for t in tl["per_thread"]]
    ['main', 'pthread']
    >>> tl["per_thread"][1]["samples"][0]["l1_miss_rate"]
    0.5
    """

    __slots__ = ("interval", "samples", "thread_samples", "_last",
                 "_last_threads")

    def __init__(self, interval: int = 1000):
        if interval < 1:
            raise ValueError("sampling interval must be positive")
        self.interval = interval
        #: one dict per interval, in time order (the global series)
        self.samples: list[dict] = []
        #: per-thread interval dicts: ``thread_samples[tid]`` is a list
        #: parallel to :attr:`samples`; empty until ``take`` first sees
        #: ``per_thread`` counters.
        self.thread_samples: list[list[dict]] = []
        # cumulative counters at the previous boundary
        self._last = (0, 0, 0, 0, 0, 0, 0)
        self._last_threads: tuple | None = None

    def take(self, cycle: int, committed: int, ifq_occ_sum: int,
             ruu_occ_sum: int, mode_cycles: int, l1_accesses: int,
             l1_misses: int,
             per_thread: tuple[tuple[int, int, int, int], ...] | None = None
             ) -> None:
        """Record the interval ending at ``cycle`` (cumulative inputs).

        ``per_thread`` optionally carries one ``(completed, issued,
        l1_accesses, l1_misses)`` cumulative tuple per hardware thread;
        when present the per-thread series advance in lockstep with the
        global one.
        """
        (p_cycle, p_committed, p_ifq, p_ruu, p_mode, p_acc,
         p_miss) = self._last
        cycles = cycle - p_cycle
        if cycles <= 0:
            return   # duplicate boundary (e.g. run ended exactly on one)
        d_acc = l1_accesses - p_acc
        self.samples.append({
            "cycle": cycle,
            "cycles": cycles,
            "committed": committed - p_committed,
            "ipc": (committed - p_committed) / cycles,
            "avg_ifq_occupancy": (ifq_occ_sum - p_ifq) / cycles,
            "avg_ruu_occupancy": (ruu_occ_sum - p_ruu) / cycles,
            "mode_residency": (mode_cycles - p_mode) / cycles,
            "l1_accesses": d_acc,
            "l1_misses": l1_misses - p_miss,
            "l1_miss_rate": (l1_misses - p_miss) / d_acc if d_acc else 0.0,
        })
        self._last = (cycle, committed, ifq_occ_sum, ruu_occ_sum,
                      mode_cycles, l1_accesses, l1_misses)
        if per_thread is not None:
            self._take_threads(cycle, cycles, per_thread)

    def advance_idle(self, cycle: int, to_cycle: int, committed: int,
                     ifq_occ_sum: int, ifq_per_cycle: int,
                     ruu_occ_sum: int, ruu_per_cycle: int,
                     mode_cycles: int, mode_per_cycle: int,
                     l1_accesses: int, l1_misses: int,
                     per_thread: tuple | None = None) -> None:
        """Record every interval boundary an idle jump crosses.

        The timing loop jumps over provably idle stretches: from
        ``cycle`` to ``to_cycle`` with no commits and no memory traffic,
        so only the occupancy sums and mode residency grow, linearly at
        the given per-cycle rates (their ``*_sum`` arguments are the
        cumulative values *at* ``cycle``).  Boundaries land at every
        interval multiple in ``(cycle, to_cycle]`` and are recorded
        through :meth:`take`, so the resulting samples are
        byte-identical to stepping cycle by cycle.

        >>> s = IntervalSampler(interval=100)
        >>> s.take(100, 80, 500, 1000, 40, 30, 6)
        >>> s.advance_idle(130, 350, 80, 650, 5, 1300, 10, 70, 1, 30, 6)
        >>> [(x["cycle"], x["ipc"], x["avg_ifq_occupancy"])
        ...  for x in s.samples[1:]]
        [(200, 0.0, 5.0), (300, 0.0, 5.0)]
        """
        interval = self.interval
        boundary = (cycle // interval + 1) * interval
        while boundary <= to_cycle:
            d = boundary - cycle
            self.take(boundary, committed,
                      ifq_occ_sum + d * ifq_per_cycle,
                      ruu_occ_sum + d * ruu_per_cycle,
                      mode_cycles + d * mode_per_cycle,
                      l1_accesses, l1_misses, per_thread=per_thread)
            boundary += interval

    def _take_threads(self, cycle: int, cycles: int,
                      per_thread: tuple) -> None:
        prev = self._last_threads
        if prev is None:
            prev = tuple((0, 0, 0, 0) for _ in per_thread)
            self.thread_samples = [[] for _ in per_thread]
        issued_total = sum(t[1] - p[1] for t, p in zip(per_thread, prev))
        for tid, (now, before) in enumerate(zip(per_thread, prev)):
            completed = now[0] - before[0]
            issued = now[1] - before[1]
            accesses = now[2] - before[2]
            misses = now[3] - before[3]
            self.thread_samples[tid].append({
                "cycle": cycle,
                "completed": completed,
                "ipc": completed / cycles,
                "issued": issued,
                "issue_share": issued / issued_total if issued_total else 0.0,
                "l1_accesses": accesses,
                "l1_misses": misses,
                "l1_miss_rate": misses / accesses if accesses else 0.0,
            })
        self._last_threads = per_thread

    def timeline(self) -> dict:
        """The collected series as a picklable, render-ready dict.

        Keeps the original (PR 3) schema — ``interval`` plus the global
        ``samples`` list — and adds ``per_thread`` when thread-resolved
        counters were supplied: one ``{"thread", "name", "samples"}``
        entry per hardware thread, each series parallel to the global
        one.
        """
        tl = {"interval": self.interval, "samples": list(self.samples)}
        if self.thread_samples:
            tl["per_thread"] = [
                {"thread": tid,
                 "name": (THREAD_NAMES[tid] if tid < len(THREAD_NAMES)
                          else f"thread{tid}"),
                 "samples": list(series)}
                for tid, series in enumerate(self.thread_samples)]
        return tl
