"""Supervised worker fleet: the serve daemon's execution engine.

A long-lived re-statement of the batch engine in
:mod:`repro.harness.parallel`, with the same fault policy
(:class:`~repro.harness.parallel.ExecutionPolicy`) applied continuously
instead of per run:

- each job attempt runs in a ``ProcessPoolExecutor`` worker sharing the
  daemon's :class:`~repro.harness.diskcache.DiskCache`;
- an attempt that raises is retried with exponential backoff up to
  ``policy.retries`` extra attempts, then reported failed;
- a dead worker (``BrokenProcessPool`` — e.g. an injected
  ``worker-kill``) costs only the in-flight attempts: the pool is
  rebuilt and they are resubmitted without charging any retry budget;
- an attempt overrunning ``policy.cell_timeout`` (measured from when it
  is observed executing) tears the pool down to reclaim the worker and
  charges the job a timeout attempt;
- after ``policy.max_pool_rebuilds`` rebuilds *without an intervening
  success*, the fleet degrades to in-process serial execution (any
  success re-arms the rebuild budget — a long-lived server must not be
  permanently degraded by one bad afternoon).

The supervisor runs on its own thread; completions are reported through
the ``on_done`` callback (the daemon bridges it onto the asyncio loop).
"""

from __future__ import annotations

import queue
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..harness import faults, parallel
from ..harness.parallel import Cell, ExecutionPolicy, timed_cell
from ..harness.runner import ExperimentRunner


def _fleet_run(cell: Cell, job_id: str, attempt: int):
    """Worker-side entry: job-level fault injection, then the shared
    timed cell dispatch (traced payloads spill to the cache, results
    write through it).  Returns ``(value, elapsed)``."""
    faults.inject_job_faults(job_id, attempt)
    return timed_cell(parallel._WORKER_RUNNER, cell, spill=True)


@dataclass
class _Tracked:
    """Supervisor-side bookkeeping for one in-fleet job."""

    cell: Cell
    attempts: int = 0    #: completed attempts charged to the retry budget
    submits: int = 0     #: submissions, incl. ones lost to dead pools
    enqueued: float = field(default_factory=time.monotonic)


@dataclass
class _InFlight:
    job_id: str
    #: set when first observed executing; the timeout clock starts here
    started: float | None = None


@dataclass
class FleetStats:
    """Monotonic counters surfaced by the ``stats`` op."""

    ok: int = 0
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False

    def snapshot(self) -> dict:
        return {"ok": self.ok, "failed": self.failed,
                "retries": self.retries, "timeouts": self.timeouts,
                "pool_rebuilds": self.pool_rebuilds,
                "degraded": self.degraded}


_STOP = object()


class WorkerFleet:
    """Continuously supervised process pool executing serve jobs.

    ``on_done(job_id, result, error, attempts, elapsed)`` is invoked on
    the supervisor thread for every terminal outcome — exactly one of
    ``result``/``error`` is set, and ``elapsed`` is the successful
    attempt's execution time (0.0 on failure).  The caller owns
    thread-safety of the callback.
    """

    def __init__(self, runner: ExperimentRunner, *, workers: int = 2,
                 policy: ExecutionPolicy | None = None, on_done):
        self.runner = runner
        self.workers = max(1, workers)
        self.policy = policy or ExecutionPolicy()
        self.on_done = on_done
        self.stats = FleetStats()
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._pool = None
        #: rebuilds since the last success (the degradation window)
        self._rebuild_window = 0

    # -- public surface ----------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self._supervise,
                                        name="repro-serve-fleet",
                                        daemon=True)
        self._thread.start()

    def submit(self, job_id: str, cell: Cell) -> None:
        self._inbox.put((job_id, cell))

    def stop(self, timeout: float | None = 30.0) -> None:
        """Stop the supervisor.  Jobs still in flight are abandoned —
        their journaled ``RUNNING`` state makes the next daemon start
        re-adopt and re-run them."""
        if self._thread is None:
            return
        self._inbox.put(_STOP)
        self._thread.join(timeout)
        self._thread = None

    @property
    def active(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- supervisor --------------------------------------------------------

    def _supervise(self) -> None:
        # Pool workers are forked from this thread and inherit its signal
        # mask.  Until a new worker's initializer detaches the daemon's
        # asyncio wakeup fd, a SIGTERM it receives (the teardown of a
        # broken pool sends one to every worker) would be relayed to the
        # daemon as its own shutdown request.  Forking with SIGINT and
        # SIGTERM blocked holds such a signal until the initializer has
        # restored the default handlers (``parallel._init_worker``).
        # Blocking them here costs the daemon nothing: the kernel then
        # delivers them to the main thread, which is where Python runs
        # signal handlers anyway.
        signal.pthread_sigmask(signal.SIG_BLOCK,
                               {signal.SIGINT, signal.SIGTERM})
        tracked: dict[str, _Tracked] = {}
        pending: dict[Future, _InFlight] = {}
        ready: list[str] = []          # awaiting (re)submission
        backoffs: dict[str, float] = {}
        try:
            while True:
                if not self._drain_inbox(tracked, ready):
                    return
                now = time.monotonic()
                for job_id in [j for j, t in backoffs.items() if t <= now]:
                    del backoffs[job_id]
                    ready.append(job_id)
                if self.stats.degraded:
                    self._run_degraded(tracked, ready, backoffs)
                    continue
                while ready and not self.stats.degraded:
                    self._submit_one(tracked, pending, ready, ready.pop(0))
                if not pending:
                    if backoffs:
                        time.sleep(min(0.05,
                                       max(0.0, min(backoffs.values())
                                           - time.monotonic())))
                    continue
                self._harvest(tracked, pending, ready, backoffs)
        finally:
            self._teardown_pool(wait_for=not pending)

    def _drain_inbox(self, tracked: dict, ready: list) -> bool:
        """Pull newly submitted jobs; blocks briefly when idle.  Returns
        False on the stop sentinel."""
        block = not tracked
        while True:
            try:
                item = self._inbox.get(timeout=0.05) if block \
                    else self._inbox.get_nowait()
            except queue.Empty:
                return True
            block = False
            if item is _STOP:
                return False
            job_id, cell = item
            if job_id not in tracked:
                tracked[job_id] = _Tracked(cell)
                ready.append(job_id)

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = parallel._pool(self.runner, self.workers)
        return self._pool

    def _teardown_pool(self, *, wait_for: bool = False) -> None:
        if self._pool is None:
            return
        if not wait_for:
            parallel._terminate(self._pool)
        self._pool.shutdown(wait=wait_for, cancel_futures=not wait_for)
        self._pool = None

    def _submit_one(self, tracked: dict, pending: dict, ready: list,
                    job_id: str) -> None:
        tr = tracked[job_id]
        tr.submits += 1
        try:
            fut = self._ensure_pool().submit(_fleet_run, tr.cell, job_id,
                                             tr.submits)
        except Exception:
            # Pool already broken at submission time: rebuild and retry
            # on the next pass without charging the job.
            ready.extend(self._rebuild(tracked, pending,
                                       extra=[job_id]))
            return
        pending[fut] = _InFlight(job_id)

    def _rebuild(self, tracked: dict, pending: dict,
                 extra: list | None = None) -> list[str]:
        """Replace a broken/stuck pool.  Returns the job ids to requeue
        (every in-flight job, oldest first) — the incident charges the
        rebuild window, not any retry budget."""
        self.stats.pool_rebuilds += 1
        self._rebuild_window += 1
        requeue = {meta.job_id for meta in pending.values()}
        requeue.update(extra or [])
        pending.clear()
        self._teardown_pool()
        if self._rebuild_window > self.policy.max_pool_rebuilds:
            self.stats.degraded = True
        return sorted((j for j in requeue if j in tracked),
                      key=lambda j: tracked[j].enqueued)

    def _harvest(self, tracked: dict, pending: dict, ready: list,
                 backoffs: dict) -> None:
        poll = 0.05
        if self.policy.cell_timeout is not None:
            poll = max(0.01, min(poll, self.policy.cell_timeout / 4))
        done, _ = wait(list(pending), timeout=poll,
                       return_when=FIRST_COMPLETED)
        broken: list[str] = []   # jobs whose futures died with the pool
        for fut in done:
            meta = pending.pop(fut)
            job_id = meta.job_id
            tr = tracked.get(job_id)
            if tr is None:
                continue
            try:
                result, elapsed = fut.result()
            except BrokenProcessPool:
                broken.append(job_id)
            except Exception as exc:
                tr.attempts += 1
                if tr.attempts <= self.policy.retries:
                    self.stats.retries += 1
                    backoffs[job_id] = (time.monotonic()
                                        + self.policy.backoff_for(
                                            tr.attempts + 1))
                else:
                    self._finish(tracked, job_id, None,
                                 f"{type(exc).__name__}: {exc}")
            else:
                tr.attempts += 1
                self._finish(tracked, job_id, result, None, elapsed)
        if broken:
            ready.extend(self._rebuild(tracked, pending, extra=broken))
            return
        self._expire_timeouts(tracked, pending, ready, backoffs)

    def _expire_timeouts(self, tracked: dict, pending: dict, ready: list,
                         backoffs: dict) -> None:
        if self.policy.cell_timeout is None:
            return
        now = time.monotonic()
        expired = []
        for fut, meta in pending.items():
            if meta.started is None:
                if fut.running():
                    meta.started = now
            elif now - meta.started > self.policy.cell_timeout:
                expired.append(meta.job_id)
        if not expired:
            return
        # A stuck worker can only be reclaimed by pool teardown; the
        # collateral in-flight jobs are resubmitted uncharged.
        for job_id in expired:
            tr = tracked.get(job_id)
            if tr is None:
                continue
            tr.attempts += 1
            self.stats.timeouts += 1
            if tr.attempts <= self.policy.retries:
                self.stats.retries += 1
                backoffs[job_id] = (time.monotonic()
                                    + self.policy.backoff_for(
                                        tr.attempts + 1))
            else:
                self._finish(tracked, job_id, None,
                             f"timeout: exceeded "
                             f"{self.policy.cell_timeout:g}s")
        ready.extend(j for j in self._rebuild(tracked, pending)
                     if j not in backoffs)

    def _run_degraded(self, tracked: dict, ready: list,
                      backoffs: dict) -> None:
        """In-process serial fallback after the rebuild budget is spent.
        Correct but slow; any success re-arms the pooled path."""
        if not ready:
            time.sleep(0.01)
            return
        job_id = ready.pop(0)
        tr = tracked[job_id]
        tr.submits += 1
        try:
            faults.inject_job_faults(job_id, tr.submits)
            result, elapsed = timed_cell(self.runner, tr.cell, spill=True)
        except Exception as exc:
            tr.attempts += 1
            if tr.attempts <= self.policy.retries:
                self.stats.retries += 1
                backoffs[job_id] = (time.monotonic()
                                    + self.policy.backoff_for(
                                        tr.attempts + 1))
            else:
                self._finish(tracked, job_id, None,
                             f"{type(exc).__name__}: {exc}")
            return
        tr.attempts += 1
        self._finish(tracked, job_id, result, None, elapsed)

    def _finish(self, tracked: dict, job_id: str, result, error,
                elapsed: float = 0.0) -> None:
        tr = tracked.pop(job_id)
        if error is None:
            self.stats.ok += 1
            # A success proves the fleet is healthy again: re-arm the
            # rebuild budget (and leave degraded mode if we were in it).
            self._rebuild_window = 0
            if self.stats.degraded:
                self.stats.degraded = False
        else:
            self.stats.failed += 1
        self.on_done(job_id, result, error, tr.attempts, elapsed)
