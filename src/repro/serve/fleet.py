"""Supervised worker fleet: the serve daemon's execution engine.

The fleet steps :class:`~repro.harness.parallel.Supervisor`, the same
process pool under the same fault rules as
:func:`~repro.harness.parallel.run_cells`.  ``run_cells`` steps it
until a run's cells are done; the fleet steps it on its own thread for
as long as the daemon runs, adding jobs as they arrive from its inbox.
Under the daemon's :class:`~repro.harness.parallel.ExecutionPolicy`:

- each job attempt runs in a pool worker sharing the daemon's
  :class:`~repro.harness.diskcache.DiskCache`;
- an attempt that raises, or that executes longer than
  ``policy.cell_timeout``, is retried after its backoff up to
  ``policy.retries`` extra attempts, then reported failed;
- a dead worker (``BrokenProcessPool`` — e.g. an injected
  ``worker-kill``) costs only the attempts in flight: the pool is
  rebuilt and they are resubmitted without charging any retry budget;
- after ``policy.max_pool_rebuilds`` rebuilds *without an intervening
  success*, jobs run in process until one succeeds (a long-lived server
  must not be permanently degraded by one bad afternoon).

What the fleet adds is the thread, the inbox, :class:`FleetStats` and
the ``on_done`` callback (the daemon bridges it onto the asyncio loop).
"""

from __future__ import annotations

import dataclasses
import queue
import signal
import threading
from dataclasses import dataclass

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
class FleetStats:
    """Monotonic counters surfaced by the ``stats`` op (``degraded``
    says whether the fleet runs jobs in process now)."""

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
        self.on_done = on_done
        self._counts = FleetStats()
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._supervisor = parallel.Supervisor(
            runner, max(1, workers), policy or ExecutionPolicy(),
            task=_fleet_run, inject=faults.inject_job_faults,
            on_ok=self._ok, on_failed=self._failed, resolve=False)

    # -- public surface ----------------------------------------------------

    @property
    def stats(self) -> FleetStats:
        """The outcome counters plus the supervisor's pool state."""
        return dataclasses.replace(
            self._counts, pool_rebuilds=self._supervisor.pool_rebuilds,
            degraded=self._supervisor.degraded)

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

    # -- supervisor thread -------------------------------------------------

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
        try:
            while self._drain_inbox():
                self._supervisor.step(poll=0.05)
        finally:
            self._supervisor.close()

    def _drain_inbox(self) -> bool:
        """Hand newly submitted jobs to the supervisor (a job id already
        there is ignored); blocks briefly when idle.  Returns False on
        the stop sentinel."""
        block = not self._supervisor.outstanding
        while True:
            try:
                item = self._inbox.get(timeout=0.05) if block \
                    else self._inbox.get_nowait()
            except queue.Empty:
                return True
            block = False
            if item is _STOP:
                return False
            self._supervisor.add(*item)

    def _ok(self, job_id: str, result, attempts: int,
            elapsed: float) -> None:
        self._counts.ok += 1
        self.on_done(job_id, result, None, attempts, elapsed)

    def _failed(self, job_id: str, kind: str, error: str, attempts: int,
                retry: bool) -> None:
        if kind == "timeout":
            self._counts.timeouts += 1
            error = f"timeout: {error}"
        if retry:
            self._counts.retries += 1
            return
        self._counts.failed += 1
        self.on_done(job_id, None, error, attempts, 0.0)
