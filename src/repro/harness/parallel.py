"""Fault-tolerant parallel experiment engine.

Every figure/table is a (workload × machine-config [× latency]) matrix of
independent cells — the same embarrassing parallelism Prophet exploits for
speculative threads, and the same fault model: a mis-speculated (crashed,
hung, failing) cell is squashed and re-executed alone, never at the cost
of the rest of the run.  This module enumerates those cells as picklable
:class:`~repro.harness.runner.Cell` descriptors and runs them under one
:class:`Supervisor`, which owns the process pool, the attempts in
flight, retry backoff, the timeout clock, pool rebuilds and in-process
degradation.  Every attempt is one
:meth:`~repro.harness.runner.ExperimentRunner.get` on the cell, in a
worker or in process.  :func:`run_cells` adds a run's cells and steps
the supervisor on the calling thread until none is outstanding, then
seeds the results into the parent
:class:`~repro.harness.runner.ExperimentRunner`'s memo **in index
order**, so figures and tables render byte-identically regardless of
job count.  With ``jobs <= 1`` or a single cell every attempt runs in
process and no pool is made.

The rules come from :class:`ExecutionPolicy`:

- every ready attempt is submitted at once (nothing caps the attempts in
  flight at the worker count);
- an attempt that raises is retried after an exponential backoff, up to
  ``retries`` extra attempts, then reported as a terminal failure;
- an attempt executing longer than ``cell_timeout`` seconds is abandoned
  (the pool is torn down to reclaim the stuck worker) and, like a failed
  attempt, retried after its backoff.  The executor reports an attempt
  still waiting in its FIFO call queue as running, so a clock starts
  only when its attempt ranks among the ``workers`` oldest running
  ones: queue wait never counts.  In process nothing can be preempted,
  and the timeout is not enforced;
- a dead worker (``BrokenProcessPool``) costs only the attempts in
  flight: the pool is rebuilt and they go back in their first-submission
  order, charging the rebuild budget rather than any retry budget;
- after ``max_pool_rebuilds`` rebuilds with no success between them,
  attempts run in process (degraded mode) until one succeeds, which
  re-arms the budget and returns to the pool.  ``RunReport.degraded``
  says a run was degraded at some point;
- with ``fail_fast`` a terminal failure raises :class:`FatalCellError`;
  otherwise (keep-going, the default) failures are collected on the
  returned :class:`RunReport` and every other cell still completes.

Attach a :class:`~repro.harness.journal.RunJournal` and every attempt is
journaled; pass ``resume=True`` and journaled-ok cells are restored from
the disk cache instead of recomputed.  Deterministic fault injection for
all of these paths lives in :mod:`repro.harness.faults`.

Workers share the parent's :class:`~repro.harness.diskcache.DiskCache`
(when one is attached), and :func:`run_cells` adds its cells leaders
first (:func:`_leaders_first`): one cell per workload, then the rest.
Each leader builds its workload's artifacts and writes them through the
cache, and the followers queued behind all the leaders load them from
there.  While workloads are at least as many as workers, each workload
is therefore built once across the workers in practice, and not at all on
a warm cache.  Nothing is gated on a leader, so a follower that starts
before its leader's artifacts are written builds them again.  That
happens when workers outnumber workloads, and in one race at the tail
of the leaders: a worker that finishes its own leader cell while
another leader is still building takes that workload's first follower.
Either costs time, never correctness.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, \
    wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..compiler.slicer import SlicerConfig
from ..core.configs import (BASELINE, BASELINE_NEXTLINE, BASELINE_STRIDE,
                            PAPER_CONFIGS, SPEAR_128, SPEAR_256, SPEAR_SF_128,
                            SPEAR_SF_256, MachineConfig)
from ..memory.hierarchy import FIG9_LATENCIES
from . import faults
from .diskcache import DiskCache
from .journal import RunJournal, cell_key
from .runner import Cell, ExperimentRunner, TraceSpec


@dataclass(frozen=True)
class PayloadRef:
    """Content-hash reference to a heavy payload spilled to the cache.

    Traced runs are orders of magnitude heavier than ``PipelineResult``s
    (they carry the retained event stream), so workers never ship them
    over the result pipe: the worker writes the payload through its
    cache view and returns this reference; the parent resolves it with
    :meth:`~repro.harness.diskcache.DiskCache.get_by_key`.  ``size`` is
    the on-disk byte count, journaled for observability.
    """

    kind: str
    key: str
    size: int | None = None

    @property
    def address(self) -> str:
        return f"{self.kind}/{self.key}"


class PayloadResolutionError(RuntimeError):
    """A spilled payload reference could not be resolved from the cache
    (evicted or corrupted between the worker's write and the parent's
    read).  Treated as a retryable cell failure — re-running the cell
    rewrites the entry."""


#: Config columns of each experiment's matrix (workload rows come from the
#: experiment's default list or the user's subset).
EXPERIMENT_CONFIGS: dict[str, list[MachineConfig]] = {
    "figure6": [BASELINE, SPEAR_128, SPEAR_256],
    "figure7": [BASELINE, SPEAR_128, SPEAR_256, SPEAR_SF_128, SPEAR_SF_256],
    "figure8": [BASELINE, SPEAR_128, SPEAR_256],
    "figure9": [BASELINE, SPEAR_128, SPEAR_256],
    "table3": [SPEAR_128, SPEAR_256],
    "motivation": [BASELINE, BASELINE_NEXTLINE, BASELINE_STRIDE, SPEAR_128],
    "compare": list(PAPER_CONFIGS.values()),
}


def default_workloads(experiment: str) -> list[str]:
    """The workload rows an experiment uses when none are requested."""
    from .experiments import (EVAL_WORKLOADS, FIG9_WORKLOADS,
                              IRREGULAR_WORKLOADS, REGULAR_WORKLOADS)
    if experiment == "figure9":
        return list(FIG9_WORKLOADS)
    if experiment == "motivation":
        return REGULAR_WORKLOADS + IRREGULAR_WORKLOADS
    return list(EVAL_WORKLOADS)


def cells_for(experiment: str,
              workloads: list[str] | None = None,
              policy: str | None = None) -> list[Cell]:
    """Enumerate the cell matrix of one experiment, workload-major (so
    chunked submission keeps one workload's artifacts in one worker)."""
    configs = EXPERIMENT_CONFIGS[experiment]
    names = workloads or default_workloads(experiment)
    if experiment == "figure9":
        return [Cell(n, c, lat, policy=policy)
                for n in names for lat in FIG9_LATENCIES for c in configs]
    return [Cell(n, c, policy=policy) for n in names for c in configs]


def report_cells(workloads: list[str], configs: list[MachineConfig],
                 spec: TraceSpec, policy: str | None = None) -> list[Cell]:
    """Enumerate the traced-cell matrix of a (suite) report: every
    workload under every config, all captured under one trace spec."""
    return [Cell(n, c, trace=spec, policy=policy)
            for n in workloads for c in configs]


def default_jobs() -> int:
    """Usable worker count: CPUs this process may actually run on (the
    affinity mask / cgroup quota), not the machine's total core count."""
    count = getattr(os, "process_cpu_count", None)
    if count is not None:             # Python >= 3.13
        return count() or 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


# -- policy / outcome types -------------------------------------------------

@dataclass(frozen=True)
class ExecutionPolicy:
    """Knobs governing the fault-tolerant cell executor."""

    #: seconds one attempt may run before being abandoned (pool mode only;
    #: the in-process serial path cannot preempt a running cell)
    cell_timeout: float | None = None
    #: extra attempts after the first, per cell
    retries: int = 2
    #: base of the exponential retry backoff, in seconds
    backoff: float = 0.25
    #: abort the whole run on the first terminal failure
    fail_fast: bool = False
    #: pool rebuilds since the last success tolerated before degrading
    #: to in-process execution
    max_pool_rebuilds: int = 2

    def backoff_for(self, attempt: int) -> float:
        """Sleep before ``attempt`` (attempt 2 = first retry)."""
        if self.backoff <= 0:
            return 0.0
        return self.backoff * (2 ** max(0, attempt - 2))


@dataclass
class CellFailure:
    """Terminal failure of one cell, after its retry budget ran out."""

    cell: Cell
    index: int
    attempts: int
    kind: str        #: ``"exception"`` or ``"timeout"``
    error: str

    def describe(self) -> str:
        lat = (f" mem={self.cell.latencies.memory}"
               if self.cell.latencies is not None else "")
        return (f"{self.cell.workload}/{self.cell.config.name}{lat}: "
                f"{self.kind} after {self.attempts} attempt(s) — {self.error}")


@dataclass
class RunReport:
    """Outcome summary of one :func:`run_cells` invocation."""

    total: int = 0          #: unique cells not already memoized
    ok: int = 0             #: cells computed successfully this run
    resumed: int = 0        #: cells restored from journal + cache
    retried: int = 0        #: ok cells that needed more than one attempt
    timeouts: int = 0       #: attempts lost to the per-cell timeout
    pool_rebuilds: int = 0
    degraded: bool = False  #: ran in process (degraded) at some point
    interrupted: bool = False  #: cut short by SIGINT/SIGTERM (clean exit)
    wall_time: float = 0.0
    failures: list[CellFailure] = field(default_factory=list)
    #: per-kind cache counters since the cache's previous run report
    cache_stats: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def completed(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {"total": self.total, "ok": self.ok, "resumed": self.resumed,
                "retried": self.retried, "timeouts": self.timeouts,
                "failed": self.failed, "pool_rebuilds": self.pool_rebuilds,
                "degraded": self.degraded, "interrupted": self.interrupted,
                "wall_time": round(self.wall_time, 3),
                "failures": [f.describe() for f in self.failures],
                "cache": self.cache_stats}

    def render(self) -> str:
        bits = [f"{self.ok} ok"]
        if self.interrupted:
            bits.append("interrupted")
        if self.resumed:
            bits.append(f"{self.resumed} resumed")
        if self.retried:
            bits.append(f"{self.retried} retried")
        bits.append(f"{self.failed} failed")
        lines = [f"run report: {self.total} cell(s) — " + ", ".join(bits)
                 + f"; wall {self.wall_time:.1f}s"]
        if self.timeouts or self.pool_rebuilds or self.degraded:
            extra = [f"timeouts {self.timeouts}",
                     f"pool rebuilds {self.pool_rebuilds}"]
            if self.degraded:
                extra.append("degraded to serial")
            lines.append("  " + ", ".join(extra))
        for failure in self.failures:
            lines.append(f"  FAILED {failure.describe()}")
        for kind, c in sorted(self.cache_stats.items()):
            lines.append(
                f"  cache[{kind}]: {c['hits']} hits, {c['misses']} misses, "
                f"{c['stores']} stores, {c['errors']} errors, "
                f"{c.get('sweeps', 0)} tmp swept")
        return "\n".join(lines)


class FatalCellError(RuntimeError):
    """Raised under ``fail_fast`` when a cell exhausts its retries."""

    def __init__(self, failure: CellFailure, report: RunReport):
        super().__init__(failure.describe())
        self.failure = failure
        self.report = report


# -- worker side -----------------------------------------------------------

_WORKER_RUNNER: ExperimentRunner | None = None


def _init_worker(slicer_config: SlicerConfig, scale: float,
                 cache_dir: str | None, policy: str | None = None) -> None:
    global _WORKER_RUNNER
    faults.mark_worker()
    # Forked workers inherit the parent's signal handlers, including
    # _graceful_term's SIGTERM-to-KeyboardInterrupt.  Tearing down a
    # stuck or broken pool terminates its workers with SIGTERM, and with
    # the inherited handler each busy one would print a KeyboardInterrupt
    # traceback on stderr.  Restore the defaults so a signal aimed at a
    # worker just ends it.
    for _sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(_sig, signal.SIG_DFL)
    # Die with the parent (Linux).  A parent killed outright (SIGKILL,
    # the OOM killer) never shuts its pool down, and its workers would
    # outlive it, blocked on a call queue nobody feeds.
    try:
        import ctypes
        PR_SET_PDEATHSIG = 1
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except Exception:
        pass
    # The parent already swept stale tmp files; workers (respawned on
    # every pool rebuild) skip the cache-tree walk.
    cache = (DiskCache(cache_dir, sweep=False)
             if cache_dir is not None else None)
    _WORKER_RUNNER = ExperimentRunner(slicer_config=slicer_config,
                                      instruction_scale=scale, cache=cache,
                                      policy=policy)


def compute_cell(runner: ExperimentRunner, cell: Cell, *,
                 spill: bool = False):
    """Execute one cell's real work on ``runner`` (no fault injection):
    :meth:`~repro.harness.runner.ExperimentRunner.get`, shared by the
    pool workers and the in-process serial path.  With ``spill`` (pool
    workers) a traced payload is exchanged for its cache
    :class:`PayloadRef` instead of riding the result pipe."""
    value = runner.get(cell)
    if spill and cell.trace is not None:
        return _spill(runner, cell, value)
    return value


def timed_cell(runner: ExperimentRunner, cell: Cell, *,
               spill: bool = False):
    """:func:`compute_cell`, returning ``(value, elapsed)``.  ``elapsed``
    times the cell's execution alone, with no queue wait or result IPC
    in it: what the run journal records."""
    t0 = time.monotonic()
    value = compute_cell(runner, cell, spill=spill)
    return value, time.monotonic() - t0


def _run_cell(cell: Cell, index: int = 0, attempt: int = 1):
    """Pool-worker entry: cell-level fault injection, then
    :func:`timed_cell`.  Returns ``(value, elapsed, cache_stats)``:
    ``cache_stats`` takes the worker cache's counters since its last
    finished attempt, so the parent's run report counts the workers'
    cache traffic too."""
    faults.inject_cell_faults(index, attempt)
    value, elapsed = timed_cell(_WORKER_RUNNER, cell, spill=True)
    cache = _WORKER_RUNNER.cache
    return value, elapsed, cache.take_stats() if cache is not None else {}


def _spill(runner: ExperimentRunner, cell: Cell, traced):
    """Exchange a heavy traced payload for its cache reference.

    ``runner.get`` already wrote the payload through the worker's cache
    view (or read it from there), so the entry exists on disk; without a
    cache there is nowhere to spill and the payload ships inline — the
    degraded but correct path.
    """
    if runner.cache is None:
        return traced
    kind, payload = runner.entry(cell)
    key = runner.cache.key_for(kind, payload)
    return PayloadRef(kind, key, runner.cache.entry_size(kind, key))


def _resolve(runner: ExperimentRunner, value):
    """Parent-side inverse of :func:`_spill`: load the payload a worker
    referenced.  Raises :class:`PayloadResolutionError` (retryable) when
    the entry vanished between the worker's write and this read."""
    if not isinstance(value, PayloadRef):
        return value
    resolved = (runner.cache.get_by_key(value.kind, value.key)
                if runner.cache is not None else None)
    if resolved is None:
        raise PayloadResolutionError(
            f"spilled payload {value.address} missing from cache")
    return resolved


# -- the supervisor --------------------------------------------------------

@dataclass
class _Job:
    """Supervisor-side bookkeeping for one outstanding cell."""

    cell: Cell
    attempts: int = 0    #: finished attempts, charged to the retry budget
    submits: int = 0     #: attempts started, incl. ones lost to a dead pool
    #: when the current attempt's timeout clock started
    started: float | None = None


class Supervisor:
    """One process pool run under :class:`ExecutionPolicy`, in steps.

    :func:`run_cells` :meth:`add`\\ s each cell once, under its index,
    and calls :meth:`step` until :attr:`outstanding` reaches zero.
    Every finished attempt is reported through
    ``on_ok(key, value, attempts, elapsed)`` or
    ``on_failed(key, kind, error, attempts, retry)``, where ``retry``
    says whether the cell goes back in after its backoff; a callback may
    raise to abort the caller's loop.

    Pool attempts run :func:`_run_cell` in a worker.  The worker's cache
    counters are added to ``runner.cache``'s, and a spilled
    :class:`PayloadRef` is loaded before ``on_ok`` sees it.  Attempts in
    process, with ``workers=0`` or in degraded mode, apply the cell
    faults and call :func:`timed_cell` on ``runner``.
    """

    def __init__(self, runner: ExperimentRunner, workers: int,
                 policy: ExecutionPolicy, *, on_ok, on_failed):
        self.runner = runner
        self.workers = workers
        self.policy = policy
        self._on_ok, self._on_failed = on_ok, on_failed
        self.pool_rebuilds = 0
        #: attempts run in process until the next success
        self.degraded = False
        self._window = 0      # rebuilds since the last success
        self._pool: ProcessPoolExecutor | None = None
        self._jobs: dict = {}             # key -> _Job, first-submission order
        self._ready: deque = deque()      # keys awaiting (re)submission
        self._backoffs: dict = {}         # key -> resubmit-not-before deadline
        self._running: dict[Future, object] = {}   # submission order

    @property
    def outstanding(self) -> int:
        """Cells added and not yet finished (ok or terminally failed)."""
        return len(self._jobs)

    def add(self, key, cell: Cell) -> None:
        """Track ``cell`` under ``key``."""
        self._jobs[key] = _Job(cell)
        self._ready.append(key)

    def step(self) -> None:
        """One round: resubmit retries whose backoff has passed, then
        either run one attempt in process or submit every ready attempt
        to the pool and harvest what finishes.  Waits until an attempt
        finishes or a deadline passes."""
        now = time.monotonic()
        for key in [k for k, t in self._backoffs.items() if t <= now]:
            del self._backoffs[key]
            self._ready.append(key)
        if self.workers <= 0 or self.degraded:
            self._step_in_process()
        else:
            self._step_pool()

    def close(self) -> None:
        """Release the pool: wait for an idle one, kill a busy one."""
        self._teardown(kill=bool(self._running))

    # -- internals ---------------------------------------------------------

    def _step_in_process(self) -> None:
        if not self._ready:
            self._sleep_to_backoff()
            return
        key = self._ready.popleft()
        job = self._jobs[key]
        job.submits += 1
        try:
            faults.inject_cell_faults(key, job.submits)
            value, elapsed = timed_cell(self.runner, job.cell)
        except Exception as exc:
            self._failed(key, "exception", _message(exc))
        else:
            self._ok(key, value, elapsed)

    def _step_pool(self) -> None:
        if self._pool is None:
            self._pool = _pool(self.runner, self.workers)
        while self._ready:
            key = self._ready[0]
            job = self._jobs[key]
            try:
                # A module-global lookup at submit time, so a wrapper
                # installed on ``_run_cell`` (the bench's) is what runs.
                fut = self._pool.submit(_run_cell, job.cell, key,
                                        job.submits + 1)
            except Exception:
                # The pool broke before this submission: rebuild without
                # charging the cell.
                self._rebuild()
                return
            self._ready.popleft()
            job.submits += 1
            job.started = None
            self._running[fut] = key
        if not self._running:
            self._sleep_to_backoff()
            return
        timeout = None
        if self.policy.cell_timeout is not None:
            timeout = max(0.01, min(0.25, self.policy.cell_timeout / 4))
        if self._backoffs:
            until = max(0.001, min(self._backoffs.values())
                        - time.monotonic())
            timeout = until if timeout is None else min(timeout, until)
        done, _ = wait(list(self._running), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        broken = False
        for fut in done:
            key = self._running.pop(fut)
            try:
                value, elapsed, cache_stats = fut.result()
                if self.runner.cache is not None:
                    self.runner.cache.add_stats(cache_stats)
                value = _resolve(self.runner, value)
            except BrokenProcessPool:
                # Collateral or culprit — indistinguishable, and neither
                # finished a real attempt: the crash charges the rebuild
                # budget, not the cell's retry budget.
                broken = True
            except Exception as exc:
                self._failed(key, "exception", _message(exc))
            else:
                self._ok(key, value, elapsed)
        if broken:
            self._rebuild()
        elif self.policy.cell_timeout is not None:
            self._expire()

    def _expire(self) -> None:
        """Start and check timeout clocks.  The executor reports an
        attempt waiting in its FIFO call queue as running too, so only
        the ``workers`` oldest running attempts are executing: a clock
        starts when its attempt first ranks among them."""
        now = time.monotonic()
        expired, executing = [], 0
        for fut, key in self._running.items():
            if executing == self.workers:
                break
            if not fut.running():
                continue
            executing += 1
            job = self._jobs[key]
            if job.started is None:
                job.started = now
            elif now - job.started > self.policy.cell_timeout:
                expired.append(fut)
        if not expired:
            return
        # Still listed as running, so a callback that raises leaves the
        # pool to be killed by close() rather than waited on.
        for fut in expired:
            self._failed(self._running[fut], "timeout",
                         f"exceeded {self.policy.cell_timeout:g}s")
        # A stuck worker can only be reclaimed by pool teardown.
        self._rebuild()

    def _ok(self, key, value, elapsed: float) -> None:
        job = self._jobs.pop(key)
        job.attempts += 1
        # A success proves the pool healthy: re-arm the rebuild budget
        # and leave degraded mode.
        self._window = 0
        self.degraded = False
        self._on_ok(key, value, job.attempts, elapsed)

    def _failed(self, key, kind: str, error: str) -> None:
        job = self._jobs[key]
        job.attempts += 1
        retry = job.attempts <= self.policy.retries
        if retry:
            self._backoffs[key] = (time.monotonic()
                                   + self.policy.backoff_for(job.attempts + 1))
        else:
            del self._jobs[key]
        self._on_failed(key, kind, error, job.attempts, retry)

    def _rebuild(self) -> None:
        """Replace a broken or stuck pool.  Every outstanding cell not
        backing off goes back in first-submission order; the incident
        charges the rebuild budget, not any retry budget."""
        self._teardown(kill=True)
        self._ready = deque(k for k in self._jobs if k not in self._backoffs)
        self.pool_rebuilds += 1
        self._window += 1
        if self._window > self.policy.max_pool_rebuilds:
            self.degraded = True

    def _teardown(self, *, kill: bool) -> None:
        if self._pool is not None:
            if kill:
                procs = getattr(self._pool, "_processes", None) or {}
                for proc in list(procs.values()):
                    try:
                        proc.terminate()
                    except Exception:
                        pass
            self._pool.shutdown(wait=not kill, cancel_futures=kill)
            self._pool = None
        self._running.clear()

    def _sleep_to_backoff(self) -> None:
        """Nothing to run until the earliest backoff deadline."""
        if self._backoffs:
            until = min(self._backoffs.values()) - time.monotonic()
            time.sleep(max(0.0, until))


def _message(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- the batch loop --------------------------------------------------------

def run_cells(runner: ExperimentRunner, cells: list[Cell],
              jobs: int | None = None, *,
              policy: ExecutionPolicy | None = None,
              journal: RunJournal | None = None,
              resume: bool = False) -> RunReport:
    """Compute ``cells`` fault-tolerantly, seeding ``runner``'s memo.

    Deterministic: cells are deduplicated preserving order and results are
    merged in that same order, and each cell's simulation is itself
    deterministic — so downstream rendering is byte-identical for any job
    count, retry history or resume split.  Returns a :class:`RunReport`;
    under ``policy.fail_fast`` a terminal cell failure raises
    :class:`FatalCellError` instead (completed cells are still merged).
    """
    policy = policy or ExecutionPolicy()
    jobs = default_jobs() if jobs is None else jobs
    started = time.monotonic()
    unique = [c for c in dict.fromkeys(cells) if not runner.has(c)]
    report = RunReport(total=len(unique))
    if journal is not None and unique:
        journal.record_start(len(unique))
    if resume and journal is not None and unique:
        unique = _restore_resumed(runner, unique, journal, report)
    results: dict[int, object] = {}

    def on_ok(i: int, value, attempts: int, elapsed: float) -> None:
        cell = unique[i]
        results[i] = value
        report.ok += 1
        if attempts > 1:
            report.retried += 1
        if journal is None:
            return
        ref = size = None
        if cell.trace is not None and runner.cache is not None:
            # Journal the spilled payload by reference only — a traced
            # payload never appears inline in the JSONL stream.
            spilled = _spill(runner, cell, value)
            ref, size = spilled.address, spilled.size
        journal.record_cell(index=i, key=cell_key(runner, cell),
                            workload=cell.workload, config=cell.config.name,
                            status="ok", attempts=attempts, elapsed=elapsed,
                            ref=ref, payload_bytes=size)

    def on_failed(i: int, kind: str, error: str, attempts: int,
                  retry: bool) -> None:
        cell = unique[i]
        if kind == "timeout":
            report.timeouts += 1
        if journal is not None:
            status = ("timed-out" if kind == "timeout" else "retried") \
                if retry else "failed"
            journal.record_cell(index=i, key=cell_key(runner, cell),
                                workload=cell.workload,
                                config=cell.config.name, status=status,
                                attempts=attempts, kind=kind, error=error)
        if retry:
            return
        failure = CellFailure(cell, i, attempts, kind, error)
        report.failures.append(failure)
        if policy.fail_fast:
            raise FatalCellError(failure, report)

    pooled = jobs > 1 and len(unique) > 1
    supervisor = Supervisor(runner, min(jobs, len(unique)) if pooled else 0,
                            policy, on_ok=on_ok, on_failed=on_failed)
    outstanding = dict(enumerate(unique))
    for i in _leaders_first(outstanding):
        supervisor.add(i, outstanding[i])
    try:
        with _graceful_term(), contextlib.closing(supervisor):
            while supervisor.outstanding:
                supervisor.step()
                report.degraded = report.degraded or supervisor.degraded
    except (KeyboardInterrupt, SystemExit):
        # Ctrl-C / SIGTERM: closing the supervisor on the way out killed
        # a busy pool, completed cells still merge below, and the
        # journal's ``end`` record says the run was interrupted — so
        # ``--resume`` picks up exactly where the interrupt landed.
        report.interrupted = True
        raise
    finally:
        report.pool_rebuilds = supervisor.pool_rebuilds
        # Merge in submission order so rendering is order-independent.
        for i, cell in enumerate(unique):
            if i in results:
                runner.seed(cell, results[i])
        report.wall_time = time.monotonic() - started
        if runner.cache is not None:
            # Only the traffic since this cache's previous report (or
            # since it was opened, so the startup tmp sweep shows in the
            # first one): a verb that runs several batches on one runner
            # reports each batch's own traffic once.
            report.cache_stats = runner.cache.take_stats()
        if journal is not None and report.total:
            journal.record_end(report.summary())
    return report


@contextlib.contextmanager
def _graceful_term():
    """Route SIGTERM through ``KeyboardInterrupt`` for the duration of a
    run, so a polite kill gets the same clean unwind as Ctrl-C: pool
    teardown, result merge, and a journaled ``interrupted`` end record.
    Outside the main thread signal handlers cannot be installed and the
    run proceeds unwrapped."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _raise(signum, frame):
        raise KeyboardInterrupt
    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):        # exotic embedding; run unwrapped
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _restore_resumed(runner: ExperimentRunner, unique: list[Cell],
                     journal: RunJournal, report: RunReport) -> list[Cell]:
    """Seed journaled-ok cells from the disk cache; return the rest.

    A journaled ``ok`` is only trusted if the cache still holds the
    payload — anything evicted (or run without a cache) is recomputed.
    Each cell restores from the cache entry ``runner.entry`` names.
    """
    done = journal.completed_keys()
    if not done:
        return unique
    remaining = []
    for cell in unique:
        restored = None
        if cell_key(runner, cell) in done and runner.cache is not None:
            restored = runner.cache.get(*runner.entry(cell))
        if restored is not None:
            runner.seed(cell, restored)
            report.resumed += 1
        else:
            remaining.append(cell)
    return remaining


def _leaders_first(outstanding: dict[int, Cell]) -> list[int]:
    """The order :func:`run_cells` submits its cells in.

    The first outstanding cell of each workload (its *leader*) comes
    first, in index order, then every other cell (the *followers*), in
    index order.  A leader builds its workload's artifacts and writes
    them through the shared disk cache; its followers are queued behind
    every leader, so they load those artifacts instead of building them
    again.  Nothing waits on a leader: a follower that starts while its
    leader is still building (once workers outnumber workloads, or when
    another worker finished its own leader cell first) builds too, as
    every cell did before.  Cells whose workloads are all distinct (fuzz
    cells) keep index order.
    """
    leaders, followers, seen = [], [], set()
    for i in sorted(outstanding):
        workload = outstanding[i].workload
        (followers if workload in seen else leaders).append(i)
        seen.add(workload)
    return leaders + followers


def _pool(runner: ExperimentRunner, workers: int) -> ProcessPoolExecutor:
    cache_dir = str(runner.cache.root) if runner.cache is not None else None
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker,
        initargs=(runner.slicer_config, runner.instruction_scale, cache_dir,
                  runner.policy))
