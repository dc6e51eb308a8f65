"""Fault-tolerant parallel experiment engine.

Every figure/table is a (workload × machine-config [× latency]) matrix of
independent cells — the same embarrassing parallelism Prophet exploits for
speculative threads, and the same fault model: a mis-speculated (crashed,
hung, failing) cell is squashed and re-executed alone, never at the cost
of the rest of the run.  This module runs cells and knows no experiment:
a verb hands it picklable :class:`~repro.harness.runner.Cell`
descriptors (each experiment's matrix lives in
:mod:`repro.harness.experiments`), and one :class:`Supervisor` runs them,
owning the worker processes, the attempt each one holds, retry backoff
and the timeout clocks.  Every
attempt is one :meth:`~repro.harness.runner.ExperimentRunner.get` on
the cell, in a worker or in process.  :func:`run_cells` adds a run's
cells and steps the supervisor on the calling thread until none is
outstanding, then seeds the results into the parent
:class:`~repro.harness.runner.ExperimentRunner`'s memo **in index
order**, so figures and tables render byte-identically regardless of
job count.  With ``jobs <= 1`` or a single cell every attempt runs in
process and no worker is started.

Each worker is a process of its own with its own pipe, and holds one
attempt at a time, so every fault belongs to exactly one attempt.  The
rules come from :class:`ExecutionPolicy`:

- ready attempts go to idle workers in ready order; a worker is started
  when an attempt finds none idle and fewer than ``workers`` run;
- an attempt that raises is retried after an exponential backoff, up to
  ``retries`` extra attempts, then reported as a terminal failure;
- an attempt executing longer than ``cell_timeout`` seconds is abandoned
  (its worker alone is killed) and, like a failed attempt, retried after
  its backoff.  The clock starts when a worker takes the attempt, so
  queue wait never counts.  In process nothing can be preempted, and
  the timeout is not enforced;
- a worker that dies charges its attempt a ``"crash"`` failure, whose
  error is the worker's exit status, retried like any other, while the
  other workers keep running.  An attempt that cannot be handed out (no
  process could start, or the idle worker's pipe is gone) is charged a
  ``"crash"`` too, so retries still bound the run;
- with ``fail_fast`` a terminal failure raises :class:`FatalCellError`;
  otherwise (keep-going, the default) failures are collected on the
  returned :class:`RunReport` and every other cell still completes.

Every value, traced or not, comes back from its worker over its pipe.
Attach a :class:`~repro.harness.journal.RunJournal` and every
attempt is journaled.  A finished cell is found again only through the
disk cache that :meth:`~repro.harness.runner.ExperimentRunner.get` reads
through, so a rerun after a crash or an interrupt recomputes only the
cells that never finished.  Deterministic fault injection for all of
these paths lives in :mod:`repro.harness.faults`.

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
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from multiprocessing import connection

from ..compiler.slicer import SlicerConfig
from . import faults
from .diskcache import DiskCache
# Re-exported: bench/verbs.py enumerates its cells through this module.
from .experiments import cells_for, report_cells  # noqa: F401
from .journal import RunJournal, cell_key
from .runner import Cell, ExperimentRunner


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
    #: extra attempts after the first, per cell, crashes included
    retries: int = 2
    #: base of the exponential retry backoff, in seconds
    backoff: float = 0.25
    #: abort the whole run on the first terminal failure
    fail_fast: bool = False

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
    kind: str        #: ``"exception"``, ``"timeout"`` or ``"crash"``
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
    ok: int = 0             #: cells finished this run, computed or cached
    retried: int = 0        #: ok cells that needed more than one attempt
    timeouts: int = 0       #: attempts lost to the per-cell timeout
    crashes: int = 0        #: attempts charged a crash
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
        return {"total": self.total, "ok": self.ok,
                "retried": self.retried, "timeouts": self.timeouts,
                "failed": self.failed, "crashes": self.crashes,
                "interrupted": self.interrupted,
                "wall_time": round(self.wall_time, 3),
                "failures": [f.describe() for f in self.failures],
                "cache": self.cache_stats}

    def render(self) -> str:
        bits = [f"{self.ok} ok"]
        if self.interrupted:
            bits.append("interrupted")
        if self.retried:
            bits.append(f"{self.retried} retried")
        bits.append(f"{self.failed} failed")
        lines = [f"run report: {self.total} cell(s) — " + ", ".join(bits)
                 + f"; wall {self.wall_time:.1f}s"]
        if self.timeouts or self.crashes:
            lines.append(f"  timeouts {self.timeouts}, "
                         f"crashes {self.crashes}")
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
    # _graceful_term's SIGTERM-to-KeyboardInterrupt, with which a busy
    # worker sent SIGTERM or SIGINT would print a traceback on stderr.
    # Restore the defaults so a signal aimed at a worker just ends it.
    for _sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(_sig, signal.SIG_DFL)
    # Die with the parent (Linux).  A parent killed outright (SIGKILL,
    # the OOM killer) never closes its workers, and they would outlive
    # it, blocked on a pipe nobody feeds.
    try:
        import ctypes
        PR_SET_PDEATHSIG = 1
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except Exception:
        pass
    # The parent already swept stale tmp files; workers (one more for
    # every worker lost) skip the cache-tree walk.
    cache = (DiskCache(cache_dir, sweep=False)
             if cache_dir is not None else None)
    _WORKER_RUNNER = ExperimentRunner(slicer_config=slicer_config,
                                      instruction_scale=scale, cache=cache,
                                      policy=policy)


def timed_cell(runner: ExperimentRunner, cell: Cell):
    """``runner.get(cell)``, returning ``(value, elapsed)``.  ``elapsed``
    times the cell's execution alone, with no queue wait or result IPC
    in it: what the run journal records."""
    t0 = time.monotonic()
    value = runner.get(cell)
    return value, time.monotonic() - t0


def _run_cell(cell: Cell, index: int = 0, attempt: int = 1):
    """Worker entry: cell-level fault injection, then
    :func:`timed_cell`.  Returns ``(value, elapsed, cache_stats)``:
    ``cache_stats`` takes the worker cache's counters since its last
    finished attempt, so the parent's run report counts the workers'
    cache traffic too."""
    faults.inject_cell_faults(index, attempt)
    value, elapsed = timed_cell(_WORKER_RUNNER, cell)
    cache = _WORKER_RUNNER.cache
    return value, elapsed, cache.take_stats() if cache is not None else {}


def _serve(conn: connection.Connection, initargs: tuple) -> None:
    """A worker's life: :func:`_init_worker`, then answer each
    ``(cell, index, attempt)`` received with the pickled ``(True,
    result)`` or ``(False, error)`` until the parent closes the pipe."""
    _init_worker(*initargs)
    while True:
        try:
            cell, index, attempt = conn.recv()
        except EOFError:
            return
        try:
            # A module-global lookup per attempt, so a wrapper installed
            # on ``_run_cell`` before the fork (the bench's) is what runs.
            data = pickle.dumps((True, _run_cell(cell, index, attempt)),
                                pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, _message(exc)))
        conn.send_bytes(data)


# -- the supervisor --------------------------------------------------------

@dataclass
class _Worker:
    """A worker process, the parent's end of its pipe, and its attempt."""

    process: multiprocessing.Process
    conn: connection.Connection
    key: object = None     #: the held attempt's cell key; None when idle
    started: float = 0.0   #: when it took that attempt


class _Pool:
    """A run's worker processes, started as attempts need them, up to
    ``size`` at once, and each one killed alone."""

    def __init__(self, size: int, initargs: tuple):
        self.size, self.initargs = size, initargs
        self.workers: list[_Worker] = []

    def busy(self) -> list[_Worker]:
        return [w for w in self.workers if w.key is not None]

    def idle(self) -> _Worker | None:
        """An idle worker, started now if none is and fewer than
        ``size`` run; None while every one is busy.  Raises when a
        process cannot start."""
        for worker in self.workers:
            if worker.key is None:
                return worker
        if len(self.workers) == self.size:
            return None
        conn, child = multiprocessing.Pipe()
        process = multiprocessing.Process(target=_serve,
                                          args=(child, self.initargs),
                                          daemon=True)
        try:
            process.start()
        finally:
            child.close()
        self.workers.append(_Worker(process, conn))
        return self.workers[-1]

    def drop(self, worker: _Worker) -> str:
        """Kill, reap and forget ``worker``; returns how it ended."""
        self.workers.remove(worker)
        worker.conn.close()
        worker.process.kill()
        worker.process.join()
        code = worker.process.exitcode
        return (f"worker exit code {code}" if code >= 0
                else f"worker killed by signal {-code}")

    def close(self) -> None:
        """Kill every worker.  An idle one holds nothing: its cache
        writes finished before it sent its last result."""
        for worker in list(self.workers):
            self.drop(worker)


class Supervisor:
    """One pooled run under :class:`ExecutionPolicy`, in steps.

    :func:`run_cells` :meth:`add`\\ s each cell once, under its index,
    and calls :meth:`step` until :attr:`outstanding` reaches zero.
    Every finished attempt is reported through
    ``on_ok(key, value, attempts, elapsed)`` or
    ``on_failed(key, kind, error, attempts, retry)``, where ``retry``
    says whether the cell goes back in after its backoff; a callback may
    raise to abort the caller's loop.

    Pool attempts run :func:`_run_cell` in a worker of :func:`_pool`'s
    worker set, and the worker's cache counters are added to
    ``runner.cache``'s.  With ``workers=0`` attempts run in process:
    they apply the cell faults and call :func:`timed_cell` on
    ``runner``.
    """

    def __init__(self, runner: ExperimentRunner, workers: int,
                 policy: ExecutionPolicy, *, on_ok, on_failed):
        self.runner = runner
        self.policy = policy
        self._on_ok, self._on_failed = on_ok, on_failed
        self._pool = _pool(runner, workers) if workers > 0 else None
        self._cells: dict = {}            # key -> outstanding Cell
        self._attempts = Counter()        # key -> attempts charged so far
        self._ready: deque = deque()      # keys awaiting a worker
        self._backoffs: dict = {}         # key -> resubmit-not-before deadline

    @property
    def outstanding(self) -> int:
        """Cells added and not yet finished (ok or terminally failed)."""
        return len(self._cells)

    def add(self, key, cell: Cell) -> None:
        """Track ``cell`` under ``key``."""
        self._cells[key] = cell
        self._ready.append(key)

    def step(self) -> None:
        """One round: requeue retries whose backoff has passed, then
        either run one attempt in process or hand ready attempts to idle
        workers and take what they send back.  Waits until a worker
        answers or dies, or a backoff or timeout deadline passes."""
        now = time.monotonic()
        for key in [k for k, t in self._backoffs.items() if t <= now]:
            del self._backoffs[key]
            self._ready.append(key)
        if self._pool is None:
            self._step_in_process()
        else:
            self._step_pool()

    def close(self) -> None:
        """Kill every worker."""
        if self._pool is not None:
            self._pool.close()

    # -- internals ---------------------------------------------------------

    def _step_in_process(self) -> None:
        if not self._ready:
            self._sleep_to_backoff()
            return
        key = self._ready.popleft()
        try:
            faults.inject_cell_faults(key, self._attempts[key] + 1)
            value, elapsed = timed_cell(self.runner, self._cells[key])
        except faults.InjectedCrash as exc:
            self._failed(key, "crash", _message(exc))
        except Exception as exc:
            self._failed(key, "exception", _message(exc))
        else:
            self._ok(key, value, elapsed)

    def _step_pool(self) -> None:
        self._dispatch()
        busy = self._pool.busy()
        if not busy:
            self._sleep_to_backoff()
            return
        deadlines = list(self._backoffs.values())
        if self.policy.cell_timeout is not None:
            deadlines += [w.started + self.policy.cell_timeout
                          for w in busy]
        timeout = (max(0.0, min(deadlines) - time.monotonic())
                   if deadlines else None)
        ready = set(connection.wait(
            [w.conn for w in busy] + [w.process.sentinel for w in busy],
            timeout))
        for worker in [w for w in busy if w.conn in ready
                       or w.process.sentinel in ready]:
            self._harvest(worker)
        self._expire()

    def _dispatch(self) -> None:
        """Hand ready attempts to idle workers, in ready order."""
        while self._ready:
            try:
                worker = self._pool.idle()
            except OSError as exc:        # a fork refused, say
                self._failed(self._ready.popleft(), "crash", _message(exc))
                continue
            if worker is None:
                return
            key = self._ready.popleft()
            try:
                worker.conn.send((self._cells[key], key,
                                  self._attempts[key] + 1))
            except OSError:               # it died while idle
                self._failed(key, "crash", self._pool.drop(worker))
                continue
            worker.key, worker.started = key, time.monotonic()

    def _harvest(self, worker: _Worker) -> None:
        """Take what ``worker`` sent back, or charge its death to its
        attempt."""
        key = worker.key
        try:
            data = worker.conn.recv_bytes() if worker.conn.poll() else None
        except (EOFError, OSError):
            data = None
        if data is None:
            self._failed(key, "crash", self._pool.drop(worker))
            return
        # Feed the worker before unpickling a (traced, ~1 MB) payload.
        worker.key = None
        self._dispatch()
        ok, outcome = pickle.loads(data)
        del data
        if not ok:
            self._failed(key, "exception", outcome)
            return
        value, elapsed, cache_stats = outcome
        if self.runner.cache is not None:
            self.runner.cache.add_stats(cache_stats)
        self._ok(key, value, elapsed)

    def _expire(self) -> None:
        """Kill each worker whose attempt has run out its timeout."""
        timeout = self.policy.cell_timeout
        if timeout is None:
            return
        now = time.monotonic()
        for worker in self._pool.busy():
            if now - worker.started >= timeout:
                key = worker.key
                self._pool.drop(worker)
                self._failed(key, "timeout", f"exceeded {timeout:g}s")

    def _ok(self, key, value, elapsed: float) -> None:
        del self._cells[key]
        self._on_ok(key, value, self._attempts[key] + 1, elapsed)

    def _failed(self, key, kind: str, error: str) -> None:
        self._attempts[key] += 1
        attempts = self._attempts[key]
        retry = attempts <= self.policy.retries
        if retry:
            self._backoffs[key] = (time.monotonic()
                                   + self.policy.backoff_for(attempts + 1))
        else:
            del self._cells[key]
        self._on_failed(key, kind, error, attempts, retry)

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
              journal: RunJournal | None = None) -> RunReport:
    """Compute ``cells`` fault-tolerantly, seeding ``runner``'s memo.

    Deterministic: cells are deduplicated preserving order and results are
    merged in that same order, and each cell's simulation is itself
    deterministic — so downstream rendering is byte-identical for any job
    count, retry history or split across a crash and a rerun.  Returns a
    :class:`RunReport`; under ``policy.fail_fast`` a terminal cell
    failure raises :class:`FatalCellError` instead (completed cells are
    still merged).
    """
    policy = policy or ExecutionPolicy()
    jobs = default_jobs() if jobs is None else jobs
    started = time.monotonic()
    unique = [c for c in dict.fromkeys(cells) if not runner.has(c)]
    report = RunReport(total=len(unique))
    if journal is not None and unique:
        journal.record_start(len(unique))
    results: dict[int, object] = {}

    def on_ok(i: int, value, attempts: int, elapsed: float) -> None:
        cell = unique[i]
        results[i] = value
        report.ok += 1
        if attempts > 1:
            report.retried += 1
        if journal is not None:
            journal.record_cell(index=i, key=cell_key(runner, cell),
                                workload=cell.workload,
                                config=cell.config.name, status="ok",
                                attempts=attempts, elapsed=elapsed)

    def on_failed(i: int, kind: str, error: str, attempts: int,
                  retry: bool) -> None:
        cell = unique[i]
        if kind == "timeout":
            report.timeouts += 1
        elif kind == "crash":
            report.crashes += 1
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
    except (KeyboardInterrupt, SystemExit):
        # Ctrl-C / SIGTERM: closing the supervisor on the way out killed
        # every worker, completed cells still merge below, and the
        # journal's ``end`` record says the run was interrupted.  Every
        # finished cell is already in the cache (when one is attached),
        # so a rerun picks up exactly where the interrupt landed.
        report.interrupted = True
        raise
    finally:
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
    run, so a polite kill gets the same clean unwind as Ctrl-C: workers
    killed, results merged, and a journaled ``interrupted`` end record.
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


def _pool(runner: ExperimentRunner, workers: int) -> _Pool:
    """The run's worker set: up to ``workers`` processes, each set up by
    :func:`_init_worker` with ``runner``'s settings."""
    cache_dir = str(runner.cache.root) if runner.cache is not None else None
    return _Pool(workers, (runner.slicer_config, runner.instruction_scale,
                           cache_dir, runner.policy))
