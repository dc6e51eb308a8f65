"""Worker fleet: supervision policies applied to a continuous job stream.

Real simulations (scale 0.05, ~0.1 s each) through a real process pool,
with deterministic ``REPRO_FAULTS`` injection for the failure paths.
"""

import asyncio
import signal
import threading
import time

import pytest

from repro.harness import DiskCache, ExecutionPolicy, ExperimentRunner, \
    parallel
from repro.harness.journal import cell_key
from repro.serve import JobSpec, WorkerFleet

FAST = ExecutionPolicy(backoff=0)


class Collector:
    """Thread-safe on_done sink."""

    def __init__(self):
        self.done: dict[str, tuple] = {}
        self.elapsed: dict[str, float] = {}
        self._event = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, job_id, result, error, attempts, elapsed):
        with self._lock:
            self.done[job_id] = (result, error, attempts)
            self.elapsed[job_id] = elapsed
        self._event.set()

    def wait(self, n, timeout=90.0):
        deadline = time.monotonic() + timeout
        while len(self.done) < n:
            remaining = deadline - time.monotonic()
            assert remaining > 0, \
                f"fleet produced {len(self.done)}/{n} within {timeout}s"
            self._event.wait(remaining)
            self._event.clear()
        return dict(self.done)


@pytest.fixture
def runner(tmp_path):
    return ExperimentRunner(instruction_scale=0.05,
                            cache=DiskCache(tmp_path / "cache"))


def _ids_and_cells(runner, specs):
    out = []
    for spec in specs:
        cell = spec.cell()
        out.append((cell_key(runner, cell), cell))
    return out


def _run_fleet(runner, jobs, *, workers=2, policy=FAST, timeout=90.0):
    sink = Collector()
    fleet = WorkerFleet(runner, workers=workers, policy=policy,
                        on_done=sink)
    fleet.start()
    try:
        for job_id, cell in jobs:
            fleet.submit(job_id, cell)
        done = sink.wait(len(jobs), timeout=timeout)
    finally:
        fleet.stop()
    return fleet, done


class TestHappyPath:
    def test_jobs_complete_and_results_hit_the_cache(self, runner):
        jobs = _ids_and_cells(runner, [JobSpec("pointer", "baseline"),
                                       JobSpec("pointer", "SPEAR-128")])
        fleet, done = _run_fleet(runner, jobs)
        assert fleet.stats.ok == 2 and fleet.stats.failed == 0
        for job_id, _cell in jobs:
            result, error, _ = done[job_id]
            assert error is None
            # The fleet's workers write through the shared cache under
            # the job id itself.
            assert runner.cache.get_by_key("results", job_id) is not None

    def test_elapsed_is_execution_time_not_queue_wait(self, runner):
        # One worker runs the jobs one after another, so their execution
        # times fit inside the wall time.  Timed from submission, the
        # queued jobs' waits would count too and the sum would exceed it.
        jobs = _ids_and_cells(runner, [JobSpec("pointer", config) for config
                                       in ("baseline", "SPEAR-128",
                                           "SPEAR-256")])
        sink = Collector()
        fleet = WorkerFleet(runner, workers=1, policy=FAST, on_done=sink)
        started = time.monotonic()
        fleet.start()
        try:
            for job_id, cell in jobs:
                fleet.submit(job_id, cell)
            sink.wait(len(jobs))
        finally:
            fleet.stop()
        wall = time.monotonic() - started
        assert all(sink.elapsed[job_id] > 0 for job_id, _ in jobs)
        assert sum(sink.elapsed.values()) <= wall

    def test_traced_job_returns_payload_ref(self, runner):
        from repro.harness.parallel import PayloadRef
        from repro.harness.runner import TraceSpec
        spec = JobSpec("pointer", "baseline",
                       trace=TraceSpec(interval=500, capacity=None))
        jobs = _ids_and_cells(runner, [spec])
        _fleet, done = _run_fleet(runner, jobs)
        result, error, _ = done[jobs[0][0]]
        assert error is None
        assert isinstance(result, PayloadRef)
        assert runner.cache.get_by_key("traces", jobs[0][0]) is not None


class TestFaults:
    def test_worker_kill_rebuilds_and_completes(self, runner, monkeypatch):
        # Every job's first attempt is hard-killed; the supervisor sees
        # BrokenProcessPool, rebuilds, resubmits, and the second attempt
        # lands — without charging the retry budget.
        monkeypatch.setenv("REPRO_FAULTS", "worker-kill:times=1")
        jobs = _ids_and_cells(runner, [JobSpec("pointer", "baseline")])
        fleet, done = _run_fleet(runner, jobs,
                                 policy=ExecutionPolicy(retries=0,
                                                        backoff=0))
        result, error, _ = done[jobs[0][0]]
        assert error is None
        assert fleet.stats.pool_rebuilds >= 1
        assert fleet.stats.ok == 1

    def test_persistent_kill_degrades_to_serial(self, runner, monkeypatch):
        # Unlimited kills exhaust the rebuild budget; the fleet degrades
        # to in-process execution where the kill becomes an injected
        # exception, which the retry budget then also exhausts.
        monkeypatch.setenv("REPRO_FAULTS", "worker-kill:times=0")
        jobs = _ids_and_cells(runner, [JobSpec("pointer", "baseline")])
        fleet, done = _run_fleet(
            runner, jobs,
            policy=ExecutionPolicy(retries=1, backoff=0,
                                   max_pool_rebuilds=1))
        _result, error, _ = done[jobs[0][0]]
        assert error is not None and "worker-kill" in error
        assert fleet.stats.degraded
        assert fleet.stats.failed == 1

    def test_success_rearms_the_rebuild_budget(self, runner, monkeypatch):
        # After degradation, a success must flip the fleet back to
        # pooled mode — a long-lived server can't stay degraded forever.
        monkeypatch.setenv("REPRO_FAULTS", "worker-kill:times=0")
        bad = _ids_and_cells(runner, [JobSpec("pointer", "baseline")])
        sink = Collector()
        fleet = WorkerFleet(runner, workers=2,
                            policy=ExecutionPolicy(retries=0, backoff=0,
                                                   max_pool_rebuilds=1),
                            on_done=sink)
        fleet.start()
        try:
            fleet.submit(*bad[0])
            sink.wait(1)
            assert fleet.stats.degraded
            monkeypatch.setenv("REPRO_FAULTS", "")
            good = _ids_and_cells(runner, [JobSpec("pointer", "SPEAR-128")])
            fleet.submit(*good[0])
            done = sink.wait(2)
            assert done[good[0][0]][1] is None
            assert not fleet.stats.degraded
        finally:
            fleet.stop()

    def test_sigterm_to_a_starting_worker_stays_in_it(self, runner,
                                                      monkeypatch):
        # Tearing down a broken pool SIGTERMs every worker, including one
        # still starting.  Until its initializer detaches the daemon's
        # asyncio wakeup fd, that signal must not reach the daemon's
        # loop, where it would read as a shutdown request.
        init = parallel._init_worker

        def slow_init(*args):
            time.sleep(1.0)
            init(*args)

        monkeypatch.setattr(parallel, "_init_worker", slow_init)
        jobs = _ids_and_cells(runner, [JobSpec("pointer", "baseline")])

        async def relayed_to_loop() -> bool:
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            loop.add_signal_handler(signal.SIGTERM, stop.set)
            fleet = WorkerFleet(runner, workers=1, policy=FAST,
                                on_done=Collector())
            fleet.start()
            try:
                fleet.submit(*jobs[0])
                deadline = time.monotonic() + 30.0
                while not (fleet._pool and fleet._pool._processes):
                    assert time.monotonic() < deadline, "no worker forked"
                    await asyncio.sleep(0.01)
                for proc in list(fleet._pool._processes.values()):
                    proc.terminate()
                await asyncio.sleep(0.5)
                return stop.is_set()
            finally:
                fleet.stop()
                loop.remove_signal_handler(signal.SIGTERM)

        assert not asyncio.run(relayed_to_loop())

    def test_duplicate_submission_is_ignored(self, runner):
        jobs = _ids_and_cells(runner, [JobSpec("pointer", "baseline")])
        sink = Collector()
        fleet = WorkerFleet(runner, workers=2, policy=FAST, on_done=sink)
        fleet.start()
        try:
            fleet.submit(*jobs[0])
            fleet.submit(*jobs[0])        # same id: one tracked job
            sink.wait(1)
            time.sleep(0.3)
            assert len(sink.done) == 1
            assert fleet.stats.ok == 1
        finally:
            fleet.stop()
