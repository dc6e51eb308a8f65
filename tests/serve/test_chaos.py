"""Chaos matrix: real daemon subprocesses under injected server faults.

The service's whole claim is that crashes are invisible in the answers:
whatever combination of worker kills, daemon crashes, torn journal
appends and failed cache writes occurs, a client polling a job id
eventually reads a result *byte-identical* to the serial CLI's, computed
exactly once per distinct spec.  Each test here breaks the daemon a
different way, restarts it, and holds it to that claim.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.serve import JobSpec, ServeClient, ServeError

from .conftest import (SCALE, SRC, DaemonExited, job_id_for, render_summary,
                       serial_summary)

POINTER = JobSpec("pointer", "baseline")
SPEAR = JobSpec("pointer", "SPEAR-128")


def _await_results(root, specs, *, timeout=120.0):
    """Poll every spec's (locally computed) job id to DONE; returns
    {id: result response}."""
    client = ServeClient(str(root.path / "daemon.sock"), timeout=10.0)
    out = {}
    for spec in specs:
        job_id = job_id_for(spec, root.path / "cache")
        out[job_id] = client.wait_result(job_id, timeout=timeout)
    return out


def _submit_all(root, specs):
    """Submit every spec, tolerating a daemon that dies mid-request;
    returns the ids that were positively acknowledged."""
    acked = []
    for spec in specs:
        try:
            client = ServeClient(str(root.path / "daemon.sock"),
                                 timeout=10.0)
            resp = client.submit(spec)
            acked.append(resp["id"])
        except (OSError, ConnectionError):
            pass
    return acked


class TestFaultMatrix:
    """One fault kind × phase per test case, each asserting the same
    invariant: the surviving answer equals the serial reference."""

    @pytest.mark.parametrize("faults,expect_exit", [
        ("worker-kill:times=1", None),              # daemon survives
        ("disk-full:kind=results:times=1", None),   # daemon survives
        ("daemon-crash:at=RUNNING", 17),
        ("daemon-crash:at=DONE", 17),
        ("torn-journal:at=RUNNING", 23),
        ("torn-journal:at=DONE", 23),
    ])
    def test_fault_then_restart_yields_serial_bytes(self, chaos_root,
                                                    faults, expect_exit):
        d = chaos_root.daemon(faults=faults)
        d.client()                      # up
        _submit_all(chaos_root, [POINTER])
        if expect_exit is not None:
            # The injected crash fires on a journaled transition; the
            # daemon must hard-exit with the fault's signature code.
            assert d.wait_exit(timeout=90.0) == expect_exit
            # Restart clean over the same journal + cache.
            d2 = chaos_root.daemon()
            d2.client()
            # Re-submission after the crash is idempotent (same id).
            _submit_all(chaos_root, [POINTER])
        results = _await_results(chaos_root, [POINTER])
        job_id = job_id_for(POINTER, chaos_root.path / "cache")
        assert render_summary(results[job_id]["summary"]) == \
            render_summary(serial_summary(POINTER))

    def test_worker_kill_shows_in_fleet_stats(self, chaos_root):
        d = chaos_root.daemon(faults="worker-kill:times=1")
        client = d.client()
        _submit_all(chaos_root, [POINTER])
        _await_results(chaos_root, [POINTER])
        stats = client.stats()
        assert stats["fleet"]["pool_rebuilds"] >= 1
        assert stats["fleet"]["ok"] == 1


class TestCrashLoop:
    def test_crash_after_every_done_still_converges(self, chaos_root):
        # The daemon hard-exits after *each* DONE it journals (one per
        # process lifetime).  Every generation therefore makes at least
        # one job of progress; the driver restarts it until the whole
        # suite is DONE, then byte-compares every answer — and the
        # exactly-once property: generations' fleet runs sum to the
        # number of distinct jobs.
        specs = [POINTER, SPEAR]
        ids = {job_id_for(s, chaos_root.path / "cache"): s for s in specs}
        total_ran = 0
        d = chaos_root.daemon(faults="daemon-crash:at=DONE")
        d.client()
        _submit_all(chaos_root, specs)
        for _generation in range(6):
            code = d.wait_exit(timeout=90.0)
            assert code == 17, f"daemon exited {code}, wanted the crash"
            d = chaos_root.daemon(faults="daemon-crash:at=DONE")
            try:
                client = d.client()
            except DaemonExited as exc:
                # It adopted a journaled job, finished it and crashed
                # before we connected: a finished generation.
                assert exc.code == 17, exc
                continue
            _submit_all(chaos_root, specs)     # idempotent re-submits
            try:
                states = client.status()["ids"]
            except (OSError, ServeError):
                continue                        # crashed again already
            if all(states.get(i) == "DONE" for i in ids):
                break
        else:
            pytest.fail("crash loop did not converge in 6 generations")
        results = _await_results(chaos_root, specs)
        for job_id, spec in ids.items():
            assert render_summary(results[job_id]["summary"]) == \
                render_summary(serial_summary(spec))

    def test_sigkill_mid_run_then_restart_resumes(self, chaos_root):
        # The crudest fault: SIGKILL with jobs in flight.  No journal
        # courtesy, no graceful anything — adoption alone must recover.
        d = chaos_root.daemon()
        client = d.client()
        _submit_all(chaos_root, [POINTER, SPEAR])
        time.sleep(0.3)                # let jobs reach RUNNING
        d.kill()
        d2 = chaos_root.daemon()
        d2.client()
        results = _await_results(chaos_root, [POINTER, SPEAR])
        for spec in (POINTER, SPEAR):
            job_id = job_id_for(spec, chaos_root.path / "cache")
            assert render_summary(results[job_id]["summary"]) == \
                render_summary(serial_summary(spec))


class TestCliByteIdentity:
    def test_serve_result_matches_repro_run_bytes(self, chaos_root):
        # The full end-to-end contract, over the real CLI: `repro serve
        # result` must print byte-for-byte what `repro run` prints.
        d = chaos_root.daemon()
        d.client()
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC
        env["REPRO_CACHE_DIR"] = str(chaos_root.path / "cache")
        env.pop("REPRO_FAULTS", None)
        served = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "submit", "pointer",
             "--config", "baseline", "--wait", "--timeout", "120",
             "--address", d.sock],
            env=env, capture_output=True, text=True, timeout=180)
        assert served.returncode == 0, served.stderr
        direct = subprocess.run(
            [sys.executable, "-m", "repro", "run", "pointer",
             "--config", "baseline", "--scale", str(SCALE)],
            env=env, capture_output=True, text=True, timeout=180)
        assert direct.returncode == 0, direct.stderr
        assert served.stdout == direct.stdout


class TestGCDeterminism:
    def test_gc_protects_live_jobs_and_is_deterministic(self, chaos_root):
        d = chaos_root.daemon()
        client = d.client()
        _submit_all(chaos_root, [POINTER, SPEAR])
        _await_results(chaos_root, [POINTER, SPEAR])
        # Budget 0: everything unprotected goes; both DONE results stay.
        first = client.gc(budget=0)
        assert first["protected_kept"] >= 2
        # A second identical pass makes identical decisions (nothing
        # left to remove, same keeps) — the determinism CI step.
        second = client.gc(budget=0)
        assert second["removed"] == 0
        assert second["kept_entries"] == first["kept_entries"]
        for spec in (POINTER, SPEAR):
            job_id = job_id_for(spec, chaos_root.path / "cache")
            resp = client.result(job_id)
            assert render_summary(resp["summary"]) == \
                render_summary(serial_summary(spec))

    def test_repeated_submissions_dedup_to_one_simulation(self, chaos_root):
        d = chaos_root.daemon()
        client = d.client()
        for _ in range(4):
            _submit_all(chaos_root, [POINTER])
        _await_results(chaos_root, [POINTER])
        assert client.stats()["fleet"]["ok"] == 1
