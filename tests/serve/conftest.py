"""Shared chaos-harness plumbing: real daemon subprocesses, serial
reference rendering, content-stable job ids."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.harness import DiskCache, ExperimentRunner
from repro.harness.journal import cell_key
from repro.serve import JobSpec, ServeClient

#: Absolute src/ root, so daemon subprocesses import the same tree no
#: matter where pytest was launched from.
SRC = str(Path(repro.__file__).resolve().parents[1])

SCALE = 0.05


class DaemonExited(RuntimeError):
    """The daemon process exited before it answered a readiness ping —
    e.g. a restart that adopted a journaled job, finished it and hit its
    injected crash before the test connected."""

    def __init__(self, code: int, output: str):
        super().__init__(f"daemon exited with code {code} before it was "
                         f"ready; output:\n{output}")
        self.code = code
        self.output = output


class DaemonProc:
    """One ``repro serve start`` daemon subprocess over a given root dir
    (cache at ``root/cache``, state at ``root/state``)."""

    def __init__(self, root: Path, *, faults: str = "", workers: int = 2,
                 extra: tuple = ()):
        self.root = Path(root)
        self.state = self.root / "state"
        self.sock = str(self.root / "daemon.sock")
        self.cache_dir = self.root / "cache"
        env = os.environ.copy()
        env["REPRO_CACHE_DIR"] = str(self.cache_dir)
        env["PYTHONPATH"] = SRC
        env.pop("REPRO_FAULTS", None)
        if faults:
            env["REPRO_FAULTS"] = faults
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "start",
             "--scale", str(SCALE), "--jobs", str(workers),
             "--state-dir", str(self.state), "--address", self.sock,
             *extra],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)

    def client(self, timeout: float = 30.0) -> ServeClient:
        """A client of this daemon once it answers a ping.  Raises
        :class:`DaemonExited` (exit code and output) as soon as the
        process has exited, instead of polling a dead socket."""
        client = ServeClient(self.sock, timeout=timeout)
        deadline = time.monotonic() + 30.0
        while True:
            code = self.proc.poll()
            if code is not None:
                raise DaemonExited(code, self.output())
            try:
                client.wait_ready(timeout=0.2)
                return client
            except TimeoutError:
                if time.monotonic() >= deadline:
                    raise

    def wait_exit(self, timeout: float = 60.0) -> int | None:
        """The daemon's exit code, or None if it outlived the timeout."""
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30.0)

    def stop(self) -> None:
        """Best-effort clean stop (used in teardown)."""
        if self.proc.poll() is None:
            try:
                ServeClient(self.sock, timeout=5.0).stop()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.kill()

    def output(self) -> str:
        """Everything the daemon printed (call once it has exited)."""
        try:
            out, _ = self.proc.communicate(timeout=10.0)
        except subprocess.TimeoutExpired:
            return "(output still open: a child process holds the pipe)"
        return out or ""


@pytest.fixture
def chaos_root(tmp_path):
    """A chaos run's root dir; tracks spawned daemons for teardown."""
    daemons: list[DaemonProc] = []

    class Root:
        path = tmp_path

        def daemon(self, **kwargs) -> DaemonProc:
            d = DaemonProc(tmp_path, **kwargs)
            daemons.append(d)
            return d

    yield Root()
    for d in daemons:
        d.stop()


def job_id_for(spec: JobSpec, cache_dir: Path) -> str:
    """The content-stable job id a daemon over ``cache_dir`` assigns to
    ``spec`` — computable client-side, which is the whole point: the id
    survives daemon crashes, restarts, even losing the submit response.
    """
    runner = ExperimentRunner(instruction_scale=SCALE,
                              cache=DiskCache(cache_dir, sweep=False))
    return cell_key(runner, spec.cell())


def serial_summary(spec: JobSpec) -> dict:
    """The ground truth: the same simulation run serially in-process
    (cache-independent — byte-equality with the daemon's answer proves
    the service layer added nothing and lost nothing)."""
    runner = ExperimentRunner(instruction_scale=SCALE)
    cell = spec.cell()
    return runner.run(cell.workload, cell.config, cell.latencies,
                      backend=cell.backend).summary()


def render_summary(summary: dict) -> str:
    """Exactly what ``repro run`` / ``repro serve result`` print."""
    return "".join(f"{key:18s} {value}\n" for key, value in summary.items())
