"""Derandomized chaos property: *any* crash+resume interleaving
converges to canonical result bytes.

Hypothesis draws an arbitrary crash plan — a sequence of (transition,
tear-the-append?) faults, each killing one daemon generation at a
different journaled edge — and the property drives real daemon
subprocesses through it: start, submit, crash, restart, resume.  After
the final clean generation the job's answer must be byte-identical to
the serial in-process reference, no matter the interleaving.

Derandomized (fixed example stream, like tests/properties) so CI is
exactly reproducible.
"""

import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import JobSpec, ServeClient, ServeError

from .conftest import (DaemonExited, DaemonProc, job_id_for, render_summary,
                       serial_summary)

SETTINGS = dict(derandomize=True, deadline=None, max_examples=5,
                print_blob=False)

SPEC = JobSpec("pointer", "baseline")

#: One drawn fault: (journal transition to strike at, torn append?).
crash_points = st.tuples(st.sampled_from(["PENDING", "RUNNING", "DONE"]),
                         st.booleans())


def _fault_clause(point) -> str:
    transition, torn = point
    kind = "torn-journal" if torn else "daemon-crash"
    return f"{kind}:at={transition}"


def _expected_exit(point) -> int:
    return 23 if point[1] else 17


@settings(**SETTINGS)
@given(plan=st.lists(crash_points, min_size=0, max_size=2))
def test_any_crash_resume_interleaving_yields_canonical_bytes(plan):
    root = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    daemons = []
    try:
        job_id = job_id_for(SPEC, root / "cache")
        for point in plan:
            d = DaemonProc(root, faults=_fault_clause(point))
            daemons.append(d)
            try:
                client = d.client()
            except DaemonExited as exc:
                # It adopted the journaled job and hit this generation's
                # fault before we connected: a finished generation.
                assert exc.code == _expected_exit(point), exc
                continue
            try:
                client.submit(SPEC)
            except (OSError, ConnectionError):
                pass                      # died mid-request: the point
            # Race the injected crash against job completion: once the
            # job is terminal with the daemon still alive, this
            # generation's fault site can no longer be reached (e.g. a
            # dedup submit journals no PENDING transition).
            code, deadline = None, time.monotonic() + 90.0
            while time.monotonic() < deadline:
                code = d.proc.poll()
                if code is not None:
                    break
                try:
                    state = ServeClient(d.sock, timeout=5.0) \
                        .status(job_id)["state"]
                    if state in ("DONE", "FAILED"):
                        break
                except (OSError, ConnectionError, ServeError):
                    pass
                time.sleep(0.05)
            if code is None:
                d.stop()
            else:
                assert code == _expected_exit(point)
        final = DaemonProc(root)
        daemons.append(final)
        client = final.client()
        try:
            client.submit(SPEC)
        except (OSError, ConnectionError):
            pass
        job_id = job_id_for(SPEC, root / "cache")
        result = client.wait_result(job_id, timeout=120.0)
        assert render_summary(result["summary"]) == \
            render_summary(serial_summary(SPEC))
    finally:
        for d in daemons:
            d.stop()
