"""The ``repro serve`` subsystem: a crash-tolerant simulation job daemon.

A long-lived process that owns the shared
:class:`~repro.harness.diskcache.DiskCache` and answers simulation
requests over a JSON-lines socket protocol:

- :mod:`~repro.serve.protocol` — the wire format, :class:`JobSpec` and
  its content-hash job identity (dedup + cache read-through for free);
- :mod:`~repro.serve.state` — the PENDING→RUNNING→DONE/FAILED state
  machine and the append-only :class:`ServerJournal` that makes every
  promise durable across crashes;
- :mod:`~repro.serve.fleet` — the worker fleet: a thread stepping the
  :class:`~repro.harness.parallel.Supervisor` that batch runs use
  (timeouts, retries, pool rebuilds, in-process degradation),
  continuously;
- :mod:`~repro.serve.server` — the asyncio daemon tying them together;
- :mod:`~repro.serve.client` — the synchronous poll-and-reconnect
  client the CLI (and tests) use.
"""

from .client import ServeClient, ServeError
from .fleet import FleetStats, WorkerFleet
from .protocol import (CONFIG_ALIASES, MAX_LINE, JobSpec, ProtocolError,
                       default_address, default_state_dir, parse_address,
                       resolve_config)
from .server import ServeServer, pick_free_port, read_server_json
from .state import (TRANSITIONS, InvalidTransitionError, JobRecord,
                    ServerJournal, check_transition)

__all__ = ["JobSpec", "ProtocolError", "CONFIG_ALIASES", "MAX_LINE",
           "resolve_config", "default_state_dir", "default_address",
           "parse_address",
           "JobRecord", "ServerJournal", "TRANSITIONS",
           "InvalidTransitionError", "check_transition",
           "WorkerFleet", "FleetStats",
           "ServeServer", "read_server_json", "pick_free_port",
           "ServeClient", "ServeError"]
