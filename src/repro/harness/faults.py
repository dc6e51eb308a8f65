"""Deterministic fault injection for the execution layer.

Set ``REPRO_FAULTS`` to a comma-separated fault spec and the harness
will inject failures at well-defined sites, so every recovery path in
:mod:`repro.harness.parallel` (retry, pool rebuild, serial degradation,
cache-corruption-as-miss) is testable in CI without real crashes.

Grammar::

    spec    := clause ("," clause)*
    clause  := kind (":" name "=" value)*
    kind    := crash | fail | delay | corrupt-cache

Parameters (all optional; a clause with neither ``cell`` nor ``p``
matches every candidate site):

``cell=N``
    Target the cell with submission index ``N``.
``p=F``
    Inject with probability ``F`` per site, decided by a seeded hash —
    the same (seed, site) always decides the same way, so runs are
    reproducible regardless of scheduling.
``times=N``
    Inject only on the first ``N`` attempts of a cell (default 1, so a
    retry succeeds; ``0`` means unlimited).
``ms=N``
    Delay duration in milliseconds (``delay`` only; default 50).
``kind=S``
    Cache namespace to corrupt (``corrupt-cache`` only; default all).
``seed=N``
    Decision seed (default 0).

Examples::

    REPRO_FAULTS=crash:cell=3                 # kill the worker running cell 3, once
    REPRO_FAULTS=fail:p=0.2:seed=7            # ~20% of first attempts raise
    REPRO_FAULTS=delay:p=0.5:ms=200           # half of all cells sleep 200ms
    REPRO_FAULTS=corrupt-cache:kind=results   # every result write is garbled

Fault kinds:

``crash``
    Hard-kills the worker process (``os._exit``), which the parent sees
    as a ``BrokenProcessPool``.  In the in-process serial path it raises
    :class:`InjectedCrash` instead (a real segfault there would take the
    whole run down; the injected analog stays recoverable).
``fail``
    Raises :class:`InjectedFault` inside the cell attempt.
``delay``
    Sleeps inside the cell attempt (drives the per-cell timeout).
``corrupt-cache``
    Garbles the bytes :class:`~repro.harness.diskcache.DiskCache.put`
    writes, exercising the corruption-is-a-miss recovery on later reads.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

#: Environment variable holding the active fault spec.
FAULTS_ENV = "REPRO_FAULTS"

_KINDS = ("crash", "fail", "delay", "corrupt-cache")

#: Set in pool workers (see ``parallel._init_worker``): decides whether a
#: ``crash`` clause hard-exits the process or raises :class:`InjectedCrash`.
_IN_WORKER = False


class FaultSpecError(ValueError):
    """Malformed ``REPRO_FAULTS`` spec."""


class InjectedFault(RuntimeError):
    """Raised by a ``fail`` clause inside a cell attempt."""


class InjectedCrash(InjectedFault):
    """In-process stand-in for a ``crash`` clause (serial path only)."""


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of the fault spec."""

    kind: str
    cell: int | None = None
    p: float | None = None
    times: int = 1
    ms: int = 50
    cache_kind: str | None = None
    seed: int = 0

    def render(self) -> str:
        bits = [self.kind]
        if self.cell is not None:
            bits.append(f"cell={self.cell}")
        if self.p is not None:
            bits.append(f"p={self.p:g}")
        if self.times != 1:
            bits.append(f"times={self.times}")
        if self.ms != 50:
            bits.append(f"ms={self.ms}")
        if self.cache_kind is not None:
            bits.append(f"kind={self.cache_kind}")
        if self.seed:
            bits.append(f"seed={self.seed}")
        return ":".join(bits)


def parse_faults(spec: str) -> tuple[FaultClause, ...]:
    """Parse a fault spec string into clauses (empty spec → no clauses)."""
    clauses = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        kind = bits[0].strip()
        if kind not in _KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} (known: {', '.join(_KINDS)})")
        kwargs: dict = {}
        for bit in bits[1:]:
            name, eq, value = bit.partition("=")
            name = name.strip()
            value = value.strip()
            if not eq or not name or not value:
                raise FaultSpecError(f"malformed parameter {bit!r} in {part!r}")
            try:
                if name == "cell":
                    kwargs["cell"] = int(value)
                elif name == "p":
                    kwargs["p"] = float(value)
                    if not 0.0 <= kwargs["p"] <= 1.0:
                        raise FaultSpecError(f"p={value} outside [0, 1]")
                elif name == "times":
                    kwargs["times"] = int(value)
                elif name == "ms":
                    kwargs["ms"] = int(value)
                elif name == "kind":
                    kwargs["cache_kind"] = value
                elif name == "seed":
                    kwargs["seed"] = int(value)
                else:
                    raise FaultSpecError(
                        f"unknown parameter {name!r} in {part!r}")
            except ValueError as exc:
                if isinstance(exc, FaultSpecError):
                    raise
                raise FaultSpecError(
                    f"bad value for {name!r} in {part!r}: {value!r}") from exc
        clauses.append(FaultClause(kind, **kwargs))
    return tuple(clauses)


def render_faults(clauses: tuple[FaultClause, ...]) -> str:
    """Inverse of :func:`parse_faults`: canonical spec string."""
    return ",".join(c.render() for c in clauses)


_PLAN_CACHE: dict[str, tuple[FaultClause, ...]] = {}


def active_faults() -> tuple[FaultClause, ...]:
    """The clauses of the current ``$REPRO_FAULTS`` value (parsed once
    per distinct value, so tests can flip the variable freely)."""
    spec = os.environ.get(FAULTS_ENV, "")
    if not spec:
        return ()
    plan = _PLAN_CACHE.get(spec)
    if plan is None:
        plan = _PLAN_CACHE[spec] = parse_faults(spec)
    return plan


def mark_worker() -> None:
    """Flag this process as a pool worker (crash clauses hard-exit)."""
    global _IN_WORKER
    _IN_WORKER = True


def _decide(seed: int, label: str, ident: str, p: float) -> bool:
    """Seeded, order-independent probability decision: the same
    (seed, label, ident) always lands the same side of ``p``."""
    digest = hashlib.sha256(f"{seed}|{label}|{ident}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64 < p


def _matches(clause: FaultClause, index: int, attempt: int) -> bool:
    if clause.times and attempt > clause.times:
        return False
    if clause.cell is not None:
        return index == clause.cell
    if clause.p is not None:
        return _decide(clause.seed, clause.kind, f"cell:{index}:{attempt}",
                       clause.p)
    return True


#: Clause kinds applied at the cell-attempt site (``corrupt-cache`` has
#: its own, in :meth:`~repro.harness.diskcache.DiskCache.put`).
_CELL_KINDS = frozenset(("crash", "fail", "delay"))


def inject_cell_faults(index: int, attempt: int) -> None:
    """Apply matching cell-site clauses; called once per cell attempt,
    before the attempt's real work."""
    for clause in active_faults():
        if clause.kind not in _CELL_KINDS or not _matches(clause, index,
                                                          attempt):
            continue
        if clause.kind == "delay":
            time.sleep(clause.ms / 1000.0)
        elif clause.kind == "fail":
            raise InjectedFault(
                f"injected fault at cell {index} attempt {attempt}")
        elif clause.kind == "crash":
            if _IN_WORKER:
                os._exit(13)
            raise InjectedCrash(
                f"injected crash at cell {index} attempt {attempt}")


def corrupt_cache_bytes(kind: str, key: str, data: bytes) -> bytes:
    """Possibly garble a cache entry about to be written (no-op unless a
    matching ``corrupt-cache`` clause is active).  Decisions are keyed on
    the entry key, so a given entry is corrupted consistently."""
    for clause in active_faults():
        if clause.kind != "corrupt-cache":
            continue
        if clause.cache_kind is not None and clause.cache_kind != kind:
            continue
        p = 1.0 if clause.p is None else clause.p
        if _decide(clause.seed, "corrupt-cache", key, p):
            return data[: len(data) // 2] + b"\x00injected-corruption"
    return data
