"""Persistent artifact cache under ``~/.cache/repro``.

Stores the three expensive products of the evaluation pipeline —
compiled :class:`~repro.core.spear_binary.SpearBinary` bundles (inside
:class:`~repro.harness.runner.WorkloadArtifacts`), functional traces and
:class:`~repro.pipeline.stats.PipelineResult`\\ s — so a rerun of any
figure or table pays nothing for work an earlier run already did, even
across processes (the parallel engine's workers share this cache).

Entries are keyed by a content hash over everything that determines the
value: workload name, instruction scale, slicer configuration, machine
configuration and a cache schema version.  Changing any input (or bumping
:data:`SCHEMA_VERSION` when the simulator's behaviour changes) therefore
invalidates cleanly — stale entries are simply never looked up again.

Robustness: entries are written atomically (tempfile + ``os.replace``) and
any unreadable entry — truncated, corrupt, wrong pickle version — is
treated as a miss and deleted, never an error.  ``*.tmp`` files a killed
writer left behind are swept at startup once they are older than
:attr:`DiskCache.TMP_MAX_AGE` (younger ones may belong to a live writer).
The sweep walks the whole cache tree, so only the parent process runs it
— pool workers construct their cache view with ``sweep=False``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .faults import corrupt_cache_bytes

#: Bump whenever a change to the compiler, functional simulator or timing
#: model alters what cached artifacts/results would contain.
#: 2: PipelineResult gained ``timeline``, PipelineStats ``decode_pe_busy``,
#: memory snapshots the ``fills`` timeliness section.
SCHEMA_VERSION = 2

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def parse_bytes(text: str) -> int:
    """Parse a human byte budget: ``"500"``, ``"64K"``, ``"1.5M"``,
    ``"2G"`` (powers of 1024, case-insensitive, optional ``B``)."""
    s = text.strip().upper().removesuffix("B")
    scale = 1
    for suffix, factor in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if s.endswith(suffix):
            s = s[: -1]
            scale = factor
            break
    try:
        value = float(s) * scale
    except ValueError:
        raise ValueError(f"unparseable byte budget {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite byte budget {text!r}")
    if value < 0:
        raise ValueError(f"negative byte budget {text!r}")
    return int(value)


def content_key(payload: dict) -> str:
    """Stable hex digest of a JSON-serializable key payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheCounters:
    """Per-kind accounting, surfaced by the run report's ``cache[...]``
    lines."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0     # corrupt/unreadable entries recovered as misses
    sweeps: int = 0     # stale *.tmp files removed at startup
    evictions: int = 0  # entries removed by the LRU byte-budget GC

    def snapshot(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "errors": self.errors,
                "sweeps": self.sweeps, "evictions": self.evictions}


class DiskCache:
    """Content-addressed pickle store with per-kind hit/miss counters.

    ``kind`` namespaces the store (``"artifacts"``, ``"results"``,
    ``"traces"``) so the same key payload can back different value types.
    """

    #: Seconds a ``*.tmp`` file must be old before the startup sweep
    #: removes it — a younger one may belong to a live concurrent writer.
    TMP_MAX_AGE = 3600.0

    __slots__ = ("root", "schema_version", "counters", "tmp_max_age")

    def __init__(self, root: str | Path | None = None, *,
                 schema_version: int = SCHEMA_VERSION,
                 tmp_max_age: float | None = None, sweep: bool = True):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.schema_version = schema_version
        self.counters: dict[str, CacheCounters] = {}
        self.tmp_max_age = (self.TMP_MAX_AGE if tmp_max_age is None
                            else tmp_max_age)
        if sweep:
            self._sweep_stale_tmp()

    # -- key/path plumbing -------------------------------------------------

    def _counter(self, kind: str) -> CacheCounters:
        c = self.counters.get(kind)
        if c is None:
            c = self.counters[kind] = CacheCounters()
        return c

    def key_for(self, kind: str, payload: dict) -> str:
        return content_key({"schema": self.schema_version,
                            "kind": kind, **payload})

    def path_for(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def _sweep_stale_tmp(self) -> None:
        """Remove ``*.tmp`` files a killed writer left behind.  Atomic
        writes rename their tempfile away on success, so anything old
        enough to be past ``tmp_max_age`` is an orphan."""
        if not self.root.is_dir():
            return
        cutoff = time.time() - self.tmp_max_age
        for tmp in self.root.rglob("*.tmp"):
            try:
                if tmp.stat().st_mtime > cutoff:
                    continue
                tmp.unlink()
            except OSError:
                continue
            parts = tmp.relative_to(self.root).parts
            kind = parts[0] if len(parts) > 1 else "(root)"
            self._counter(kind).sweeps += 1

    # -- operations --------------------------------------------------------

    def get(self, kind: str, payload: dict):
        """Load the cached value, or ``None`` on miss.

        A corrupt or truncated entry is removed and reported as a miss —
        the caller rebuilds and overwrites it.
        """
        return self._load(kind, self.path_for(kind, self.key_for(kind,
                                                                 payload)))

    def get_by_key(self, kind: str, key: str):
        """Load an entry addressed directly by its content key.

        The parallel engine's spill/reference protocol lands here: a
        worker ships only ``(kind, key)`` over IPC and the parent
        resolves the heavy payload from disk.  Same miss semantics as
        :meth:`get` — corrupt entries are deleted and report ``None``.
        """
        return self._load(kind, self.path_for(kind, key))

    def _load(self, kind: str, path: Path):
        """Shared read path of :meth:`get`/:meth:`get_by_key`.

        Two distinct miss flavours: an entry that *vanished* between the
        existence check and the open (a concurrent GC eviction or a
        ``clear()``) is an ordinary miss — every reader must treat that
        race as absence, never corruption; an entry that opened but
        would not unpickle is corrupt, counted as an error and deleted.
        """
        counter = self._counter(kind)
        if not path.is_file():
            counter.misses += 1
            return None
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            # Evicted between is_file() and open(): a plain miss.
            counter.misses += 1
            return None
        except Exception:
            counter.errors += 1
            counter.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        counter.hits += 1
        return value

    def entry_size(self, kind: str, key: str) -> int | None:
        """On-disk size in bytes of one entry, or ``None`` if absent.

        ``OSError`` (including a ``FileNotFoundError`` racing a
        concurrent eviction) reports as absence, mirroring the
        miss-not-error contract of :meth:`_load` — lets the journal
        record how heavy a spilled payload is without ever inlining it.
        """
        try:
            return self.path_for(kind, key).stat().st_size
        except OSError:
            return None

    def put(self, kind: str, payload: dict, value) -> None:
        """Store atomically; concurrent writers of the same key are safe
        (last ``os.replace`` wins with identical content)."""
        key = self.key_for(kind, payload)
        path = self.path_for(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        # A no-op unless the matching fault is injected ($REPRO_FAULTS).
        data = corrupt_cache_bytes(kind, key, data)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._counter(kind).stores += 1

    # -- lifecycle: size accounting + GC -----------------------------------

    def iter_entries(self):
        """Yield ``(kind, key, size_bytes, mtime)`` for every entry on
        disk.  An entry that vanishes mid-walk (concurrent eviction) is
        simply not yielded — the same race-is-absence contract as the
        readers."""
        if not self.root.is_dir():
            return
        for path in self.root.rglob("*.pkl"):
            parts = path.relative_to(self.root).parts
            if len(parts) < 2:
                continue
            try:
                st = path.stat()
            except OSError:
                continue
            yield parts[0], path.stem, st.st_size, st.st_mtime

    def size_stats(self) -> dict:
        """Per-kind on-disk accounting: ``{kind: {entries, bytes}}``
        plus a ``total`` row — what ``repro cache stats`` prints and
        what the GC budget is measured against."""
        kinds: dict[str, dict] = {}
        total_entries = total_bytes = 0
        for kind, _key, size, _mtime in self.iter_entries():
            row = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
            row["entries"] += 1
            row["bytes"] += size
            total_entries += 1
            total_bytes += size
        out = {kind: kinds[kind] for kind in sorted(kinds)}
        out["total"] = {"entries": total_entries, "bytes": total_bytes}
        return out

    def gc(self, budget_bytes: int) -> dict:
        """Evict least-recently-used entries until the cache fits
        ``budget_bytes`` (what ``repro cache gc`` runs).

        Eviction order is oldest mtime first (ties broken by address,
        so two GC passes over the same tree make identical decisions).
        Returns an accounting report.
        """
        entries = sorted(self.iter_entries(),
                         key=lambda e: (e[3], e[0], e[1]))
        total = sum(e[2] for e in entries)
        report = {"budget": budget_bytes, "examined": len(entries),
                  "removed": 0, "freed_bytes": 0,
                  "kept_entries": 0, "kept_bytes": 0}
        excess = total - budget_bytes
        for kind, key, size, _mtime in entries:
            if excess <= 0:
                break
            try:
                self.path_for(kind, key).unlink()
            except OSError:
                continue   # already evicted by a concurrent pass
            self._counter(kind).evictions += 1
            report["removed"] += 1
            report["freed_bytes"] += size
            excess -= size
        report["kept_entries"] = report["examined"] - report["removed"]
        report["kept_bytes"] = total - report["freed_bytes"]
        return report

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        return {kind: c.snapshot() for kind, c in sorted(self.counters.items())}

    def take_stats(self) -> dict:
        """:meth:`stats`, then reset every counter to zero."""
        stats = self.stats()
        self.counters.clear()
        return stats

    def add_stats(self, stats: dict) -> None:
        """Add another view's :meth:`stats` (a pool worker's) to these
        counters."""
        for kind, counts in stats.items():
            counter = self._counter(kind)
            for name, n in counts.items():
                setattr(counter, name, getattr(counter, name) + n)

    def clear(self) -> int:
        """Delete every entry under the cache root; returns files removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for pattern in ("*.pkl", "*.tmp"):
            removed += self._unlink_all(pattern)
        return removed

    def _unlink_all(self, pattern: str) -> int:
        removed = 0
        for path in self.root.rglob(pattern):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
