"""Append-only JSONL run journal: what happened to every cell of a run.

Each ``repro figure``/``table``/``compare`` invocation journals the
outcome of every cell attempt (ok / retried / timed-out / failed) to
``<cache-dir>/journal/<run-key>.jsonl``.  The run key is a content hash
over the experiment name and the cells' result keys — the same
derivation :class:`~repro.harness.diskcache.DiskCache` uses — so the
same invocation always appends to the same file, and a rerun after a
crash appends its attempts after the crashed run's.  The journal is a
record for ``repro journal show``; a rerun finds the cells that finished
in the disk cache, not here.

The journal is crash-safe by construction: records are single lines
appended with a flush per record, and a torn final line (killed writer)
is simply skipped on read.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

from .diskcache import SCHEMA_VERSION, content_key, default_cache_dir


class TornJournalWarning(RuntimeWarning):
    """A journal line could not be decoded (crash mid-append) and was
    skipped.  Only ever data loss for the record being written when the
    writer died — every earlier record is intact by construction."""


def read_jsonl(path: Path, *, label: str | None = None) -> list[dict]:
    """Every intact JSONL record of ``path``, oldest first.

    The crash-safety contract of every journal in the system: records
    are appended line-at-a-time with a flush, so the only malformed
    line a crash can produce is a truncated final one.  Such a line is
    skipped with a :class:`TornJournalWarning` instead of raising, so a
    reader never fails over the torn tail of a killed writer.
    """
    if not path.is_file():
        return []
    out = []
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            warnings.warn(
                f"{label or path.name}: skipping torn journal line "
                f"{lineno} ({len(line)} bytes)", TornJournalWarning,
                stacklevel=2)
            continue
        if not isinstance(record, dict):
            warnings.warn(
                f"{label or path.name}: skipping non-record journal line "
                f"{lineno}", TornJournalWarning, stacklevel=2)
            continue
        out.append(record)
    return out


def default_journal_dir() -> Path:
    """Journals live next to the cache: ``<cache-dir>/journal``."""
    return default_cache_dir() / "journal"


def cell_key(runner, cell) -> str:
    """Stable identity of one cell's result — exactly the key the
    runner's cache stores it under
    (:meth:`~repro.harness.runner.ExperimentRunner.entry`), so a
    journaled ``ok`` names the cache entry that holds its value
    (honoring a cache built with a non-default ``schema_version``).  The
    journal stores only this key, never the value itself.  Without a
    cache, falls back to the same derivation at the global
    :data:`SCHEMA_VERSION`."""
    kind, payload = runner.entry(cell)
    if runner.cache is not None:
        return runner.cache.key_for(kind, payload)
    return content_key({"schema": SCHEMA_VERSION, "kind": kind, **payload})


def run_key(experiment: str, cells, runner) -> str:
    """Content hash identifying one experiment invocation: experiment
    name plus the identity of every cell in its matrix."""
    return content_key({"kind": "journal", "experiment": experiment,
                        "cells": [cell_key(runner, c) for c in cells]})


class RunJournal:
    """One run's append-only JSONL event log."""

    def __init__(self, path: str | Path, experiment: str | None = None):
        self.path = Path(path)
        self.experiment = experiment

    @classmethod
    def for_run(cls, experiment: str, cells, runner,
                root: str | Path | None = None) -> "RunJournal":
        root = Path(root) if root is not None else default_journal_dir()
        return cls(root / f"{run_key(experiment, cells, runner)}.jsonl",
                   experiment)

    @property
    def run_id(self) -> str:
        return self.path.stem

    # -- writing -----------------------------------------------------------

    def _append(self, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, default=str)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()

    def record_start(self, total: int) -> None:
        self._append({"event": "start", "experiment": self.experiment,
                      "cells": total, "time": time.time()})

    def record_cell(self, *, index: int, key: str, workload: str,
                    config: str, status: str, attempts: int,
                    elapsed: float = 0.0, kind: str | None = None,
                    error: str | None = None) -> None:
        """``elapsed`` is the attempt's execution time in seconds, with
        no queue wait in it."""
        rec = {"event": "cell", "index": index, "key": key,
               "workload": workload, "config": config, "status": status,
               "attempts": attempts, "elapsed": round(elapsed, 6)}
        if kind is not None:
            rec["kind"] = kind
        if error is not None:
            rec["error"] = error[:500]
        self._append(rec)

    def record_end(self, summary: dict) -> None:
        self._append({"event": "end", "time": time.time(),
                      "report": summary})

    # -- reading -----------------------------------------------------------

    def entries(self) -> list[dict]:
        """Every intact record, oldest first.  A torn final line (crash
        mid-append) is skipped with a :class:`TornJournalWarning`, never
        an error — ``journal show`` keeps working on a journal whose
        writer died."""
        return read_jsonl(self.path, label=f"journal {self.run_id[:16]}")


def list_journals(root: str | Path | None = None) -> list[RunJournal]:
    """All journals under ``root``, most recently touched first."""
    root = Path(root) if root is not None else default_journal_dir()
    if not root.is_dir():
        return []
    paths = sorted(root.glob("*.jsonl"), key=lambda p: p.stat().st_mtime,
                   reverse=True)
    return [RunJournal(p) for p in paths]
