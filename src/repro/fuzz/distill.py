"""Corpus distillation: a minimal sub-suite covering a campaign's bins.

A campaign's verdicts span some set of behaviour *facets* (per-dimension
coverage bins, see :mod:`repro.fuzz.coverage`).  Distillation runs a
greedy set cover over them — each program covers its vector's facets —
then prunes redundant picks, yielding a small corpus that still touches
every trigger/PE/fill/memory regime the campaign reached.  The corpus
is emitted as pinned JSON under ``tests/regress/corpus/``: each entry
carries the program's full spec IR, its joint coverage key and its
classification, so CI can re-evaluate every entry in strict
differential mode and fail on any divergence *or* behaviour drift —
fuzz finds become a permanent tier-1-adjacent safety net.

Determinism: candidates are considered in submission order, greedy ties
break on (most new facets, highest |speedup - 1|, name), the prune pass
walks picks in reverse pick order — all byte-stable, so the distilled
corpus is identical at any ``--jobs`` and across a crash and a rerun.

Divergent verdicts are excluded: a diverging program is a bug to fix
(and shrink into ``tests/regress/*.json``), not a regression baseline.
Errored programs have no verdict and cannot be distilled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .coverage import BEHAVIOR_VERSION, COVERAGE_VERSION, vector_of
from .differential import FuzzCheckSpec, FuzzVerdict, evaluate_workload
from .generator import (SpecWorkload, spec_from_json, spec_to_json)

#: Corpus file schema version.
CORPUS_VERSION = 1


@dataclass(frozen=True)
class CorpusEntry:
    """One distilled program, self-contained (spec travels along)."""

    name: str
    spec_json: str               #: canonical spec IR
    key: str                     #: pinned joint coverage bin
    facets: tuple[str, ...]      #: facets this entry covers
    classification: str
    speedup: float

    def workload(self) -> SpecWorkload:
        return SpecWorkload(spec_from_json(self.spec_json), self.name)


def distill(verdicts: list[FuzzVerdict]) -> list[CorpusEntry]:
    """Greedy facet set-cover over the clean verdicts, then pruned.

    Returns entries in pick order.  Invariants (pinned by tests): the
    union of entry facets equals the facets of the clean verdicts, and
    no entry is redundant — dropping any one loses some facet.
    """
    candidates = []
    for v in verdicts:
        if v.diverged or v.behavior is None:
            continue
        vec = vector_of(v)
        candidates.append((v, vec.key, frozenset(vec.facets())))
    uncovered = set()
    for _, _, facets in candidates:
        uncovered |= facets
    picks: list[tuple[FuzzVerdict, str, frozenset]] = []
    while uncovered:
        best = max(candidates,
                   key=lambda c: (len(c[2] & uncovered),
                                  abs(c[0].speedup - 1.0), c[0].name))
        if not best[2] & uncovered:        # pragma: no cover - safety
            break
        picks.append(best)
        uncovered -= best[2]
    # Prune: a later pick can subsume an earlier one's contribution.
    # Reverse pick order keeps the walk deterministic.
    pruned = list(picks)
    for cand in reversed(picks):
        others = set()
        for other in pruned:
            if other is not cand:
                others |= other[2]
        if cand[2] <= others:
            pruned.remove(cand)
    entries = []
    for v, key, facets in pruned:
        workload = _rebuild(v.name)
        entries.append(CorpusEntry(
            name=v.name, spec_json=spec_to_json(workload.spec), key=key,
            facets=tuple(sorted(facets)), classification=v.classification,
            speedup=round(v.speedup, 6)))
    return entries


def _rebuild(name: str) -> SpecWorkload:
    from ..workloads.base import get_workload
    workload = get_workload(name)
    if not isinstance(workload, SpecWorkload):
        raise ValueError(f"{name!r} is not a generated workload")
    return workload


def corpus_to_json(entries: list[CorpusEntry], *, source: dict) -> str:
    """Serialize a corpus document (sorted keys, trailing newline-free)."""
    facets = sorted({f for e in entries for f in e.facets})
    doc = {
        "version": CORPUS_VERSION,
        "coverage_version": COVERAGE_VERSION,
        "behavior_version": BEHAVIOR_VERSION,
        "source": source,
        "facets": facets,
        "entries": [{
            "name": e.name, "key": e.key, "facets": list(e.facets),
            "classification": e.classification, "speedup": e.speedup,
            "spec": json.loads(e.spec_json),
        } for e in entries],
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def corpus_from_json(text: str) -> tuple[list[CorpusEntry], dict]:
    doc = json.loads(text)
    if doc.get("version") != CORPUS_VERSION:
        raise ValueError(f"unsupported corpus version {doc.get('version')!r}")
    if doc.get("coverage_version") != COVERAGE_VERSION \
            or doc.get("behavior_version") != BEHAVIOR_VERSION:
        raise ValueError(
            "corpus was distilled under a different coverage/behaviour "
            "schema — regenerate with `repro fuzz distill`")
    entries = [CorpusEntry(
        name=e["name"], spec_json=json.dumps(e["spec"], sort_keys=True),
        key=e["key"], facets=tuple(e["facets"]),
        classification=e["classification"], speedup=e["speedup"],
    ) for e in doc["entries"]]
    return entries, doc


@dataclass
class CorpusCheck:
    """Outcome of re-evaluating one corpus entry against this build."""

    name: str
    ok: bool
    divergences: tuple[str, ...]
    drift: str                    #: "" or what moved (key/classification)

    def describe(self) -> str:
        if self.ok:
            return f"ok       {self.name}"
        if self.divergences:
            return (f"DIVERGED {self.name}: "
                    + "; ".join(self.divergences))
        return f"DRIFT    {self.name}: {self.drift}"


def check_corpus(entries: list[CorpusEntry],
                 check: FuzzCheckSpec = FuzzCheckSpec(), *,
                 scale: float = 1.0) -> list[CorpusCheck]:
    """Strict differential re-run of a corpus: every entry must evaluate
    divergence-free *and* land in its pinned coverage bin.  Behaviour
    drift means the timing model legitimately changed — regenerate the
    corpus alongside the change, exactly like any golden."""
    out = []
    for e in entries:
        v = evaluate_workload(e.workload(), check, scale=scale)
        drift = ""
        if not v.diverged:
            key = vector_of(v).key
            if key != e.key:
                drift = f"coverage bin {e.key} -> {key}"
            elif v.classification != e.classification:
                drift = (f"classification {e.classification} -> "
                         f"{v.classification}")
        out.append(CorpusCheck(name=e.name,
                               ok=not v.diverged and not drift,
                               divergences=v.divergences, drift=drift))
    return out
