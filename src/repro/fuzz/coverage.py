"""Behaviour coverage: band verdict measurements into stable bins.

SPEAR's win lives in a narrow behavioural regime — delinquent loads
triggering p-threads whose fills land timely rather than late or unused
— and a blind campaign samples that regime rarely (PR 8's seed-0 run
put 578/1000 programs in the neutral bucket).  This module turns the
counters every verdict already carries into a *coverage signal*:

* :class:`BehaviorVector` — one program's behaviour, banded.  Each
  dimension (trigger fires, chaining depth, PE-mode residency, fill
  mix, L1/L2 miss bands, slice shape, divergence-check outcome,
  classification) collapses a raw counter into a small ordinal band, so
  the joint key is stable across runs, backends and job counts while
  still separating the regimes that matter.
* :class:`CoverageMap` — hit counts per joint key, content-hashed and
  byte-deterministically serialized.  The scheduler treats first-hit
  keys as novelty; the distiller covers the per-dimension *facets*.

Two granularities on purpose: joint keys (the full vector) are the
novelty signal — fine enough that steering toward unseen keys explores
real behaviour combinations — while facets (``dim=band`` pairs) are the
distillation target, coarse enough that a minimal covering corpus stays
CI-sized.

Everything here is pure integer/string arithmetic on verdict fields:
no floats are compared, no iteration order leaks, and the same verdicts
produce byte-identical maps in any order of accumulation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .differential import BEHAVIOR_FIELDS, BEHAVIOR_VERSION, FuzzVerdict

#: Bumped whenever banding or the key format changes meaning: the
#: version prefixes every key and the map serialization, so maps from
#: different schemas never compare equal byte-wise.
COVERAGE_VERSION = 1

#: Dimension order of the vector (and of every key / facet list).
DIMENSIONS = ("cls", "gain", "trig", "chain", "mode", "fills", "mix",
              "l1", "l2", "slices", "slen", "div")

#: Band meaning "the evaluation died before this was measurable".
UNMEASURED = "x"

_RAW = {name: i for i, name in enumerate(BEHAVIOR_FIELDS)}


def _log_band(value: int, edges: tuple[int, ...]) -> str:
    """0 stays 0; otherwise 1 + index of the first edge >= value."""
    if value <= 0:
        return "0"
    for i, edge in enumerate(edges):
        if value <= edge:
            return str(i + 1)
    return str(len(edges) + 1)


def _ratio_band(num: int, den: int, permille: tuple[int, ...]) -> str:
    """Band ``num/den`` by permille thresholds using exact integer
    cross-multiplication (no float compares to drift on)."""
    if den <= 0:
        return "0"
    for i, edge in enumerate(permille):
        if num * 1000 < edge * den:
            return str(i)
    return str(len(permille))


@dataclass(frozen=True)
class BehaviorVector:
    """One program's banded behaviour — hashable, orderable by key."""

    bands: tuple[tuple[str, str], ...]   #: ((dim, band), ...) DIMENSIONS order

    @property
    def key(self) -> str:
        """The joint coverage bin, e.g. ``v1|cls=speedup|gain=4|...``."""
        return "|".join([f"v{COVERAGE_VERSION}"]
                        + [f"{d}={b}" for d, b in self.bands])

    def facets(self) -> tuple[str, ...]:
        """The per-dimension bins this program covers (distillation
        granularity).  Unmeasured dimensions cover nothing."""
        return tuple(f"{d}={b}" for d, b in self.bands if b != UNMEASURED)


def vector_of(verdict: FuzzVerdict) -> BehaviorVector:
    """Band one verdict.  Pure function of the verdict's fields."""
    cls = verdict.classification
    labels = sorted({d.split(":", 1)[0] for d in verdict.divergences})
    div = "+".join(labels) if labels else "-"
    ratio = verdict.speedup
    if ratio <= 0:
        gain = UNMEASURED
    else:
        # Promille thresholds on the SPEAR/baseline IPC ratio.
        m = int(round(ratio * 1000))
        gain = ("1" if m <= 950 else "2" if m < 1050 else
                "3" if m < 1250 else "4" if m < 1600 else "5")
    raw = verdict.behavior
    if raw is None:
        bands = dict.fromkeys(DIMENSIONS, UNMEASURED)
    else:
        g = lambda name: raw[_RAW[name]]  # noqa: E731
        fills = g("fills")
        if fills == 0:
            mix = "none"
        else:
            parts = [(g("timely"), "timely"), (g("late"), "late"),
                     (g("unused"), "unused")]
            # Dominant class; ties resolve timely > late > unused (the
            # listed order), deterministically.
            mix = max(parts, key=lambda p: p[0])[1]
        slices = g("n_slices")
        if slices == 0:
            slen = "0"
        else:
            mean = g("slice_total") // slices
            slen = "1" if mean <= 4 else "2" if mean <= 8 else \
                   "3" if mean <= 16 else "4"
        bands = {
            "trig": _log_band(g("triggers"), (8, 64, 512)),
            "chain": _log_band(g("retriggers"), (4, 32)),
            "mode": _ratio_band(g("cycles_in_mode"), g("cycles"),
                                (1, 100, 300, 600)),
            "fills": _log_band(fills, (8, 64)),
            "mix": mix,
            "l1": _ratio_band(g("l1_misses"), g("accesses"),
                              (10, 50, 150, 300)),
            # "-" = the main thread never reached the L2 at all,
            # distinct from reaching it and mostly hitting.
            "l2": "-" if g("l2_refs") == 0 else
                  _ratio_band(g("l2_misses"), g("l2_refs"), (100, 500)),
            "slices": _log_band(slices, (1, 4, 8)),
            "slen": slen,
        }
    bands["cls"] = cls
    bands["gain"] = gain
    bands["div"] = div
    return BehaviorVector(tuple((d, bands[d]) for d in DIMENSIONS))


@dataclass
class CoverageMap:
    """Hit counts per joint coverage bin, plus the derived facet view.

    Accumulation is order-independent (counts commute), serialization
    sorts keys, and the content hash covers exactly the serialized
    bytes — so two maps built from the same verdicts in any order are
    byte-identical and hash-identical.
    """

    bins: dict[str, int] = field(default_factory=dict)

    def add(self, key: str) -> bool:
        """Accumulate one hit; True when the bin is new to this map."""
        fresh = key not in self.bins
        self.bins[key] = self.bins.get(key, 0) + 1
        return fresh

    def add_verdict(self, verdict: FuzzVerdict) -> bool:
        return self.add(vector_of(verdict).key)

    @property
    def distinct(self) -> int:
        return len(self.bins)

    @property
    def total(self) -> int:
        return sum(self.bins.values())

    def facets(self) -> dict[str, int]:
        """Per-dimension bins hit, with hit counts (``div=`` facets of
        unmeasured bands excluded exactly as in
        :meth:`BehaviorVector.facets`)."""
        out: dict[str, int] = {}
        for key, count in self.bins.items():
            for facet in key.split("|")[1:]:
                if not facet.endswith(f"={UNMEASURED}"):
                    out[facet] = out.get(facet, 0) + count
        return out

    def content_hash(self) -> str:
        return hashlib.sha256(self._canonical().encode()).hexdigest()

    def _canonical(self) -> str:
        return json.dumps({"version": COVERAGE_VERSION,
                           "behavior": BEHAVIOR_VERSION,
                           "bins": self.bins}, sort_keys=True)

    def to_json(self) -> str:
        doc = {"version": COVERAGE_VERSION, "behavior": BEHAVIOR_VERSION,
               "distinct": self.distinct, "total": self.total,
               "sha256": self.content_hash(), "bins": self.bins}
        return json.dumps(doc, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CoverageMap":
        doc = json.loads(text)
        if doc.get("version") != COVERAGE_VERSION:
            raise ValueError(f"unsupported coverage version "
                             f"{doc.get('version')!r}")
        return cls(bins={str(k): int(v) for k, v in doc["bins"].items()})

    def render(self) -> str:
        """Deterministic one-glance summary (stdout-safe)."""
        facets = self.facets()
        lines = [f"coverage: {self.distinct} distinct bin(s) over "
                 f"{self.total} program(s), {len(facets)} facet(s), "
                 f"sha256 {self.content_hash()[:16]}"]
        by_dim: dict[str, list[str]] = {}
        for facet in facets:
            dim, _, band = facet.partition("=")
            by_dim.setdefault(dim, []).append(band)
        for dim in DIMENSIONS:
            bands = ", ".join(sorted(by_dim.get(dim, ())))
            lines.append(f"  {dim:<7} {{{bands}}}")
        return "\n".join(lines)


def coverage_map(verdicts: list[FuzzVerdict]) -> CoverageMap:
    """The campaign-level map: every verdict's joint bin, accumulated."""
    cmap = CoverageMap()
    for verdict in verdicts:
        cmap.add_verdict(verdict)
    return cmap
