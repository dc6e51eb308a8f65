"""Fuzz campaigns: one driver for blind and coverage-guided campaigns.

A campaign is ``count`` generated programs from one seed, drawn from a
palette of *arms*: preset dial points, plus mutation arms that perturb
the KernelSpec IR exported by hand-built workloads
(``Workload.spec_of``).  A guided campaign is a sequence of batches.
Each batch's budget is apportioned over the arms, and after every batch
the scheduler re-scores arms by the new or rare coverage bins their
programs just hit (:mod:`repro.fuzz.coverage`), the Revizor-style
loop.  A *blind* campaign is one generation arm at one dial point.
With one arm no plan can depend on what a batch observed, so the whole
campaign runs as one batch: one pool and one journal.

Everything is deterministic by construction, which is what keeps a
campaign byte-identical at any ``--jobs`` and across a crash and a
rerun:

* a program's full identity lives in its cell name —
  ``fuzz:v1:<seed>:<i>[:<dials>]`` for generation arms,
  ``fuzzmut:v1:<seed>:<i>:<base>`` for mutation arms — so workers and
  caches rebuild it from the string alone;
* every verdict is a pure function of its cell, and verdicts merge in
  submission order;
* the scheduler is pure integer arithmetic (largest-remainder
  apportionment with fixed tie-breaks) over those verdicts;
* mutation is a seeded walk over the spec IR emitting only grammar the
  oracle and shrinker already interpret.

A crash mid-batch stops scheduling (later plans would depend on the
missing observations); a rerun replays completed cells from the disk
cache and re-derives the identical plan.  Every
``sweep_every``-th program, by campaign index, also cross-checks the
two timing kernels at figure-9 memory latencies.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.configs import BASELINE
from ..harness.journal import RunJournal
from ..harness.parallel import Cell, ExecutionPolicy, RunReport, run_cells
from ..harness.runner import ExperimentRunner
from .coverage import CoverageMap, coverage_map, vector_of
from .differential import FuzzCheckSpec, FuzzVerdict
from .generator import (DEFAULT_DIALS, INTERESTING_FLOATS, INTERESTING_INTS,
                        KernelDials, KernelSpec, SPEC_VERSION, SpecWorkload,
                        _sample_stmt, encode_name)
from .triage import TriageReport, triage

# -- spec mutation ----------------------------------------------------------

#: Seed-sequence tag separating mutation streams from generation streams.
_MUT_TAG = 0x4D5554  # "MUT"

#: Dynamic-size ceiling mutations are clamped under (trip halving), so a
#: chain of trip doublings cannot grow an unbounded kernel.
_MUT_DYNAMIC_CAP = 4 * DEFAULT_DIALS.target_instructions


def _mut_trip(spec, rng, dials):
    i = int(rng.integers(len(spec.loops)))
    trip, body = spec.loops[i]
    trip = max(1, trip * 2) if rng.random() < 0.5 else max(1, trip // 2)
    loops = spec.loops[:i] + ((trip, body),) + spec.loops[i + 1:]
    return replace(spec, loops=loops)


def _mut_mem(spec, rng, dials):
    n = spec.mem_words * 2 if rng.random() < 0.5 else spec.mem_words // 2
    return replace(spec, mem_words=max(64, min(dials.mem_words, n)))


def _mut_branch(spec, rng, dials):
    delta = float(rng.uniform(0.05, 0.3))
    p = spec.p_taken + (delta if rng.random() < 0.5 else -delta)
    return replace(spec, p_taken=float(np.round(min(0.98, max(0.02, p)), 4)))


def _pick_loop_stmt(spec, rng):
    i = int(rng.integers(len(spec.loops)))
    trip, body = spec.loops[i]
    j = int(rng.integers(len(body)))
    return i, trip, body, j


def _with_body(spec, i, trip, body):
    return replace(spec, loops=spec.loops[:i] + ((trip, body),)
                   + spec.loops[i + 1:])


def _mut_replace(spec, rng, dials):
    i, trip, body, j = _pick_loop_stmt(spec, rng)
    stmt = _sample_stmt(rng, dials, nest=0)
    return _with_body(spec, i, trip, body[:j] + (stmt,) + body[j + 1:])


def _mut_insert(spec, rng, dials):
    i, trip, body, j = _pick_loop_stmt(spec, rng)
    stmt = _sample_stmt(rng, dials, nest=0)
    return _with_body(spec, i, trip, body[:j] + (stmt,) + body[j:])


def _mut_drop(spec, rng, dials):
    i, trip, body, j = _pick_loop_stmt(spec, rng)
    if len(body) <= 1:
        return spec
    return _with_body(spec, i, trip, body[:j] + body[j + 1:])


def _mut_init(spec, rng, dials):
    i = int(rng.integers(len(spec.init)))
    v = int(INTERESTING_INTS[int(rng.integers(len(INTERESTING_INTS)))])
    return replace(spec, init=spec.init[:i] + (v,) + spec.init[i + 1:])


def _mut_finit(spec, rng, dials):
    i = int(rng.integers(len(spec.finit)))
    v = float(INTERESTING_FLOATS[int(rng.integers(len(INTERESTING_FLOATS)))])
    return replace(spec, finit=spec.finit[:i] + (v,) + spec.finit[i + 1:])


_MUTATIONS = (_mut_trip, _mut_mem, _mut_branch, _mut_replace, _mut_insert,
              _mut_drop, _mut_init, _mut_finit)


def _bound_dynamic(spec: KernelSpec) -> KernelSpec:
    """Halve the largest trip until the kernel fits the mutation budget
    (first-occurrence tie-break — deterministic)."""
    while spec.dynamic_estimate() > _MUT_DYNAMIC_CAP:
        trips = [trip for trip, _ in spec.loops]
        if max(trips) <= 1:
            break
        i = trips.index(max(trips))
        trip, body = spec.loops[i]
        spec = replace(spec, loops=spec.loops[:i]
                       + ((max(1, trip // 2), body),) + spec.loops[i + 1:])
    return spec


def mutate_spec(spec: KernelSpec, rng: np.random.Generator,
                dials: KernelDials = DEFAULT_DIALS) -> KernelSpec:
    """One seeded mutation walk: 1–3 operators, then the size clamp.

    Operators only emit grammar the sampler already produces (statement
    replacement/insertion draws through ``_sample_stmt``), so mutated
    specs stay halting, non-faulting, oracle-interpretable and
    shrinkable exactly like sampled ones.
    """
    for _ in range(int(rng.integers(1, 4))):
        op = _MUTATIONS[int(rng.integers(len(_MUTATIONS)))]
        spec = op(spec, rng, dials)
    return _bound_dynamic(spec)


# -- fuzzmut: names ---------------------------------------------------------

def encode_mut_name(campaign_seed: int, index: int, base: str) -> str:
    return f"fuzzmut:v{SPEC_VERSION}:{campaign_seed}:{index}:{base}"


def parse_mut_name(name: str) -> tuple[int, int, str]:
    """Inverse of :func:`encode_mut_name`; raises ``ValueError`` on junk."""
    parts = name.split(":")
    if len(parts) != 5 or parts[0] != "fuzzmut":
        raise ValueError(f"not a fuzzmut workload name: {name!r}")
    if parts[1] != f"v{SPEC_VERSION}":
        raise ValueError(
            f"fuzzmut name {name!r} is generator version {parts[1]}, this "
            f"build is v{SPEC_VERSION} — regenerate the corpus")
    return int(parts[2]), int(parts[3]), parts[4]


def mutated_spec(campaign_seed: int, index: int, base: str) -> KernelSpec:
    """The spec a ``fuzzmut:`` name encodes: the base workload's
    exported IR run through a seeded mutation walk."""
    from ..workloads.base import get_workload
    exported = get_workload(base).spec_of()
    if exported is None:
        raise ValueError(f"workload {base!r} has no spec_of() export")
    rng = np.random.default_rng(
        [_MUT_TAG, SPEC_VERSION, campaign_seed, index,
         zlib.crc32(base.encode())])
    return mutate_spec(exported, rng)


class MutWorkload(SpecWorkload):
    """Program ``index`` of a campaign's mutation arm over ``base``."""

    def __init__(self, campaign_seed: int, index: int, base: str):
        self.campaign_seed = campaign_seed
        self.index = index
        self.base = base
        super().__init__(mutated_spec(campaign_seed, index, base),
                         encode_mut_name(campaign_seed, index, base))


def mut_workload_from_name(name: str) -> MutWorkload:
    """Registry hook target (see ``repro.workloads.base.get_workload``)."""
    seed, index, base = parse_mut_name(name)
    return MutWorkload(seed, index, base)


# -- arms -------------------------------------------------------------------

@dataclass(frozen=True)
class Arm:
    """One source of programs: a dial point or a mutation base."""

    name: str
    dials: KernelDials | None = None    #: generation arm when set
    base: str | None = None             #: mutation arm when set

    def cell_name(self, campaign_seed: int, index: int) -> str:
        if self.base is not None:
            return encode_mut_name(campaign_seed, index, self.base)
        return encode_name(campaign_seed, index, self.dials)


#: Preset dial points, each aimed at a behavioural corner the default
#: dials under-sample (the coverage dimensions they chase in comments).
GEN_ARMS: tuple[tuple[str, KernelDials], ...] = (
    ("default", DEFAULT_DIALS),
    # L1-resident footprints: l1=0, the fzdrag regression regime
    ("tiny", replace(DEFAULT_DIALS, mem_words=256,
                     target_instructions=1200)),
    # deep serial chases: trig/chain/mode high, gathers out of the way
    ("deep-chase", replace(DEFAULT_DIALS, chase_depth=8, gather_fanout=1,
                           fp_weight=0.2)),
    # wide independent gathers: fills high, mix=timely, the MLP corner
    ("wide-gather", replace(DEFAULT_DIALS, gather_fanout=8, chase_depth=1)),
    # near-coin-flip hammocks: mispredict-bound, mode residency low
    ("branchy", replace(DEFAULT_DIALS, branch_entropy=0.96, max_body=10)),
    # store/byte pressure: written-block fills and RMW traffic
    ("stores", replace(DEFAULT_DIALS, store_weight=3.0, byte_weight=1.5)),
    # fp/div-heavy: long-latency non-memory producers in slices
    ("fp", replace(DEFAULT_DIALS, fp_weight=4.0, div_weight=2.0)),
    # 4x-long executions: the trig=3/chain=3/high-residency bands that
    # default-length programs cannot reach at any count
    ("marathon", replace(DEFAULT_DIALS, target_instructions=9000)),
)

#: Hand-built workloads with ``spec_of`` exports — the mutation bases.
MUT_BASES = ("pointer", "update", "matrix", "field", "ll4")

DEFAULT_ARMS: tuple[str, ...] = tuple(
    [name for name, _ in GEN_ARMS] + [f"mut:{b}" for b in MUT_BASES])

_GEN_BY_NAME = dict(GEN_ARMS)


def resolve_arm(name: str) -> Arm:
    if name.startswith("mut:"):
        return Arm(name=name, base=name[4:])
    try:
        return Arm(name=name, dials=_GEN_BY_NAME[name])
    except KeyError:
        raise ValueError(f"unknown arm {name!r}; known: "
                         f"{sorted(_GEN_BY_NAME)} + mut:<workload>") from None


# -- the scheduler ----------------------------------------------------------

class ArmScheduler:
    """Deterministic multi-armed budget apportionment.

    Scores are small integers derived from each arm's *recent novelty
    rate* — first-hit coverage bins over the arm's last ``WINDOW``
    programs: ``1 + (RATE_SCALE * hits) // window``.  Windowed rates
    track the moving frontier (an arm that exhausted its corner decays;
    an arm whose bins only open late keeps earning) and an arm skipped
    for a batch keeps its earned score, so "not scheduled" is never
    conflated with "not productive".

    Rates alone under-concentrate: with a dozen arms whose rates span
    maybe 2x, proportional apportionment is nearly an even split, and an
    even split over a palette where most arms re-hit the default arm's
    bins *loses* to spending the whole budget on default dials.  So the
    budget follows **rank**, not magnitude: once every arm has
    ``MIN_OBS`` observations, the top-ranked arms take the fixed
    ``SHARES`` weights and every other arm weight 1 — a hindsight-greedy
    shaped split (most of the batch on the frontier arms, a floor that
    keeps every rate measured and lets a recovering arm climb back).
    Until then the split is even: cold-start ranking would be ordering
    noise.  Largest-remainder apportionment with ties broken by arm
    order, integer arithmetic end to end — the plan is a pure function
    of the verdict sequence.
    """

    RATE_SCALE = 16
    WINDOW = 24      #: per-arm outcome window the rate is measured over
    MIN_OBS = 3      #: observations per arm before ranking kicks in
    SHARES = (14, 8, 4)  #: weights for the top-ranked arms (rest get 1)

    def __init__(self, arms: tuple[str | Arm, ...] = DEFAULT_ARMS):
        if not arms:
            raise ValueError("need at least one arm")
        self.resolved = tuple(a if isinstance(a, Arm) else resolve_arm(a)
                              for a in arms)
        self.arms = tuple(a.name for a in self.resolved)
        self.scores = {a: 1 for a in self.arms}
        self.seen = CoverageMap()
        self.allocated = {a: 0 for a in self.arms}
        self.observed = {a: 0 for a in self.arms}
        self.new_bins = {a: 0 for a in self.arms}
        self.recent = {a: () for a in self.arms}

    def _weights(self) -> list[int]:
        if min(self.observed[a] for a in self.arms) < self.MIN_OBS:
            return [1] * len(self.arms)
        ranked = sorted(range(len(self.arms)),
                        key=lambda i: (-self.scores[self.arms[i]], i))
        weights = [1] * len(self.arms)
        for share, i in zip(self.SHARES, ranked):
            weights[i] = share
        return weights

    def plan(self, budget: int) -> list[Arm]:
        """The next batch's arms, allocation-ordered (arm order, each
        arm's programs contiguous)."""
        weights = self._weights()
        total = sum(weights)
        shares = [budget * w for w in weights]
        counts = [s // total for s in shares]
        order = sorted(range(len(self.arms)),
                       key=lambda i: (-(shares[i] % total), i))
        for i in order[:budget - sum(counts)]:
            counts[i] += 1
        out: list[Arm] = []
        for arm, resolved, n in zip(self.arms, self.resolved, counts):
            self.allocated[arm] += n
            out.extend([resolved] * n)
        return out

    def observe(self, batch: list[tuple[str, FuzzVerdict]]) -> None:
        """Fold one completed batch (submission order) into the scores."""
        for arm, verdict in batch:
            self.observed[arm] += 1
            hit = 1 if self.seen.add(vector_of(verdict).key) else 0
            self.new_bins[arm] += hit
            self.recent[arm] = (self.recent[arm] + (hit,))[-self.WINDOW:]
        self.scores = {
            a: (1 if not self.recent[a]
                else 1 + (self.RATE_SCALE * sum(self.recent[a]))
                // len(self.recent[a]))
            for a in self.arms}


# -- the campaign driver ----------------------------------------------------

@dataclass(frozen=True)
class GuidedCampaignSpec:
    """A campaign's identity.  ``arms`` holds preset arm names (see
    :data:`DEFAULT_ARMS`) or :class:`Arm`\\ s; a blind campaign holds one
    generation :class:`Arm` at its dial point."""

    seed: int
    count: int
    batch: int = 25                      #: programs per scheduling round
    arms: tuple[str | Arm, ...] = DEFAULT_ARMS
    check: FuzzCheckSpec = FuzzCheckSpec()
    sweep_every: int = 50                #: by campaign index
    sweep_points: int = 2

    def __post_init__(self) -> None:
        # A campaign of no programs would pass any check with nothing run.
        if self.count < 1:
            raise ValueError(
                f"campaign count must be at least 1, got {self.count}")
        # A batch plans at least one program, or the campaign never ends.
        if self.batch < 1:
            raise ValueError(
                f"campaign batch must be at least 1, got {self.batch}")

    @property
    def experiment(self) -> str:
        return f"fuzz-guided-{self.seed}-{self.count}"

    def check_for(self, index: int) -> FuzzCheckSpec:
        if self.sweep_every and index % self.sweep_every == 0:
            return replace(self.check, sweep_points=self.sweep_points)
        return self.check

    def cell(self, arm: Arm, index: int) -> Cell:
        """Program ``index`` of the campaign, drawn from ``arm``."""
        return Cell(arm.cell_name(self.seed, index), BASELINE,
                    fuzz=self.check_for(index))


@dataclass
class GuidedCampaignResult:
    """Everything a campaign produced."""

    spec: GuidedCampaignSpec
    verdicts: list[FuzzVerdict]
    report: TriageReport
    coverage: CoverageMap
    run_reports: list[RunReport] = field(default_factory=list)
    failed: list = field(default_factory=list)
    #: per-batch arm allocation, scheduling order
    allocations: list[dict] = field(default_factory=list)
    #: lifetime per-arm totals: programs allocated, first-hit bins
    arm_stats: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return not self.failed and all(r.completed for r in self.run_reports)

    def render_allocations(self) -> str:
        """Deterministic arm table for stdout."""
        lines = [f"arm allocation — {len(self.allocations)} batch(es):"]
        for arm, s in self.arm_stats.items():
            lines.append(f"  {arm:<12} {s['allocated']:5d} program(s)  "
                         f"{s['new_bins']:4d} first-hit bin(s)")
        return "\n".join(lines)


def run_guided_campaign(spec: GuidedCampaignSpec, runner: ExperimentRunner,
                        *, jobs: int | None = None,
                        policy: ExecutionPolicy | None = None,
                        journaled: bool = True,
                        journal_root=None) -> GuidedCampaignResult:
    """Run one campaign, or rerun it from the disk cache.

    Batches run sequentially through the parallel engine, each under its
    own journal (``<experiment>-b<k>``); within a batch cells run at
    ``--jobs`` parallelism.  One arm runs the whole count as one batch.
    The final coverage map is recomputed from the verdicts in submission
    order, never carried incrementally — so a rerun after a crash
    converges to the clean run's bytes.
    """
    scheduler = ArmScheduler(spec.arms)
    batch_size = spec.batch if len(scheduler.arms) > 1 else spec.count
    verdicts: list[FuzzVerdict] = []
    failed: list = []
    run_reports: list[RunReport] = []
    allocations: list[dict] = []
    index = 0
    batch_no = 0
    remaining = spec.count
    while remaining > 0:
        plan = scheduler.plan(min(batch_size, remaining))
        cells = [spec.cell(arm, index + k) for k, arm in enumerate(plan)]
        index += len(plan)
        journal = None
        if journaled:
            journal = RunJournal.for_run(f"{spec.experiment}-b{batch_no}",
                                         cells, runner, root=journal_root)
        run_reports.append(run_cells(runner, cells, jobs, policy=policy,
                                     journal=journal))
        alloc: dict = {}
        batch: list[tuple[str, FuzzVerdict]] = []
        incomplete = False
        for cell, arm in zip(cells, plan):
            alloc[arm.name] = alloc.get(arm.name, 0) + 1
            if runner.has(cell):
                verdict = runner.get(cell)
                verdicts.append(verdict)
                batch.append((arm.name, verdict))
            else:
                failed.append(cell.workload)
                incomplete = True
        allocations.append(alloc)
        if incomplete:
            # Later plans would depend on the missing observations;
            # stop here so a rerun after the crash replays identically.
            break
        scheduler.observe(batch)
        remaining -= len(plan)
        batch_no += 1
    arm_stats = {a: {"allocated": scheduler.allocated[a],
                     "new_bins": scheduler.new_bins[a]}
                 for a in scheduler.arms}
    return GuidedCampaignResult(
        spec=spec, verdicts=verdicts,
        report=triage(verdicts, errored=failed),
        coverage=coverage_map(verdicts),
        run_reports=run_reports, failed=failed,
        allocations=allocations, arm_stats=arm_stats)
