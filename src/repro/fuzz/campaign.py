"""Journaled, resumable fuzzing campaigns on the parallel engine.

A campaign is ``count`` generated programs from one seed, each evaluated
as a :class:`~repro.harness.runner.Cell` with a
:class:`~repro.fuzz.differential.FuzzCheckSpec` attached.  Determinism
end to end:

* the corpus is a pure function of ``(seed, index, dials)``;
* every verdict is a pure function of its cell (each program is
  compiled, traced and simulated in isolation);
* the engine merges verdicts in submission order regardless of
  ``--jobs``, and triage preserves that order;

so the same seed yields byte-identical triage output at any job count,
and ``--resume`` after a kill restores journaled-ok verdicts from the
disk cache and completes to the same bytes.  Every ``sweep_every``-th
program additionally cross-checks the batched latency sweep against
independent runs (the check is by-index, hence deterministic too).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.configs import BASELINE
from ..harness.journal import RunJournal
from ..harness.parallel import Cell, ExecutionPolicy, RunReport, run_cells
from ..harness.runner import ExperimentRunner
from .differential import FuzzCheckSpec, FuzzVerdict
from .generator import DEFAULT_DIALS, KernelDials, encode_name
from .triage import TriageReport, triage


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign's identity: seed, size, dials and checks."""

    seed: int
    count: int
    dials: KernelDials = DEFAULT_DIALS
    check: FuzzCheckSpec = FuzzCheckSpec()
    #: every Nth program also runs the batched-sweep cross-check
    #: (0 disables); deterministic because it keys on the index
    sweep_every: int = 50
    #: latency points the sampled sweep check compares
    sweep_points: int = 2

    @property
    def experiment(self) -> str:
        """Journal identity (the cell keys pin everything else)."""
        return f"fuzz-{self.seed}-{self.count}"

    def check_for(self, index: int) -> FuzzCheckSpec:
        if self.sweep_every and index % self.sweep_every == 0:
            return replace(self.check, sweep_points=self.sweep_points)
        return self.check


def campaign_cells(spec: CampaignSpec) -> list[Cell]:
    """The campaign's cell list, index order (= submission order)."""
    return [Cell(encode_name(spec.seed, i, spec.dials), BASELINE,
                 fuzz=spec.check_for(i))
            for i in range(spec.count)]


@dataclass
class CampaignResult:
    """Everything a campaign run produced."""

    spec: CampaignSpec
    verdicts: list[FuzzVerdict]
    report: TriageReport
    run_report: RunReport
    journal: RunJournal | None = None
    #: names of cells that failed terminally (crashed evaluator — these
    #: have no verdict and are themselves campaign findings)
    failed: list = field(default_factory=list)


def run_campaign(spec: CampaignSpec, runner: ExperimentRunner, *,
                 jobs: int | None = None,
                 policy: ExecutionPolicy | None = None,
                 journal: RunJournal | None = None,
                 journaled: bool = True,
                 journal_root=None,
                 resume: bool = False) -> CampaignResult:
    """Run (or resume) one campaign and triage its verdicts.

    ``journaled`` derives a journal from the campaign identity when none
    is passed explicitly (requires the runner to have a cache for
    ``--resume`` to restore from; journaling itself works without one).
    """
    cells = campaign_cells(spec)
    if journal is None and journaled:
        journal = RunJournal.for_run(spec.experiment, cells, runner,
                                     root=journal_root)
    run_report = run_cells(runner, cells, jobs, policy=policy,
                           journal=journal, resume=resume)
    verdicts, failed = [], []
    for cell in cells:
        if runner.has(cell):
            verdicts.append(runner.get(cell))
        else:
            failed.append(cell.workload)
    return CampaignResult(spec=spec, verdicts=verdicts,
                          report=triage(verdicts, errored=failed),
                          run_report=run_report,
                          journal=journal, failed=failed)
