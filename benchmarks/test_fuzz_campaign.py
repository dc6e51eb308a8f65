"""Differential fuzzing campaign — corpus-wide SPEAR behaviour.

Runs the standard seed-0 campaign through the parallel engine and
persists its (byte-deterministic) triage for EXPERIMENTS.md.  The
campaign size is modest here so the benchmark pass stays tractable;
``repro fuzz run --seed 0 --count 1000`` reproduces the full corpus
with identical per-program verdicts (each verdict depends only on its
own cell).
"""

import os

from repro.fuzz import GuidedCampaignSpec, coverage_map, run_guided_campaign

from .conftest import emit, once

COUNT = int(os.environ.get("FUZZ_BENCH_COUNT", "200"))


def test_fuzz_campaign_triage(benchmark, runner, out_dir):
    spec = GuidedCampaignSpec(seed=0, count=COUNT, arms=("default",))
    result = once(benchmark, lambda: run_guided_campaign(spec, runner,
                                                         journaled=False))
    assert result.failed == []
    assert result.report.counts["divergence"] == 0
    assert result.report.total == COUNT
    emit(out_dir, "fuzz_campaign",
         f"$ repro fuzz run --seed 0 --count {COUNT}\n"
         + result.report.render())


def test_fuzz_guided_vs_blind_coverage(benchmark, runner, out_dir):
    """Equal-budget coverage comparison: the scheduled arm palette must
    hit strictly more distinct behaviour bins than the blind
    default-dials campaign (the point of coverage guidance)."""
    blind_spec = GuidedCampaignSpec(seed=0, count=COUNT, arms=("default",),
                                    sweep_every=0)
    guided_spec = GuidedCampaignSpec(seed=0, count=COUNT, batch=25,
                                     sweep_every=0)

    def run_both():
        blind = run_guided_campaign(blind_spec, runner, journaled=False)
        guided = run_guided_campaign(guided_spec, runner, journaled=False)
        return blind, guided

    blind, guided = once(benchmark, run_both)
    assert blind.failed == [] and guided.failed == []
    blind_cov = coverage_map(blind.verdicts)
    assert guided.coverage.distinct > blind_cov.distinct, (
        f"guided coverage ({guided.coverage.distinct}) must beat blind "
        f"({blind_cov.distinct}) at equal budget")
    lines = [
        f"$ repro fuzz coverage --seed 0 --count {COUNT}   # blind",
        f"$ repro fuzz coverage --guided --seed 0 --count {COUNT} "
        f"--batch 25",
        "",
        f"{'campaign':<10} {'programs':>9} {'distinct bins':>14} "
        f"{'facets':>7}",
        f"{'blind':<10} {blind_cov.total:>9} {blind_cov.distinct:>14} "
        f"{len(blind_cov.facets()):>7}",
        f"{'guided':<10} {guided.coverage.total:>9} "
        f"{guided.coverage.distinct:>14} "
        f"{len(guided.coverage.facets()):>7}",
        "",
        guided.render_allocations(),
    ]
    emit(out_dir, "fuzz_coverage", "\n".join(lines))
