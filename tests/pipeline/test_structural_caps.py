"""Table 2's widths and sizes, checked after every cycle of the walk.

Each run here steps a per-cycle walk (``_ff`` cleared) with ``step()``
and, after every cycle, checks that the cycle stayed within the
machine's caps:

* fetched plus wrong-path-fetched entries within ``fetch_width``;
* decoded plus PE-extracted within ``decode_width``, and extracted
  within ``extract_width``;
* issued within ``issue_width``, over both threads on shared FUs and per
  thread on separate ones;
* committed within ``commit_width``;
* IFQ occupancy within ``ifq_size``, the ROB within ``ruu_size`` and
  p-thread instances in flight within ``pthread_ruu_size``.

It reads only counters and state that ``step()`` already flushes, so
``run()`` carries nothing for it.  The runs cover the 15 paper workloads
under the paper's five models and the settings the front-end pins and
the ablations use, the distilled fuzz corpus, and a priority-off
shared-FU run whose two threads together have more ready work than the
issue width.
"""

from __future__ import annotations

import dataclasses
from operator import gt, sub
from pathlib import Path

import pytest

from repro.core.configs import PAPER_CONFIGS, SPEAR_128, SPEAR_256
from repro.fuzz import corpus_from_json
from repro.harness import EVAL_WORKLOADS, ExperimentRunner

from ..conftest import timing_sim

#: The paper's five models, then the ablation and front-end settings.
CONFIGS = {
    **PAPER_CONFIGS,
    **{c.name: c for c in (
        dataclasses.replace(SPEAR_128, name="nopri-128",
                            pthread_priority=False),
        dataclasses.replace(SPEAR_256, name="nopri-256",
                            pthread_priority=False),
        dataclasses.replace(SPEAR_128, name="strict-chain",
                            trigger_occupancy_fraction=0.9, chaining=True),
        dataclasses.replace(SPEAR_128, name="extract-8", extract_width=8),
        dataclasses.replace(SPEAR_128, name="wp-bubbles",
                            wrong_path="bubbles"),
        dataclasses.replace(SPEAR_128, name="wp-stall", wrong_path="stall"),
        dataclasses.replace(SPEAR_128, name="drain-none",
                            drain_policy="none"),
        dataclasses.replace(SPEAR_128, name="drain-full",
                            drain_policy="full"),
    )},
}

CORPUS = Path(__file__).parents[1] / "regress" / "corpus" / "corpus.json"
ENTRIES, _ = corpus_from_json(CORPUS.read_text())

CAPS = ("fetch", "decode + extract", "extract", "issue", "p-thread issue",
        "commit", "IFQ", "ROB", "p-thread RUU")


def walk_within_caps(sim) -> None:
    """Step ``sim`` to the end of its run, failing on the first cycle
    that exceeds a cap; the message names the cap, the cycle, the count
    and the cap's value, and each thread's issue count that cycle."""
    cfg = sim.config
    stats = sim.stats
    spear = stats.spear
    issued = sim._issued_by_thread
    separate = cfg.separate_fu
    # On shared FUs both threads count against one width, and the
    # p-thread's own row is always 0.
    limits = (cfg.fetch_width, cfg.decode_width, cfg.extract_width,
              cfg.issue_width, cfg.issue_width, cfg.commit_width,
              cfg.ifq_size, cfg.ruu_size, cfg.pthread_ruu_size)

    def totals():
        return (stats.fetched + stats.wrong_path_fetched, sim._decoded,
                spear.pthread_instrs, *issued, sim._committed)

    before = totals()
    running = True
    while running:
        running = sim.step()
        after = totals()
        fetched, decoded, extracted, main, pt, committed = map(
            sub, after, before)
        before = after
        counts = (fetched, decoded + extracted, extracted,
                  main if separate else main + pt, pt if separate else 0,
                  committed, sim._fetch_idx - sim._decoded + sim._bubbles,
                  sim._decoded - sim._committed, sim._pt_inflight)
        if any(map(gt, counts, limits)):
            cap, count, limit = next(
                (c, n, lim) for c, n, lim in zip(CAPS, counts, limits)
                if n > lim)
            pytest.fail(f"{cfg.name}: cycle {sim._cycle - 1}: {cap} "
                        f"{count} > {limit} (issued: main {main}, "
                        f"p-thread {pt})")
    assert sim._committed == len(sim.trace)


def walk(art, config) -> None:
    walk_within_caps(timing_sim(art.eval_trace, config, art.binary.table,
                                walk=True, warmup=art.warmup_trace))


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instruction_scale=0.05)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("workload", EVAL_WORKLOADS)
def test_paper_workload_within_caps(runner, workload, config):
    walk(runner.artifacts(workload), CONFIGS[config])


@pytest.mark.parametrize("entry", ENTRIES, ids=[e.name for e in ENTRIES])
def test_corpus_program_within_caps(entry):
    art = ExperimentRunner(instruction_scale=1.0).artifacts(entry.name)
    walk(art, SPEAR_128)


def test_priority_off_shares_the_issue_width():
    """With priority off on shared FUs the main thread issues first and
    the p-thread gets only what it left of the one width.  On this run
    the two threads together have more ready work than the width."""
    art = ExperimentRunner(instruction_scale=0.2).artifacts("ray")
    walk(art, CONFIGS["nopri-256"])
