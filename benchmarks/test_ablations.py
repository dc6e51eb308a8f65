"""Ablations of the SPEAR design choices DESIGN.md calls out.

Each ablation sweeps one hardware knob on a representative gainer (mcf)
and records the resulting speedup curve.  These are not in the paper; they
quantify the design decisions its Section 3 makes by fiat (half-IFQ
trigger threshold, issue-width/2 extraction, one-cycle live-in copies,
p-thread issue priority, live-in drain policy).
"""

import dataclasses

from repro.core import BASELINE, SPEAR_128
from repro.harness import TextTable

from .conftest import emit, once

WORKLOAD = "mcf"


def _sweep(runner, name, values, **field_of):
    rows = []
    for v in values:
        cfg = dataclasses.replace(SPEAR_128, name=f"{name}={v}",
                                  **{k: v for k in field_of})
        rows.append((v, runner.speedup(WORKLOAD, cfg, BASELINE)))
    return rows


def test_ablation_trigger_threshold(benchmark, runner, out_dir):
    """Paper §3.2 uses half the IFQ 'empirically'."""
    def run():
        return _sweep(runner, "trigger-occ", [0.0, 0.25, 0.5, 0.75, 1.0],
                      trigger_occupancy_fraction=None)
    rows = once(benchmark, run)
    t = TextTable("Ablation — trigger occupancy threshold (mcf)",
                  ["occupancy fraction", "speedup vs baseline"])
    for v, s in rows:
        t.add_row(v, s)
    by_frac = dict(rows)
    # triggering needs a reasonably deep queue, but demanding a full one
    # must not be catastrophically worse than the paper's half
    assert by_frac[0.5] > 1.1
    emit(out_dir, "ablation_trigger_threshold", t.render())


def test_ablation_extract_width(benchmark, runner, out_dir):
    """Paper §3.2 fixes extraction at issue_width/2 = 4."""
    def run():
        return _sweep(runner, "extract", [1, 2, 4, 8], extract_width=None)
    rows = once(benchmark, run)
    t = TextTable("Ablation — PE extraction width (mcf)",
                  ["extract width", "speedup vs baseline"])
    for v, s in rows:
        t.add_row(v, s)
    by_w = dict(rows)
    assert by_w[4] >= by_w[1] - 0.02, "wider extraction should not hurt"
    emit(out_dir, "ablation_extract_width", t.render())


def test_ablation_livein_copy_cost(benchmark, runner, out_dir):
    """Paper §3.2 assumes one cycle per live-in copy."""
    def run():
        return _sweep(runner, "copy", [0, 1, 4, 16, 64],
                      livein_copy_cycles=None)
    rows = once(benchmark, run)
    t = TextTable("Ablation — live-in copy cycles per register (mcf)",
                  ["cycles per copy", "speedup vs baseline"])
    for v, s in rows:
        t.add_row(v, s)
    by_c = dict(rows)
    assert by_c[1] >= by_c[64] - 0.02, "expensive copies must not help"
    emit(out_dir, "ablation_livein_copy", t.render())


def test_ablation_pthread_priority(benchmark, runner, out_dir):
    """Paper §3.3 gives the p-thread issue priority."""
    def run():
        pri = runner.speedup(WORKLOAD, dataclasses.replace(
            SPEAR_128, name="pri"), BASELINE)
        nopri = runner.speedup(WORKLOAD, dataclasses.replace(
            SPEAR_128, name="nopri", pthread_priority=False), BASELINE)
        return pri, nopri
    pri, nopri = once(benchmark, run)
    t = TextTable("Ablation — p-thread issue priority (mcf)",
                  ["priority", "speedup vs baseline"])
    t.add_row("on (paper)", pri)
    t.add_row("off", nopri)
    emit(out_dir, "ablation_priority", t.render())


def test_ablation_drain_policy(benchmark, runner, out_dir):
    """DESIGN.md §6: the literal full-ROB drain starves extraction."""
    def run():
        out = {}
        for policy in ("livein", "none", "full"):
            out[policy] = runner.speedup(WORKLOAD, dataclasses.replace(
                SPEAR_128, name=f"drain-{policy}", drain_policy=policy),
                BASELINE)
        return out
    by_policy = once(benchmark, run)
    t = TextTable("Ablation — live-in drain policy (mcf)",
                  ["policy", "speedup vs baseline"])
    for k, v in by_policy.items():
        t.add_row(k, v)
    assert by_policy["livein"] > by_policy["full"], \
        "the literal full drain should underperform (DESIGN.md §6)"
    emit(out_dir, "ablation_drain_policy", t.render())


def test_ablation_wrong_path_model(benchmark, runner, out_dir):
    """DESIGN.md §2: wrong-path handling feeds the trigger logic."""
    def run():
        out = {}
        for mode in ("reconverge", "bubbles", "stall"):
            out[mode] = runner.speedup(WORKLOAD, dataclasses.replace(
                SPEAR_128, name=f"wp-{mode}", wrong_path=mode), BASELINE)
        return out
    by_mode = once(benchmark, run)
    t = TextTable("Ablation — wrong-path fetch model (mcf)",
                  ["model", "speedup vs baseline"])
    for k, v in by_mode.items():
        t.add_row(k, v)
    assert by_mode["reconverge"] >= by_mode["stall"], \
        "starving the IFQ at mispredicts should cost pre-execution coverage"
    emit(out_dir, "ablation_wrong_path", t.render())


def test_ablation_chaining_triggers(benchmark, runner, out_dir):
    """Chaining triggers (Collins et al., related work): a finished
    p-thread may hand off to a dormant d-load regardless of occupancy."""
    def run():
        plain = runner.speedup(WORKLOAD, dataclasses.replace(
            SPEAR_128, name="no-chain"), BASELINE)
        chained = runner.speedup(WORKLOAD, dataclasses.replace(
            SPEAR_128, name="chain", chaining=True), BASELINE)
        # chaining matters most when the occupancy gate binds
        strict = dataclasses.replace(
            SPEAR_128, name="strict", trigger_occupancy_fraction=0.9)
        strict_plain = runner.speedup(WORKLOAD, strict, BASELINE)
        strict_chained = runner.speedup(WORKLOAD, dataclasses.replace(
            strict, name="strict-chain", chaining=True), BASELINE)
        return plain, chained, strict_plain, strict_chained
    plain, chained, strict_plain, strict_chained = once(benchmark, run)
    t = TextTable("Ablation — chaining triggers (mcf)",
                  ["configuration", "speedup vs baseline"])
    t.add_row("half-IFQ gate, no chaining (paper)", plain)
    t.add_row("half-IFQ gate, chaining", chained)
    t.add_row("0.9-IFQ gate, no chaining", strict_plain)
    t.add_row("0.9-IFQ gate, chaining", strict_chained)
    # Record the table even when the shape check below fails, so the
    # experiment log never quotes numbers the model no longer produces.
    emit(out_dir, "ablation_chaining", t.render())
    assert strict_chained >= strict_plain - 0.02


def test_ablation_region_policy(benchmark, runner, out_dir):
    """Region selection (the paper's future work: 'more algorithms on the
    region selection can improve the p-thread performance')."""
    from repro.compiler import SlicerConfig
    from repro.harness import ExperimentRunner

    def run():
        out = {}
        for policy in ("innermost", "budget", "outermost"):
            r = ExperimentRunner(
                slicer_config=SlicerConfig(region_policy=policy))
            base = r.run(WORKLOAD, BASELINE)
            spear = r.run(WORKLOAD, SPEAR_128)
            out[policy] = spear.ipc / base.ipc
        return out
    by_policy = once(benchmark, run)
    t = TextTable("Ablation — prefetching-range region policy (mcf)",
                  ["policy", "speedup vs baseline"])
    for k, v in by_policy.items():
        t.add_row(k, v)
    assert all(v > 0.9 for v in by_policy.values())
    emit(out_dir, "ablation_region_policy", t.render())
