"""Per-program differential evaluation: clean verdicts and injected bugs."""

import numpy as np
import pytest

from repro.fuzz import FuzzCheckSpec, SpecWorkload, evaluate_workload
from repro.fuzz.generator import FuzzWorkload, KernelDials, sample_spec
from repro.pipeline import TimingSimulator

SMALL = KernelDials(mem_words=512, target_instructions=600)


def _small_workload(index=0):
    return FuzzWorkload(101, index, SMALL)


class BrokenRngWorkload(SpecWorkload):
    """A workload whose oracle sees *different* array data than the
    materialized program — the canonical injected divergence."""

    def variant_rng(self, variant):
        if variant == "eval":
            return np.random.default_rng(0xBAD)
        return super().variant_rng(variant)


class TestCleanVerdict:
    def test_clean_program_runs_every_check(self):
        v = evaluate_workload(_small_workload(), FuzzCheckSpec())
        assert not v.diverged
        assert v.classification in ("speedup", "neutral", "regression")
        assert set(v.checks) >= {"halt", "oracle", "slicer", "commits",
                                 "backends", "fills"}
        assert v.halted
        assert v.commits == v.trace_len > 0
        assert v.baseline_ipc > 0 and v.spear_ipc > 0

    def test_sweep_points_adds_sweep_check(self):
        v = evaluate_workload(_small_workload(),
                              FuzzCheckSpec(sweep_points=2))
        assert "sweep" in v.checks
        assert not v.diverged

    def test_verdict_round_trips_to_dict(self):
        v = evaluate_workload(_small_workload(), FuzzCheckSpec())
        d = v.to_dict()
        assert d["name"] == v.name
        assert d["classification"] == v.classification
        assert d["divergences"] == []

    def test_scale_shrinks_budgets_not_verdicts(self):
        v = evaluate_workload(_small_workload(), FuzzCheckSpec(), scale=0.9)
        assert v.halted and not v.diverged


class TestInjectedDivergence:
    def test_oracle_mismatch_is_a_divergence(self):
        base = _small_workload()
        broken = BrokenRngWorkload(base.spec, base.name)
        v = evaluate_workload(broken, FuzzCheckSpec())
        assert v.classification == "divergence"
        assert v.diverged
        assert any(lbl.startswith("oracle") for lbl in v.divergences)

    def test_over_jumping_skip_is_a_backends_divergence(self, monkeypatch):
        """The backends check is not vacuous: a skip that lands one cycle
        past its horizon (wherever no completion is due there) drifts
        from the per-cycle walk on both configs."""
        skip = TimingSimulator._fast_forward

        def over_jump(sim, cycle, stop, *sums):
            jump = skip(sim, cycle, stop, *sums)
            if jump is None or jump[0] in sim._events:
                return jump
            return (jump[0] + 1, *jump[1:])

        monkeypatch.setattr(TimingSimulator, "_fast_forward", over_jump)
        v = evaluate_workload(_small_workload(), FuzzCheckSpec())
        assert v.classification == "divergence"
        assert v.divergences == (
            "backends: baseline: run() drifts from the walk",
            "backends: SPEAR-256: run() drifts from the walk")

    def test_fast_forward_drift_off_the_default_latency(self, monkeypatch):
        """A skip that drifts only away from the default memory latency
        passes the backends check; only the sweep check sees it, at both
        of its points, since neither repeats the default latency."""
        run = TimingSimulator.run

        def drifting(sim):
            result = run(sim)
            if sim._ff and sim.config.latencies.memory != 120:
                result.stats.cycles += 1
            return result

        monkeypatch.setattr(TimingSimulator, "run", drifting)
        swept = evaluate_workload(_small_workload(),
                                  FuzzCheckSpec(sweep_points=2))
        assert swept.divergences == (
            "sweep: mem=40: run() drifts from the walk",
            "sweep: mem=160: run() drifts from the walk")
        clean = evaluate_workload(_small_workload(),
                                  FuzzCheckSpec(sweep_points=0))
        assert not clean.diverged

    def test_divergence_beats_classification(self):
        # Even a would-be speedup classifies as divergence when checks fail.
        base = _small_workload()
        broken = BrokenRngWorkload(base.spec, base.name)
        v = evaluate_workload(broken, FuzzCheckSpec(speedup=0.0))
        assert v.classification == "divergence"


class TestThresholds:
    def test_thresholds_move_the_classification(self):
        v = evaluate_workload(_small_workload(), FuzzCheckSpec())
        ratio = v.speedup
        lo = evaluate_workload(_small_workload(),
                               FuzzCheckSpec(speedup=ratio - 0.01,
                                             regression=0.0))
        hi = evaluate_workload(_small_workload(),
                               FuzzCheckSpec(speedup=9.0,
                                             regression=ratio + 0.01))
        assert lo.classification == "speedup"
        assert hi.classification == "regression"

    def test_check_payload_is_stable(self):
        a = FuzzCheckSpec().payload()
        b = FuzzCheckSpec().payload()
        assert a == b
        assert FuzzCheckSpec(sweep_points=2).payload() != a


class TestDeterminism:
    def test_same_workload_same_verdict(self):
        a = evaluate_workload(_small_workload(3), FuzzCheckSpec())
        b = evaluate_workload(_small_workload(3), FuzzCheckSpec())
        assert a == b
