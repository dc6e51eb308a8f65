"""Unit tests for the trigger-policy layer (`repro.policy`).

The ladder, the control law and the phase controller are pure integer
state machines, so every test here is exact — no tolerances.  The
end-to-end properties (byte-identity of ``--policy fixed``, adaptive
determinism across job counts and crash/resume) live in
``tests/properties/test_policy.py``.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core.configs import BASELINE, SPEAR_128
from repro.policy import (DEFAULT_POLICY, LEVELS, MIN_FILLS, POLICIES,
                          AdaptiveEpochPolicy, AdaptivePhasePolicy,
                          FixedPolicy, PhaseController, PolicyProtocol,
                          PolicySignals, make_policy, propose,
                          resolve_policy, start_level)
from repro.policy.controller import COOLDOWN_WINDOWS


# ---------------------------------------------------------------------------
# Names and registry
# ---------------------------------------------------------------------------

def test_policy_registry():
    assert DEFAULT_POLICY == "fixed"
    assert POLICIES == ("fixed", "adaptive-epoch", "adaptive-phase")
    assert resolve_policy(None) == "fixed"
    for name in POLICIES:
        assert resolve_policy(name) == name


def test_resolve_policy_rejects_unknown():
    with pytest.raises(ValueError, match="unknown policy 'nope'"):
        resolve_policy("nope")
    with pytest.raises(ValueError):
        make_policy("adaptive")  # prefix alone is not a name


def test_make_policy_types():
    assert isinstance(make_policy(None), FixedPolicy)
    assert isinstance(make_policy("fixed"), FixedPolicy)
    assert isinstance(make_policy("adaptive-epoch"), AdaptiveEpochPolicy)
    assert isinstance(make_policy("adaptive-phase"), AdaptivePhasePolicy)
    for name in POLICIES:
        pol = make_policy(name)
        assert isinstance(pol, PolicyProtocol)
        assert pol.name == name


def test_fixed_policy_is_inert():
    pol = FixedPolicy()
    assert pol.make_controller(SPEAR_128) is None
    assert pol.converge(lambda cfg: None, SPEAR_128) is None


def test_phase_policy_skips_non_spear_configs():
    assert AdaptivePhasePolicy().make_controller(BASELINE) is None
    assert AdaptivePhasePolicy().make_controller(SPEAR_128) is not None


# ---------------------------------------------------------------------------
# The ladder and start_level
# ---------------------------------------------------------------------------

def test_ladder_is_ordered_by_aggressiveness():
    # Fractions non-increasing, chaining never turns back off.
    fracs = [f for f, _ in LEVELS]
    assert fracs == sorted(fracs, reverse=True)
    chains = [c for _, c in LEVELS]
    assert chains == sorted(chains)  # False* then True*


def test_start_level_exact_match():
    assert start_level(SPEAR_128) == 1  # the paper's point is L1
    for i, (frac, chain) in enumerate(LEVELS):
        cfg = dataclasses.replace(SPEAR_128, trigger_occupancy_fraction=frac,
                                  chaining=chain)
        assert start_level(cfg) == i


def test_start_level_nearest_same_chaining():
    cfg = dataclasses.replace(SPEAR_128, trigger_occupancy_fraction=0.6)
    assert start_level(cfg) == 1  # |0.5-0.6| beats |0.75-0.6|
    cfg = dataclasses.replace(SPEAR_128, trigger_occupancy_fraction=0.1,
                              chaining=True)
    assert start_level(cfg) == 4  # nearest chaining rung


def test_start_level_tie_resolves_low():
    # 0.375 is equidistant from L1 (0.5) and L2 (0.25): lower rung wins.
    cfg = dataclasses.replace(SPEAR_128, trigger_occupancy_fraction=0.375)
    assert start_level(cfg) == 1


# ---------------------------------------------------------------------------
# Signals and the control law
# ---------------------------------------------------------------------------

def test_window_since_is_componentwise_delta():
    a = PolicySignals(fills=10, timely=4, late=3, unused=2, redundant=1)
    b = PolicySignals(fills=25, timely=9, late=8, unused=5, redundant=3)
    w = b.window_since(a)
    assert w == PolicySignals(fills=15, timely=5, late=5, unused=3,
                              redundant=2)


def test_propose_holds_on_insufficient_signal():
    thin = PolicySignals(fills=MIN_FILLS - 1, late=MIN_FILLS - 1)
    assert propose(1, thin) == (1, "hold:insufficient-signal")


def test_propose_de_escalates_on_unused_heavy():
    sig = PolicySignals(fills=20, timely=3, late=2, unused=6)
    assert propose(2, sig) == (1, "de-escalate:unused-heavy")
    # clamped at the bottom rung
    assert propose(0, sig) == (0, "de-escalate:unused-heavy")


def test_propose_escalates_on_late_heavy():
    sig = PolicySignals(fills=20, timely=2, late=10, unused=0)
    assert propose(1, sig) == (2, "escalate:late-heavy")
    # clamped at the top rung
    top = len(LEVELS) - 1
    assert propose(top, sig) == (top, "escalate:late-heavy")


def test_propose_unused_heavy_outranks_late_heavy():
    # Both conditions true: waste wins (de-escalate checked first).
    sig = PolicySignals(fills=30, timely=1, late=5, unused=10)
    assert propose(2, sig) == (1, "de-escalate:unused-heavy")


def test_propose_holds_when_balanced():
    sig = PolicySignals(fills=20, timely=10, late=5, unused=5)
    assert propose(3, sig) == (3, "hold:balanced")


# ---------------------------------------------------------------------------
# PhaseController state machine (driven with a stub simulator)
# ---------------------------------------------------------------------------

class _StubSim:
    """Just enough simulator surface for the controller: live fill
    counters, the committed count, the two knobs it mutates, and the
    sink it emits ``policy-decision`` events to."""

    def __init__(self, config=SPEAR_128, tracer=None):
        from repro.observe.events import POLICY
        self.config = config
        self._committed = 0
        self._sinks = {POLICY: tracer}
        self._trigger_occ = config.trigger_occupancy
        self._chaining = config.chaining
        self._fills = SimpleNamespace(fills=0, timely=0, late=0, unused=0,
                                      redundant=0)
        from repro.memory.hierarchy import PTHREAD_FILL
        self.mem = SimpleNamespace(fill_stats={PTHREAD_FILL: self._fills})

    def late_heavy_window(self, n=20):
        self._fills.fills += n
        self._fills.late += n


def test_controller_records_start_on_attach():
    ctl = PhaseController(SPEAR_128)
    ctl.attach(_StubSim())
    assert [d["action"] for d in ctl.decisions] == ["start"]
    assert ctl.decisions[0] == {"cycle": 0, "action": "start", "level": 1,
                                "fraction": 0.5, "chaining": 0, "reason": ""}


def test_controller_holds_without_signal():
    sim = _StubSim()
    ctl = PhaseController(SPEAR_128)
    ctl.attach(sim)
    for cycle in range(999, 10000, 1000):
        sim._committed += 500
        assert ctl.tick(sim, cycle) is False
    assert [d["action"] for d in ctl.decisions] == ["start"]
    assert (sim._trigger_occ, sim._chaining) == \
        (SPEAR_128.trigger_occupancy, SPEAR_128.chaining)


def test_controller_trial_then_adopt():
    sim = _StubSim()
    ctl = PhaseController(SPEAR_128)
    ctl.attach(sim)

    sim.late_heavy_window()
    sim._committed = 1000
    assert ctl.tick(sim, 999) is True          # trial: L1 -> L2
    assert (ctl.level, ctl.point) == (2, LEVELS[2])
    assert sim._trigger_occ == int(SPEAR_128.ifq_size * 0.25)
    assert ctl.trials == 1

    sim._committed = 2100                       # 1100 >= 1000: adopt
    assert ctl.tick(sim, 1999) is False
    assert ctl.adopted == 1 and ctl.reverted == 0
    assert ctl.level == 2
    assert [d["action"] for d in ctl.decisions] == ["start", "trial",
                                                    "adopt"]


def test_controller_trial_then_revert():
    sim = _StubSim()
    ctl = PhaseController(SPEAR_128)
    ctl.attach(sim)

    sim.late_heavy_window()
    sim._committed = 1000
    assert ctl.tick(sim, 999) is True          # trial: L1 -> L2

    sim._committed = 1900                       # 900 < 1000: revert
    assert ctl.tick(sim, 1999) is True
    assert ctl.reverted == 1 and ctl.adopted == 0
    assert (ctl.level, ctl.point) == (1, (0.5, False))
    assert sim._trigger_occ == int(SPEAR_128.ifq_size * 0.5)
    assert [d["action"] for d in ctl.decisions] == ["start", "trial",
                                                    "revert"]


def test_controller_cooldown_suppresses_moves():
    sim = _StubSim()
    ctl = PhaseController(SPEAR_128)
    ctl.attach(sim)

    sim.late_heavy_window()
    sim._committed = 1000
    ctl.tick(sim, 999)                          # trial
    sim._committed = 2000
    ctl.tick(sim, 1999)                         # adopt -> cooldown starts

    for i in range(COOLDOWN_WINDOWS):           # signal present, but held
        sim.late_heavy_window()
        sim._committed += 1000
        assert ctl.tick(sim, 2999 + 1000 * i) is False
    assert ctl.trials == 1                      # no new trial during cooldown

    sim.late_heavy_window()
    sim._committed += 1000
    assert ctl.tick(sim, 2999 + 1000 * COOLDOWN_WINDOWS) is True
    assert ctl.trials == 2                      # first post-cooldown boundary


def test_controller_off_ladder_config_keeps_its_point_until_first_move():
    cfg = dataclasses.replace(SPEAR_128, trigger_occupancy_fraction=0.6)
    sim = _StubSim(cfg)
    ctl = PhaseController(cfg)
    ctl.attach(sim)
    assert ctl.level == 1 and ctl.point == (0.6, False)  # not snapped

    sim.late_heavy_window()
    sim._committed = 1000
    ctl.tick(sim, 999)                          # first move snaps to a rung
    assert ctl.point == LEVELS[2]


def test_controller_summary_and_series():
    sim = _StubSim()
    ctl = PhaseController(SPEAR_128)
    ctl.attach(sim)
    sim.late_heavy_window()
    sim._committed = 1000
    ctl.tick(sim, 999)
    sim._committed = 2000
    ctl.tick(sim, 1999)

    s = ctl.summary()
    assert s["name"] == "adaptive-phase"
    assert (s["trials"], s["adopted"], s["reverted"]) == (1, 1, 0)
    assert (s["final_level"], s["final_fraction"]) == (2, 0.25)
    assert s["label"] == ("adaptive-phase level=L2 frac=0.25 chain=off "
                          "trials=1 adopted=1 reverted=0")

    series = ctl.series()
    assert series == ctl.decisions and series is not ctl.decisions
    assert all(set(d) == {"cycle", "action", "level", "fraction",
                          "chaining", "reason"} for d in series)


def test_controller_emits_policy_trace_events():
    from repro.observe.events import POLICY

    emitted = []
    tracer = SimpleNamespace(emit=emitted.append)
    sim = _StubSim(tracer=tracer)
    ctl = PhaseController(SPEAR_128)
    ctl.attach(sim)
    sim.late_heavy_window()
    sim._committed = 1000
    ctl.tick(sim, 999)

    assert len(emitted) == len(ctl.decisions) == 2
    start, trial = emitted
    assert all(e.kind == POLICY and e.thread == -1 and e.pc == -1
               and e.trace_idx == -1 for e in emitted)
    assert start.info == "start level=L1 frac=0.5 chain=off"
    assert trial.info == ("trial level=L2 frac=0.25 chain=off "
                          "reason=escalate:late-heavy")


# ---------------------------------------------------------------------------
# AdaptiveEpochPolicy.converge (driven with stub results)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Result:
    """Enough of a PipelineResult for converge(): a dataclass, because
    the adopted epoch is tagged via dataclasses.replace."""
    ipc: float
    memory: dict
    policy: dict | None = None


def _stub_result(ipc, fills):
    return _Result(
        ipc=ipc,
        memory={"fills": {"pthread": dict(
            fills=fills.fills, timely=fills.timely, late=fills.late,
            unused=fills.unused, redundant=fills.redundant)}})


def test_epoch_converge_holds_on_balanced_counters():
    balanced = PolicySignals(fills=50, timely=30, late=10, unused=5)
    runs = []

    def run_fn(cfg):
        runs.append(cfg)
        return _stub_result(1.0, balanced)

    result, summary = AdaptiveEpochPolicy().converge(run_fn, SPEAR_128)
    assert len(runs) == 1                        # epoch 0 only
    assert summary["epochs"] == 1
    assert summary["trajectory"] == "L1"
    assert summary["stop_reason"] == "hold:balanced"
    assert summary["final_level"] == 1
    assert result.policy == summary


def test_epoch_converge_adopts_on_ipc_gain():
    late_heavy = PolicySignals(fills=50, timely=5, late=40)
    balanced = PolicySignals(fills=50, timely=40, late=5)
    by_frac = {0.5: _stub_result(1.0, late_heavy),
               0.25: _stub_result(1.1, balanced)}

    def run_fn(cfg):
        return by_frac[cfg.trigger_occupancy_fraction]

    result, summary = AdaptiveEpochPolicy().converge(run_fn, SPEAR_128)
    assert summary["epochs"] == 2
    assert summary["trajectory"] == "L1->L2"
    assert summary["final_level"] == 2
    assert summary["final_fraction"] == 0.25
    assert summary["baseline_ipc"] == 1.0
    assert summary["final_ipc"] == 1.1
    assert result.ipc == 1.1


def test_epoch_converge_rejects_ipc_drop():
    late_heavy = PolicySignals(fills=50, timely=5, late=40)
    by_frac = {0.5: _stub_result(1.0, late_heavy),
               0.25: _stub_result(0.9, late_heavy)}

    def run_fn(cfg):
        return by_frac[cfg.trigger_occupancy_fraction]

    result, summary = AdaptiveEpochPolicy().converge(run_fn, SPEAR_128)
    assert summary["stop_reason"] == "rejected:ipc-drop"
    assert summary["final_level"] == 1           # incumbent kept
    assert summary["final_ipc"] == 1.0
    assert result.ipc == 1.0                     # never worse than fixed
    assert summary["label"].startswith("adaptive-epoch level=L1")


def test_epoch_converge_respects_epoch_budget():
    # Forever-late counters with ever-improving IPC: walk stops at the
    # top of the ladder (hold there would need one more proposal) or at
    # the budget, whichever first.  From L1 the walk L2, L3, L4 is three
    # adopted epochs; at L4 escalation clamps and the proposal repeats
    # the level, stopping the loop.
    late_heavy = PolicySignals(fills=50, timely=5, late=40)
    ipc = iter([1.0, 1.1, 1.2, 1.3, 1.4, 1.5])

    def run_fn(cfg):
        return _stub_result(next(ipc), late_heavy)

    result, summary = AdaptiveEpochPolicy().converge(run_fn, SPEAR_128)
    assert summary["epochs"] == 4                # L1 + three moves
    assert summary["trajectory"] == "L1->L2->L3->L4"
    assert summary["final_level"] == len(LEVELS) - 1
    assert summary["stop_reason"] == "escalate:late-heavy"  # clamped repeat
