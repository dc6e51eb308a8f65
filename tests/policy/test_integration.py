"""Integration tests: the policy layer through the harness and pipeline.

Everything runs on a down-scaled runner (5% instruction budget) so the
whole module stays fast; the full-scale byte-identity pins live in
``tests/properties/test_policy.py``.
"""

import json

import pytest

from repro.core.configs import BASELINE, SPEAR_128
from repro.harness import Cell, ExperimentRunner, ablate_policy_cells
from repro.harness.journal import cell_key
from repro.observe.events import POLICY
from repro.policy import make_policy

from ..conftest import timing_sim


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instruction_scale=0.05)


def _digest(res):
    blob = json.dumps({"summary": res.summary(), "memory": res.memory,
                       "predictor": res.predictor,
                       "timeline": res.timeline},
                      sort_keys=True, default=repr)
    return blob


# ---------------------------------------------------------------------------
# Effective policy and memo-key separation
# ---------------------------------------------------------------------------

def test_effective_policy_resolution(runner):
    assert runner.effective_policy(None, SPEAR_128) == "fixed"
    assert runner.effective_policy("fixed", SPEAR_128) == "fixed"
    assert runner.effective_policy("adaptive-epoch",
                                   SPEAR_128) == "adaptive-epoch"
    # baselines have no trigger to steer: always fixed
    assert runner.effective_policy("adaptive-epoch", BASELINE) == "fixed"
    assert runner.effective_policy("adaptive-phase", BASELINE) == "fixed"
    with pytest.raises(ValueError):
        runner.effective_policy("bogus", SPEAR_128)


def test_policy_memo_keys_are_separate(runner):
    runner.run("ll4", SPEAR_128)
    assert runner.has(Cell("ll4", SPEAR_128))
    assert runner.has(Cell("ll4", SPEAR_128, policy="fixed"))
    assert not runner.has(Cell("ll4", SPEAR_128, policy="adaptive-phase"))

    runner.run("ll4", SPEAR_128, policy="adaptive-phase")
    assert runner.has(Cell("ll4", SPEAR_128, policy="adaptive-phase"))
    # the fixed entry is untouched
    assert runner.has(Cell("ll4", SPEAR_128, policy="fixed"))


def test_baseline_adaptive_request_shares_the_fixed_memo(runner):
    a = runner.run("ll4", BASELINE)
    b = runner.run("ll4", BASELINE, policy="adaptive-epoch")
    assert a is b                       # same memo entry, same object


def test_fixed_run_carries_no_policy_summary(runner):
    res = runner.run("ll4", SPEAR_128)
    assert res.policy is None
    assert "policy" not in res.summary()


# ---------------------------------------------------------------------------
# adaptive-epoch through the runner
# ---------------------------------------------------------------------------

def test_epoch_run_attaches_summary_and_never_loses_to_fixed(runner):
    fixed = runner.run("mcf", SPEAR_128)
    res = runner.run("mcf", SPEAR_128, policy="adaptive-epoch")
    pol = res.policy
    assert pol["name"] == "adaptive-epoch"
    assert pol["baseline_ipc"] == fixed.ipc
    assert res.ipc >= fixed.ipc         # the no-regression guarantee
    assert pol["trajectory"].startswith("L")
    assert res.summary()["policy"] == pol["label"]


# ---------------------------------------------------------------------------
# adaptive-phase through the runner
# ---------------------------------------------------------------------------

def test_phase_run_attaches_summary(runner):
    res = runner.run("mcf", SPEAR_128, policy="adaptive-phase")
    pol = res.policy
    assert pol["name"] == "adaptive-phase"
    assert res.summary()["policy"] == pol["label"]
    # plain runs stay unsampled; the decision series rides sampled/traced
    # runs (see test_traced_phase_run_emits_policy_events)
    assert res.timeline is None


def test_phase_run_is_deterministic(runner):
    a = runner.run("mcf", SPEAR_128, policy="adaptive-phase")
    fresh = ExperimentRunner(instruction_scale=0.05)
    b = fresh.run("mcf", SPEAR_128, policy="adaptive-phase")
    assert _digest(a) == _digest(b)
    assert a.policy == b.policy


def test_phase_run_backends_byte_identical(runner):
    """``run()`` clamps idle skips to decision boundaries, so it must
    reproduce the per-cycle walk's decision sequence exactly — and both
    must equal the harness's adaptive-phase run."""
    for name in ("ll4", "mcf"):
        art = runner.artifacts(name)

        def run(walk):
            controller = make_policy("adaptive-phase").make_controller(
                SPEAR_128)
            return timing_sim(art.eval_trace, SPEAR_128, art.binary.table,
                              walk=walk, warmup=art.warmup_trace,
                              policy=controller).run()

        skip, walk = run(False), run(True)
        assert _digest(skip) == _digest(walk), name
        assert skip.policy == walk.policy, name
        harness = runner.run(name, SPEAR_128, policy="adaptive-phase")
        assert _digest(harness) == _digest(walk), name
        assert harness.policy == walk.policy, name


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

def test_traced_phase_run_emits_policy_events(runner):
    tr = runner.run_traced("mcf", SPEAR_128, capacity=None,
                           policy="adaptive-phase")
    events = [e for e in tr.events if e.kind == POLICY]
    series = tr.result.timeline["policy"]
    assert len(events) == len(series) > 0
    assert series[0]["action"] == "start"
    for ev, dec in zip(events, series):
        assert (ev.thread, ev.pc, ev.trace_idx) == (-1, -1, -1)
        assert ev.cycle == dec["cycle"]
        assert ev.info.startswith(f"{dec['action']} level=L{dec['level']}")

    pol = tr.result.policy
    assert pol["trials"] == sum(d["action"] == "trial" for d in series)
    assert pol["adopted"] == sum(d["action"] == "adopt" for d in series)
    assert pol["reverted"] == sum(d["action"] == "revert" for d in series)


def test_traced_fixed_run_has_no_policy_events(runner):
    tr = runner.run_traced("ll4", SPEAR_128, capacity=None)
    assert not any(e.kind == POLICY for e in tr.events)
    assert "policy" not in tr.result.timeline


# ---------------------------------------------------------------------------
# Journal keys
# ---------------------------------------------------------------------------

def test_cell_keys_separate_policies_and_keep_fixed_stable(runner):
    cells = ablate_policy_cells(["ll4"])
    keys = [cell_key(runner, c) for c in cells]
    assert len(set(keys)) == len(keys)  # every cell journals distinctly

    fixed = next(c for c in cells if c.policy == "fixed")
    unpolicied = type(fixed)(workload=fixed.workload, config=fixed.config)
    # `--policy fixed` journals under the pre-policy key
    assert cell_key(runner, fixed) == cell_key(runner, unpolicied)
