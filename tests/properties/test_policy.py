"""Pinned end-to-end properties of the trigger-policy layer.

Three contracts from docs/adaptive-policy.md, each enforced in full:

* **Byte-identity of the default.**  ``--policy fixed`` (and no policy
  at all) must reproduce the pre-policy tree bit-for-bit.  The golden
  digests below were recorded on the tree *before* the policy layer
  existed; any byte that moves under the default policy — in results,
  timelines, or traced event streams — fails here.
* **Job-count independence.**  Adaptive cells through the parallel
  engine produce the same bytes under ``--jobs 1`` and ``--jobs 4``
  (this is the property that caught the merge-seeding bug where worker
  results landed under the wrong policy key).
* **Crash/rerun independence.**  An interrupted adaptive run, rerun
  over the same cache, matches an uninterrupted one exactly.
"""

import hashlib
import json

import pytest

from repro.core.configs import BASELINE, SPEAR_128
from repro.harness import (DiskCache, ExecutionPolicy, ExperimentRunner,
                           RunJournal, ablate_policy, ablate_policy_cells,
                           report_trace_spec, run_cells)
from repro.observe import serialize_events

# ---------------------------------------------------------------------------
# Golden digests: recorded on the pre-policy tree (commit 625dab5),
# full scale, default latencies, reference kernel.
# ---------------------------------------------------------------------------

GOLDEN_RESULTS = {
    ("ll4", "baseline"):
        "bd716931e7dff31c227ee83506a17d11e55920dcaf05cdd8d416706087aed18f",
    ("ll4", "SPEAR-128"):
        "1efed5d5b9ff7eddb7fbbd171711302ed38cc01a1bdebc903f1b5ccd9a09084b",
    ("mcf", "baseline"):
        "1ee07d0e99e0d359e50cb9b348251438952fbb60b9f1fdb1fdbbe86d54fe32c5",
    ("mcf", "SPEAR-128"):
        "3fd9de25131599603605427d95d2e5e39bb46d4f0221cbfaf842dc97f7d112eb",
    ("fzgain", "baseline"):
        "e15e1102e175278dacae9d67a4f9538a7b2ed07a5fcfbeb6fd298e700f2da32d",
    ("fzgain", "SPEAR-128"):
        "e57401009f7b3a7889182b32a3846dd05930a23694935ecd7dc6812832dec379",
}

GOLDEN_TRACED = {
    ("ll4", "baseline"):
        "a790cede84e663ddc986f0c3dee93f31ed770185691e6c12e98cc3cfaaa79548",
    ("ll4", "SPEAR-128"):
        "1ab2f76ba031a29c20b3798edfb81d61211a640f6aed6729218146dc699e9b0d",
    ("mcf", "baseline"):
        "b7632e45b8806b7c95db4d6d9743211f7f88c8207aa4169ce12d797f93bfeeb2",
    ("mcf", "SPEAR-128"):
        "98bf9fa7dcd153251e02d86595b4eb4871cf6cb95aa27d811a6ba8eaa3c6f7cb",
    ("fzgain", "baseline"):
        "3c5da669ecea4d7d7a64aeaa72e5ff19f09786000c993f75a39c349d6f87e425",
    ("fzgain", "SPEAR-128"):
        "89ef1fe12ad08909a712092d6bf3a433921e2d4ac8912bb591fc08166092209b",
}

#: ``report_trace_spec()`` captures (pre-execution kinds only, unbounded),
#: recorded before the simulator learned to build only the kinds a sink
#: keeps: the filtered capture must not move.
GOLDEN_REPORT_TRACED = {
    ("ll4", "baseline"):
        "87d49d404d90b3aa055d656546b5ba69ac6e55895ed1153ab72318ad8d36203a",
    ("ll4", "SPEAR-128"):
        "c0f3d6f63c209f4dbfa49c4623d987282cc7388de5ffa683d49de6cbd6698893",
    ("mcf", "baseline"):
        "6ee1ce07320567494be674673eca07e9907e60f3f4e32d575e11180289fa2c13",
    ("mcf", "SPEAR-128"):
        "43851f134e7deb8ad9a1c7179f1568a2e2bf7704e5689a8926dbb345e4649840",
}

CONFIGS = {"baseline": BASELINE, "SPEAR-128": SPEAR_128}


def result_digest(res):
    blob = json.dumps({"summary": res.summary(), "memory": res.memory,
                       "predictor": res.predictor,
                       "timeline": res.timeline},
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def traced_digest(tr):
    blob = json.dumps({"summary": tr.result.summary(),
                       "timeline": tr.result.timeline,
                       "emitted": tr.emitted, "dropped": tr.dropped},
                      sort_keys=True, default=repr)
    return hashlib.sha256(
        (blob + "\n" + serialize_events(tr.events)).encode()).hexdigest()


@pytest.fixture(scope="module")
def full_runner():
    return ExperimentRunner()


@pytest.mark.parametrize("workload,config", sorted(GOLDEN_RESULTS))
def test_fixed_policy_results_match_pre_policy_golden(full_runner, workload,
                                                      config):
    res = full_runner.run(workload, CONFIGS[config], policy="fixed")
    assert result_digest(res) == GOLDEN_RESULTS[workload, config]


@pytest.mark.parametrize("workload,config", sorted(GOLDEN_TRACED))
def test_fixed_policy_traces_match_pre_policy_golden(full_runner, workload,
                                                     config):
    tr = full_runner.run_traced(workload, CONFIGS[config], policy="fixed")
    assert traced_digest(tr) == GOLDEN_TRACED[workload, config]


@pytest.mark.parametrize("workload,config", sorted(GOLDEN_REPORT_TRACED))
def test_report_spec_traces_match_golden(full_runner, workload, config):
    tr = full_runner.run_traced(workload, CONFIGS[config],
                                spec=report_trace_spec())
    assert traced_digest(tr) == GOLDEN_REPORT_TRACED[workload, config]


# ---------------------------------------------------------------------------
# Adaptive determinism across the parallel engine
# ---------------------------------------------------------------------------

def _cell_digests(runner, cells):
    out = {}
    for cell in cells:
        res = runner.run(cell.workload, cell.config, policy=cell.policy)
        blob = json.dumps({"summary": res.summary(), "memory": res.memory,
                           "predictor": res.predictor,
                           "policy": res.policy},
                          sort_keys=True, default=repr)
        out[cell.workload, cell.config.name, cell.policy] = \
            hashlib.sha256(blob.encode()).hexdigest()
    return out


def test_adaptive_cells_identical_across_job_counts():
    cells = ablate_policy_cells(["mcf", "fzgain"])

    serial = ExperimentRunner(instruction_scale=0.05)
    assert run_cells(serial, cells, jobs=1).completed
    parallel = ExperimentRunner(instruction_scale=0.05)
    assert run_cells(parallel, cells, jobs=4).completed

    assert _cell_digests(serial, cells) == _cell_digests(parallel, cells)
    assert (ablate_policy(serial, ["mcf", "fzgain"]).table().render()
            == ablate_policy(parallel, ["mcf", "fzgain"]).table().render())


def test_adaptive_cells_crash_resume_byte_identical(tmp_path, monkeypatch):
    # Cell 2 (mcf under adaptive-epoch) crashes persistently; the run
    # completes keep-going with one failure, then a plain rerun finds the
    # ok cells in the cache, recomputes only the failed cell, and matches
    # an uninterrupted run byte-for-byte.
    cells = ablate_policy_cells(["mcf"])
    cache = DiskCache(tmp_path / "cache")

    monkeypatch.setenv("REPRO_FAULTS", "crash:cell=2:times=0")
    broken = ExperimentRunner(instruction_scale=0.05, cache=cache)
    journal = RunJournal.for_run("ablate-policy", cells, broken,
                                 root=tmp_path / "j")
    first = run_cells(broken, cells, jobs=2,
                      policy=ExecutionPolicy(retries=1, backoff=0),
                      journal=journal)
    assert first.failed == 1 and first.ok == 3

    monkeypatch.delenv("REPRO_FAULTS")
    resumed = ExperimentRunner(instruction_scale=0.05, cache=cache)
    journal2 = RunJournal.for_run("ablate-policy", cells, resumed,
                                  root=tmp_path / "j")
    assert journal2.path == journal.path
    second = run_cells(resumed, cells, jobs=2, journal=journal2)
    assert second.completed and second.ok == 4
    # Only the crashed adaptive-epoch cell and the one further epoch it
    # runs miss and store; the three finished cells are hits.  Its
    # epoch 0 is the fixed SPEAR-128 result, one more hit unless the
    # same worker already holds it in memory.
    results = second.cache_stats["results"]
    assert (results["misses"], results["stores"]) == (2, 2)
    assert results["hits"] in (3, 4)

    reference = ExperimentRunner(instruction_scale=0.05)
    assert run_cells(reference, cells, jobs=1).completed
    assert _cell_digests(resumed, cells) == _cell_digests(reference, cells)
    assert (ablate_policy(resumed, ["mcf"]).table().render()
            == ablate_policy(reference, ["mcf"]).table().render())
