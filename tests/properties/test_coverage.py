"""Coverage-map properties: run-shape independence and facet cover.

The coverage engine's contract is that a behaviour map depends only on
*what the programs did*, never on how the campaign was executed:

* **job independence** — a campaign's coverage map is byte-identical at
  ``--jobs 1`` and ``--jobs 2`` (verdicts merge in submission order);
* **backend independence** — a program's behaviour vector is identical
  whether the primary timing kernel is ``reference`` or
  ``fast-forward`` (the banding only reads counters both backends
  produce byte-identically);
* **accumulation-order independence** — maps are counters, so any
  permutation of the same verdicts serializes to the same bytes;
* **distillation cover** — the distilled corpus covers *exactly* the
  facets of its source verdicts (no facet lost, none invented), and no
  entry is redundant.

Every test is derandomized (fixed example stream) so CI is exactly
reproducible.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import (Arm, FuzzCheckSpec, GuidedCampaignSpec, coverage_map,
                        distill, evaluate_workload, run_guided_campaign,
                        vector_of)
from repro.fuzz.differential import BEHAVIOR_FIELDS
from repro.fuzz.generator import (KernelDials, encode_name,
                                  fuzz_workload_from_name)
from repro.harness import DiskCache, ExecutionPolicy, ExperimentRunner

from ..fuzz.test_coverage import verdict

SETTINGS = dict(derandomize=True, deadline=None, print_blob=False)

FAST = ExecutionPolicy(retries=1, backoff=0, max_pool_rebuilds=1)
SMALL = KernelDials(mem_words=512, target_instructions=600)

#: Raw behaviour tuples for the synthetic-verdict properties: every
#: counter small enough to land in any band, none unrealistically huge.
behavior_strategy = st.tuples(
    *[st.integers(0, 1000) for _ in BEHAVIOR_FIELDS])

_dirs = itertools.count()


@settings(max_examples=4, **SETTINGS)
@given(seed=st.integers(0, 50))
def test_vector_is_backend_independent(seed):
    workload = fuzz_workload_from_name(encode_name(seed, 0, SMALL))
    forward = evaluate_workload(workload, FuzzCheckSpec())
    flipped = evaluate_workload(workload, FuzzCheckSpec(
        backends=("fast-forward", "reference")))
    assert vector_of(forward).key == vector_of(flipped).key
    assert forward.behavior == flipped.behavior


@settings(max_examples=3, **SETTINGS)
@given(seed=st.integers(0, 50))
def test_map_is_job_count_independent(seed, tmp_path_factory):
    base = tmp_path_factory.mktemp("cov") / str(next(_dirs))
    spec = GuidedCampaignSpec(seed=seed, count=2,
                              arms=(Arm("small", dials=SMALL),),
                              sweep_every=0)
    maps = []
    for jobs in (1, 2):
        runner = ExperimentRunner(cache=DiskCache(base / f"j{jobs}"))
        result = run_guided_campaign(spec, runner, jobs=jobs, policy=FAST,
                                     journaled=False)
        maps.append(coverage_map(result.verdicts))
    assert maps[0].to_json() == maps[1].to_json()
    assert maps[0].content_hash() == maps[1].content_hash()


@settings(max_examples=20, **SETTINGS)
@given(behaviors=st.lists(behavior_strategy, min_size=2, max_size=9),
       rot=st.integers(0, 8))
def test_map_is_accumulation_order_independent(behaviors, rot):
    vs = [verdict(name=encode_name(0, i, SMALL), behavior=b)
          for i, b in enumerate(behaviors)]
    rotated = vs[rot % len(vs):] + vs[:rot % len(vs)]
    assert coverage_map(vs).to_json() == coverage_map(rotated).to_json()


@settings(max_examples=10, **SETTINGS)
@given(behaviors=st.lists(behavior_strategy, min_size=1, max_size=8))
def test_distilled_corpus_covers_exactly_the_source_facets(behaviors):
    vs = [verdict(name=encode_name(0, i, SMALL), behavior=b)
          for i, b in enumerate(behaviors)]
    corpus = distill(vs)
    covered = {f for e in corpus for f in e.facets}
    source = {f for v in vs for f in vector_of(v).facets()}
    assert covered == source
    for entry in corpus:
        others = {f for e in corpus if e is not entry for f in e.facets}
        assert not set(entry.facets) <= others
