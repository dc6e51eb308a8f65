"""``Workload.spec_of`` exports and their mutation round trips.

The exports are *behavioural ports*, not byte ports: each hand-built
workload re-expresses its access-pattern skeleton in the fuzz
generator's KernelSpec IR at generator scale.  The materialized program
is therefore **not** byte- or IPC-identical to the original workload —
what is pinned instead:

* the spec JSON round-trips byte-identically (the corpus/pinning
  contract);
* materialization is byte-deterministic (same spec + name -> same
  encoded program), which is what makes ``fuzzmut:`` names replayable;
* every port evaluates divergence-free and keeps its expected
  classification, and the five ports land in five distinct coverage
  bins (they were exported to seed distinct behavioural regimes);
* a mutated spec survives the same JSON round trip and rebuilds the
  same bytes from its ``fuzzmut:`` name alone.
"""

import numpy as np
import pytest

from repro.fuzz import (FuzzCheckSpec, SpecWorkload, evaluate_workload,
                        spec_from_json, spec_to_json, vector_of)
from repro.fuzz.schedule import (MUT_BASES, MutWorkload, encode_mut_name,
                                 mutate_spec)
from repro.workloads.base import get_workload

#: Every workload exporting a spec (= every mutation base, by design).
EXPORTERS = MUT_BASES

EXPECTED_CLASS = {
    "pointer": "speedup",      # serial chase: SPEAR's headline case
    "update": "speedup",       # chase + gather + stores
    "matrix": "speedup",       # dual-stream gather/accumulate
    "field": "speedup",        # cache-resident scan: small residual gain
    "ll4": "speedup",          # strided fp reduction
}


@pytest.mark.parametrize("name", EXPORTERS)
def test_spec_json_round_trips_byte_identically(name):
    spec = get_workload(name).spec_of()
    text = spec_to_json(spec)
    assert spec_from_json(text) == spec
    assert spec_to_json(spec_from_json(text)) == text


@pytest.mark.parametrize("name", EXPORTERS)
def test_materialization_is_byte_deterministic(name):
    spec = get_workload(name).spec_of()
    a = SpecWorkload(spec, f"port:{name}").program("eval")
    b = SpecWorkload(spec, f"port:{name}").program("eval")
    assert a.encode().tobytes() == b.encode().tobytes()
    # mem_words must be a power of two: address masking depends on it.
    assert spec.mem_words & (spec.mem_words - 1) == 0


@pytest.mark.parametrize("name", EXPORTERS)
def test_port_evaluates_clean_with_expected_class(name):
    spec = get_workload(name).spec_of()
    v = evaluate_workload(SpecWorkload(spec, f"port:{name}"),
                          FuzzCheckSpec())
    assert not v.diverged, v.divergences
    assert v.halted
    assert v.classification == EXPECTED_CLASS[name]


def test_ports_cover_distinct_bins():
    keys = set()
    for name in EXPORTERS:
        spec = get_workload(name).spec_of()
        v = evaluate_workload(SpecWorkload(spec, f"port:{name}"),
                              FuzzCheckSpec())
        keys.add(vector_of(v).key)
    assert len(keys) == len(EXPORTERS)


@pytest.mark.parametrize("name", EXPORTERS)
def test_mutation_round_trip(name):
    base = get_workload(name).spec_of()
    mutant = mutate_spec(base, np.random.default_rng(7))
    text = spec_to_json(mutant)
    assert spec_from_json(text) == mutant
    # A fuzzmut: name alone rebuilds the identical program bytes.
    mut_name = encode_mut_name(7, 0, name)
    a = MutWorkload(7, 0, name).program("eval").encode().tobytes()
    b = get_workload(mut_name).program("eval").encode().tobytes()
    assert a == b


def test_workloads_without_exports_return_none():
    assert get_workload("mcf").spec_of() is None
