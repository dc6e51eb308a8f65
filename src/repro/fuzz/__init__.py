"""Differential fuzzing of the SPEAR pipeline over random kernels.

The campaign machinery has five layers:

* :mod:`~repro.fuzz.generator` — a seeded random-kernel generator on top
  of :class:`~repro.isa.builder.ProgramBuilder`: basic-block DAGs built
  from counted loops and forward hammocks, with dials for pointer-chase
  depth, gather fan-out, stream stride, memory footprint, branch entropy
  and the int/fp/div statement mix.  Programs are sampled as a
  serializable :class:`~repro.fuzz.generator.KernelSpec` IR and
  materialized deterministically, so every find can be replayed, shrunk
  and checked in.
* :mod:`~repro.fuzz.oracle` — an independent interpreter over the spec
  IR.  It computes the expected final architectural state without going
  through the functional simulator, so simulator bugs that affect both
  sides of a sim-vs-sim comparison equally are still caught.
* :mod:`~repro.fuzz.differential` — the per-program evaluator: oracle
  vs functional state, commit conservation, byte drift between the
  idle-skipping run and the per-cycle walk, the fill-partition
  invariant and slicer sanity, folded into one
  picklable :class:`~repro.fuzz.differential.FuzzVerdict`.
* :mod:`~repro.fuzz.triage` / :mod:`~repro.fuzz.shrink` —
  classification + deterministic reporting, and delta-debugging
  reduction of failing specs.
* :mod:`~repro.fuzz.coverage` / :mod:`~repro.fuzz.schedule` /
  :mod:`~repro.fuzz.distill` — the campaign loop.  Every verdict bands
  into a :class:`~repro.fuzz.coverage.BehaviorVector` and a
  content-hashed :class:`~repro.fuzz.coverage.CoverageMap`.  The one
  campaign driver runs verdict cells through the fault-tolerant
  parallel engine, journaled and cached.  A guided campaign
  apportions each batch's budget over dial arms and spec-IR mutation
  arms by recent first-hit novelty (integer arithmetic, so
  byte-identical at any ``--jobs`` and across a crash and a rerun); a
  blind campaign is one dial arm in one batch.  Greedy set-cover
  distillation pins a minimal corpus under ``tests/regress/corpus/``
  that CI re-checks strictly.

Import the campaign driver's names from :mod:`repro.fuzz.schedule`
itself.  It is the one fuzz module that loads the harness at import, and
the workload registry loads this package (the promoted ``fz*`` kernels),
so a re-export here would close the cycle harness runner → workloads →
``repro.fuzz`` → schedule → harness.
"""

from .coverage import (BehaviorVector, CoverageMap, coverage_map, vector_of)
from .differential import FuzzCheckSpec, FuzzVerdict, evaluate_workload
from .distill import (CorpusEntry, check_corpus, corpus_from_json,
                      corpus_to_json, distill)
from .generator import (KernelDials, KernelSpec, FuzzWorkload, SpecWorkload,
                        encode_name, fuzz_workload_from_name, materialize,
                        parse_dials, parse_name, sample_spec, spec_from_json,
                        spec_to_json)
from .oracle import run_oracle
from .shrink import shrink
from .triage import TriageReport, triage

__all__ = [
    "BehaviorVector", "CoverageMap", "coverage_map", "vector_of",
    "FuzzCheckSpec", "FuzzVerdict", "evaluate_workload",
    "CorpusEntry", "check_corpus", "corpus_from_json", "corpus_to_json",
    "distill",
    "KernelDials", "KernelSpec", "FuzzWorkload", "SpecWorkload",
    "encode_name", "fuzz_workload_from_name", "materialize", "parse_dials",
    "parse_name", "sample_spec", "spec_from_json", "spec_to_json",
    "run_oracle",
    "shrink", "TriageReport", "triage",
]
