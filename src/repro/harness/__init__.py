"""Evaluation harness: runner, experiments (one per paper table/figure),
persistent artifact cache, fault-tolerant parallel engine, run journal
and fault injection."""

from .diskcache import (CACHE_DIR_ENV, SCHEMA_VERSION, DiskCache,
                        default_cache_dir, parse_bytes)
from .experiments import (EVAL_WORKLOADS, FIG9_WORKLOADS, FUZZ_WORKLOADS,
                          IRREGULAR_WORKLOADS, LatencySweepResult,
                          MissReductionResult, PolicyAblationResult,
                          REGULAR_WORKLOADS, SpeedupResult, TimelinessResult,
                          ablate_policy, ablate_policy_cells, build_report,
                          build_suite_report, diff_table, figure6, figure7,
                          figure8, figure9, motivation, per_thread_table,
                          policy_ablation_workloads, report_trace_spec,
                          suite_diff, suite_table, table1, table2, table3,
                          timeline_diff, timeliness)
from .faults import (FAULTS_ENV, FaultClause, FaultSpecError, InjectedCrash,
                     InjectedFault, active_faults, parse_faults,
                     render_faults)
from .journal import (RunJournal, TornJournalWarning, default_journal_dir,
                      list_journals, read_jsonl)
from .parallel import (Cell, CellFailure, ExecutionPolicy, FatalCellError,
                       PayloadRef, PayloadResolutionError, RunReport,
                       cells_for, compute_cell, default_jobs,
                       default_workloads, report_cells, run_cells)
from .runner import ExperimentRunner, TracedRun, TraceSpec, WorkloadArtifacts
from .tables import TextTable, arithmetic_mean, geometric_mean

__all__ = ["EVAL_WORKLOADS", "FIG9_WORKLOADS", "IRREGULAR_WORKLOADS",
           "REGULAR_WORKLOADS", "motivation", "LatencySweepResult",
           "MissReductionResult", "SpeedupResult", "figure6", "figure7",
           "figure8", "figure9", "table1", "table2", "table3",
           "timeliness", "TimelinessResult", "timeline_diff", "diff_table",
           "FUZZ_WORKLOADS", "PolicyAblationResult", "ablate_policy",
           "ablate_policy_cells", "policy_ablation_workloads",
           "per_thread_table", "build_report", "build_suite_report",
           "report_trace_spec", "suite_diff", "suite_table",
           "ExperimentRunner", "TracedRun", "TraceSpec",
           "WorkloadArtifacts", "TextTable",
           "arithmetic_mean", "geometric_mean",
           "CACHE_DIR_ENV", "SCHEMA_VERSION", "DiskCache",
           "default_cache_dir", "parse_bytes", "Cell", "cells_for",
           "compute_cell",
           "default_jobs", "default_workloads", "report_cells", "run_cells",
           "PayloadRef", "PayloadResolutionError",
           "CellFailure", "ExecutionPolicy", "FatalCellError", "RunReport",
           "RunJournal", "TornJournalWarning", "default_journal_dir",
           "list_journals", "read_jsonl",
           "FAULTS_ENV", "FaultClause", "FaultSpecError", "InjectedCrash",
           "InjectedFault", "active_faults", "parse_faults",
           "render_faults"]
