"""repro — a reproduction of SPEAR: A Hybrid Model for Speculative
Pre-Execution (Ro & Gaudiot, IPPS 2004).

The package implements, from scratch:

* ``repro.isa``        — SPISA, a PISA-like RISC ISA with assembler & builder
* ``repro.functional`` — an architectural simulator producing committed traces
* ``repro.memory``     — the L1/L2/DRAM hierarchy with in-flight fill merging
* ``repro.branch``     — bimodal branch prediction
* ``repro.pipeline``   — the cycle-level SMT timing model with SPEAR hardware
* ``repro.compiler``   — the SPEAR post-compiler (CFG, profiler, slicer,
  attacher)
* ``repro.core``       — p-thread descriptors, machine configs, SPEAR binary
* ``repro.workloads``  — analogs of the paper's 15 evaluation benchmarks
* ``repro.harness``    — regeneration of every table and figure
* ``repro.paper``      — the paper's published numbers, which the rest reads

Quick start::

    from repro import quick_run
    result = quick_run("mcf")           # compile + simulate one benchmark
    print(result["speedup_128"], result["speedup_256"])
"""

from .core.configs import (BASELINE, PAPER_CONFIGS, SPEAR_128, SPEAR_256,
                           SPEAR_SF_128, SPEAR_SF_256, MachineConfig)
from .core.pthread import PThread, PThreadTable
from .core.spear_binary import SpearBinary
from .harness.runner import ExperimentRunner

__version__ = "1.0.0"

__all__ = ["BASELINE", "PAPER_CONFIGS", "SPEAR_128", "SPEAR_256",
           "SPEAR_SF_128", "SPEAR_SF_256", "MachineConfig", "PThread",
           "PThreadTable", "SpearBinary", "ExperimentRunner", "quick_run"]


def quick_run(workload: str = "mcf") -> dict:
    """One-call demo: compile a workload with the SPEAR compiler and report
    the speedups of both IFQ sizes over the baseline superscalar."""
    runner = ExperimentRunner()
    base = runner.run(workload, BASELINE)
    r128 = runner.run(workload, SPEAR_128)
    r256 = runner.run(workload, SPEAR_256)
    return {
        "workload": workload,
        "ipc_baseline": base.ipc,
        "ipc_spear_128": r128.ipc,
        "ipc_spear_256": r256.ipc,
        "speedup_128": r128.ipc / base.ipc,
        "speedup_256": r256.ipc / base.ipc,
        "l1_miss_reduction_256": (
            (base.main_l1_misses - r256.main_l1_misses)
            / base.main_l1_misses if base.main_l1_misses else 0.0),
        "compile_report": runner.artifacts(workload).compile_report,
    }
