"""Cycle-level SMT timing model with SPEAR pre-execution hardware."""

from .fastforward import FastForwardSimulator
from .funits import FU_OF_CLASS, FUKind, FUPool
from .kernel import (DEFAULT_BACKEND, KERNEL_BACKENDS, KERNELS, TimingKernel,
                     make_simulator, resolve_kernel)
from .smt import (MAIN_THREAD, P_THREAD, TimingSimulator, simulate,
                  trace_flags)
from .stats import PipelineResult, PipelineStats, SpearStats
from .sweep import BatchedSweepSimulator

__all__ = ["MAIN_THREAD", "P_THREAD", "FU_OF_CLASS", "FUKind", "FUPool",
           "TimingSimulator", "FastForwardSimulator", "BatchedSweepSimulator",
           "TimingKernel", "KERNELS", "KERNEL_BACKENDS", "DEFAULT_BACKEND", "resolve_kernel",
           "make_simulator", "simulate", "trace_flags", "PipelineResult",
           "PipelineStats", "SpearStats"]
