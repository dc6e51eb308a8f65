"""Cycle-level SMT timing model with SPEAR pre-execution hardware."""

from .funits import FU_OF_CLASS, FUKind, FUPool
from .kernel import make_simulator
from .smt import MAIN_THREAD, P_THREAD, TimingSimulator, simulate
from .stats import PipelineResult, PipelineStats, SpearStats

__all__ = ["MAIN_THREAD", "P_THREAD", "FU_OF_CLASS", "FUKind", "FUPool",
           "TimingSimulator", "make_simulator", "simulate",
           "PipelineResult", "PipelineStats", "SpearStats"]
