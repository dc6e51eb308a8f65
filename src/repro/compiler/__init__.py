"""The SPEAR post-compiler: CFG, profiler, hybrid slicer, attacher."""

from .attacher import attach
from .cfg import CFG, BasicBlock, Loop
from .driver import CompileReport, compile_spear
from .profiler import LoopProfile, Profile, profile_trace
from .slicer import (SliceReport, SlicerConfig, SlicerResult, backward_slice,
                     build_pthreads, compute_live_ins, find_delinquent_loads,
                     select_region)

__all__ = ["attach", "CFG", "BasicBlock", "Loop", "CompileReport",
           "compile_spear", "LoopProfile", "Profile", "profile_trace",
           "SliceReport", "SlicerConfig", "SlicerResult", "backward_slice",
           "build_pthreads", "compute_live_ins", "find_delinquent_loads",
           "select_region"]
