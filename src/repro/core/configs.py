"""Machine configurations, including the paper's five evaluated models.

Table 2 parameters are the defaults.  The five named configurations of the
evaluation are:

* ``BASELINE``      — superscalar, SPEAR hardware disabled
* ``SPEAR_128``     — SPEAR, 128-entry IFQ, shared functional units
* ``SPEAR_256``     — SPEAR, 256-entry IFQ, shared functional units
* ``SPEAR_SF_128``  — SPEAR, 128-entry IFQ, separate (dedicated) FUs
* ``SPEAR_SF_256``  — SPEAR, 256-entry IFQ, separate (dedicated) FUs
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..isa.opcodes import OpClass
from ..memory.hierarchy import LatencyConfig


@dataclass(frozen=True)
class FUConfig:
    """Functional-unit pool sizes (paper Table 2)."""

    int_alu: int = 4
    int_muldiv: int = 1
    fp_alu: int = 4
    fp_muldiv: int = 1
    mem_ports: int = 2


#: Execution latencies per operational class (cycles).  Memory classes are
#: resolved by the hierarchy instead.
OP_LATENCY: dict[int, int] = {
    int(OpClass.INT_ALU): 1,
    int(OpClass.INT_MUL): 3,
    int(OpClass.INT_DIV): 20,
    int(OpClass.FP_ALU): 2,
    int(OpClass.FP_MUL): 4,
    int(OpClass.FP_DIV): 12,
    int(OpClass.BRANCH): 1,
    int(OpClass.MISC): 1,
    int(OpClass.STORE): 1,   # store completes on port grant; cache updated then
    int(OpClass.LOAD): 0,    # placeholder: loads take the hierarchy latency
}


@dataclass(frozen=True)
class MachineConfig:
    """Complete parameterization of the timing model."""

    name: str = "machine"
    # Front end ---------------------------------------------------------
    fetch_width: int = 8
    decode_width: int = 8
    ifq_size: int = 128
    #: Table 2's bimodal predictor, the only kind the timing model builds
    predictor: str = "bimodal"
    predictor_table_size: int = 2048
    mispredict_redirect_penalty: int = 3
    #: What fetch does between a mispredict and its resolution: "reconverge"
    #: keeps fetching real (reconverged) path entries that the PE may
    #: pre-execute but decode may not pass, squashed and re-fetched at
    #: resolution (models the short forward hammocks of the kernels); "bubbles"
    #: keeps fetching wrong-path placeholders that occupy the IFQ and decode
    #: bandwidth and are squashed at resolution (like real hardware);
    #: "stall" freezes fetch (classic trace-driven simplification, starves
    #: the IFQ and with it the trigger logic).
    wrong_path: str = "reconverge"
    #: In "reconverge" mode, how many real entries fetch may run past an
    #: unresolved mispredict before degrading to opaque bubbles.  Short
    #: forward hammocks reconverge within a few instructions; loop exits
    #: and other far-divergent wrong paths do not, so the window is kept
    #: near a hammock length.
    reconverge_window: int = 48
    #: Hardware prefetcher observing main-thread demand accesses:
    #: "none" (paper baseline), "nextline", or "stride".  Used by the
    #: motivation experiment contrasting traditional prefetching with
    #: pre-execution.
    prefetcher: str = "none"
    prefetch_degree: int = 2
    # Back end ----------------------------------------------------------
    issue_width: int = 8
    commit_width: int = 8
    ruu_size: int = 128
    fu: FUConfig = field(default_factory=FUConfig)
    latencies: LatencyConfig = field(default_factory=LatencyConfig)
    # SPEAR hardware ------------------------------------------------------
    spear_enabled: bool = False
    separate_fu: bool = False
    pthread_ruu_size: int = 64
    #: Fraction of the IFQ that must be occupied for a trigger (paper:
    #: half).  This is the *configured* operating point: under the
    #: default ``fixed`` trigger policy it holds for the whole run, but
    #: an adaptive policy (``--policy adaptive-epoch``/``adaptive-phase``)
    #: may override the live value the simulator consults — between runs
    #: (epoch) or at decision-interval boundaries inside one run (phase)
    #: — walking the documented level ladder.  The config itself is
    #: never mutated.  See docs/adaptive-policy.md.
    trigger_occupancy_fraction: float = 0.5
    #: Max p-thread instructions extracted per cycle (paper: issue_width/2).
    extract_width: int = 4
    #: Cycles per live-in register copy (paper: 1).
    livein_copy_cycles: int = 1
    #: What "deterministic state" to wait for before the live-in copy:
    #: "livein" (default) waits for the in-flight producers of the live-in
    #: registers to complete; "full" waits until everything decoded at
    #: trigger time has committed (the paper's literal wording — but with
    #: ROB size == IFQ size the main thread then always reaches the d-load
    #: before extraction can begin, see DESIGN.md §6); "none" skips the
    #: wait entirely.
    drain_policy: str = "livein"
    #: P-thread instructions get issue priority (paper §3.3).
    pthread_priority: bool = True
    #: Chaining triggers (Collins et al., discussed in the paper's related
    #: work): when a pre-execution mode ends, a dormant marked d-load may
    #: re-trigger immediately regardless of IFQ occupancy, letting one
    #: p-thread effectively spawn the next.  Off in the paper's SPEAR.
    #: Like ``trigger_occupancy_fraction`` this is a policy-controlled
    #: knob: the upper rungs of the adaptive level ladder switch the live
    #: value on when fills run persistently late (the config itself is
    #: never mutated).  See docs/adaptive-policy.md.
    chaining: bool = False
    # Safety ----------------------------------------------------------------
    max_cycles: int = 200_000_000

    def __post_init__(self) -> None:
        if self.extract_width > self.decode_width:
            raise ValueError("extract_width cannot exceed decode_width")
        if not 0.0 <= self.trigger_occupancy_fraction <= 1.0:
            raise ValueError("trigger_occupancy_fraction must be in [0, 1]")
        if self.drain_policy not in ("livein", "full", "none"):
            raise ValueError(f"unknown drain_policy {self.drain_policy!r}")
        if self.wrong_path not in ("reconverge", "bubbles", "stall"):
            raise ValueError(f"unknown wrong_path mode {self.wrong_path!r}")
        if self.predictor != "bimodal":
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.prefetcher not in ("none", "nextline", "stride"):
            raise ValueError(f"unknown prefetcher {self.prefetcher!r}")
        if self.ifq_size < 1:
            raise ValueError("IFQ size must be positive")
        if self.ifq_size < self.fetch_width:
            raise ValueError("IFQ must hold at least one fetch group")

    @property
    def trigger_occupancy(self) -> int:
        """Minimum IFQ entries required to trigger pre-execution."""
        return int(self.ifq_size * self.trigger_occupancy_fraction)

    def with_latencies(self, latencies: LatencyConfig) -> "MachineConfig":
        """Clone with different memory latencies (Figure 9 sweep)."""
        return replace(self, latencies=latencies)

    def describe(self) -> dict:
        """Flat parameter dump (Table 2 regeneration)."""
        return {
            "name": self.name,
            "fetch/decode/issue/commit width": (
                f"{self.fetch_width}/{self.decode_width}/"
                f"{self.issue_width}/{self.commit_width}"),
            "IFQ size": self.ifq_size,
            "RUU (reorder buffer) size": self.ruu_size,
            "branch predictor": f"{self.predictor} ({self.predictor_table_size})",
            "int FUs": f"ALU x {self.fu.int_alu}, MUL/DIV x {self.fu.int_muldiv}",
            "fp FUs": f"ALU x {self.fu.fp_alu}, MUL/DIV x {self.fu.fp_muldiv}",
            "memory ports": self.fu.mem_ports,
            "L1 latency": self.latencies.l1,
            "L2 latency": self.latencies.l2,
            "memory latency": self.latencies.memory,
            "SPEAR": self.spear_enabled,
            "separate FUs": self.separate_fu,
            "p-thread RUU size": self.pthread_ruu_size,
            "trigger occupancy": self.trigger_occupancy,
            "extract width": self.extract_width,
            "hardware prefetcher": self.prefetcher,
        }


BASELINE = MachineConfig(name="baseline")
#: Traditional-prefetching baselines for the motivation experiment.
BASELINE_NEXTLINE = MachineConfig(name="baseline+nextline",
                                  prefetcher="nextline")
BASELINE_STRIDE = MachineConfig(name="baseline+stride", prefetcher="stride")
SPEAR_128 = MachineConfig(name="SPEAR-128", spear_enabled=True, ifq_size=128)
SPEAR_256 = MachineConfig(name="SPEAR-256", spear_enabled=True, ifq_size=256)
SPEAR_SF_128 = MachineConfig(name="SPEAR.sf-128", spear_enabled=True,
                             ifq_size=128, separate_fu=True)
SPEAR_SF_256 = MachineConfig(name="SPEAR.sf-256", spear_enabled=True,
                             ifq_size=256, separate_fu=True)

#: The evaluation's five models, keyed by the names used in the figures.
PAPER_CONFIGS: dict[str, MachineConfig] = {
    c.name: c for c in (BASELINE, SPEAR_128, SPEAR_256,
                        SPEAR_SF_128, SPEAR_SF_256)
}
