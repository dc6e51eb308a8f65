"""Functional-unit pools: per-cycle budgets and structural hazards, as the
timing model's issue stage claims them."""

from repro.core import FUConfig, MachineConfig
from repro.functional import Trace, TraceEntry
from repro.isa import OpClass
from repro.pipeline import FU_OF_CLASS, MAIN_THREAD, FUKind, TimingSimulator


def entry(pc, op_class):
    """An independent instruction of ``op_class``; memory ops get an
    address of their own."""
    is_load = op_class == OpClass.LOAD
    is_store = op_class == OpClass.STORE
    addr = 0x1000 + 64 * pc if is_load or is_store else -1
    return TraceEntry(pc, int(op_class), (), -1, addr, False,
                      is_load, is_store, op_class == OpClass.BRANCH, False)


def simulator(classes, **fu):
    trace = Trace([entry(pc, c) for pc, c in enumerate(classes)])
    return TimingSimulator(trace, MachineConfig(fu=FUConfig(**fu)))


def issue(classes, **fu):
    """Offer one ready instruction per op class, in order, to one fresh
    cycle of the main thread's units; returns (issued, pool)."""
    sim = simulator(classes, **fu)
    pool = sim._fu_main
    issued = sim._issue_from(list(range(len(classes))), pool,
                             sim.config.issue_width, MAIN_THREAD)
    return issued, pool


class TestPool:
    def test_paper_capacities(self):
        issued, pool = issue([OpClass.INT_ALU] * 5
                             + [OpClass.INT_MUL, OpClass.INT_DIV])
        assert issued == 5              # 4 ALUs and the one MUL/DIV unit
        assert pool.conflicts[FUKind.INT_ALU] == 1
        assert pool.conflicts[FUKind.INT_MULDIV] == 1   # DIV shares it

    def test_mem_ports(self):
        issued, pool = issue([OpClass.LOAD, OpClass.STORE, OpClass.LOAD])
        assert issued == 2
        assert pool.conflicts[FUKind.MEM_PORT] == 1

    def test_begin_cycle_refreshes(self):
        """Each cycle of ``_issue`` starts with the pool at capacity."""
        sim = simulator([OpClass.INT_ALU] * 2, int_alu=1)
        sim._main_ready = [0, 1]
        sim._issue()
        assert sim._main_ready == [1]
        sim._cycle += 1
        sim._issue()
        assert sim._main_ready == []
        assert sim.stats.issued == 2
        assert sim._fu_main.conflicts[FUKind.INT_ALU] == 1

    def test_conflict_counting(self):
        sim = simulator([OpClass.FP_MUL, OpClass.FP_DIV, OpClass.FP_DIV],
                        fp_muldiv=1)
        issued = sim._issue_from([0, 1, 2], sim._fu_main, 8, MAIN_THREAD)
        assert issued == 1
        assert sim._fu_main.conflicts[FUKind.FP_MULDIV] == 2
        assert sim.stats.issue_fu_conflicts == 2

    def test_available(self):
        """Branches take an int ALU, so four ALU ops after one find a
        unit short."""
        issued, pool = issue([OpClass.BRANCH] + [OpClass.INT_ALU] * 4)
        assert issued == 4
        assert pool.conflicts[FUKind.INT_ALU] == 1

    def test_fp_and_int_independent(self):
        issued, pool = issue([OpClass.INT_ALU, OpClass.FP_ALU,
                              OpClass.INT_ALU, OpClass.FP_ALU],
                             int_alu=1, fp_alu=1)
        assert issued == 2
        assert pool.conflicts[FUKind.INT_ALU] == 1
        assert pool.conflicts[FUKind.FP_ALU] == 1


class TestMapping:
    def test_every_class_mapped(self):
        for cls in OpClass:
            assert int(cls) in FU_OF_CLASS

    def test_memory_classes_use_ports(self):
        assert FU_OF_CLASS[int(OpClass.LOAD)] == FUKind.MEM_PORT
        assert FU_OF_CLASS[int(OpClass.STORE)] == FUKind.MEM_PORT

    def test_mul_and_div_share_a_unit(self):
        assert FU_OF_CLASS[int(OpClass.INT_MUL)] == \
            FU_OF_CLASS[int(OpClass.INT_DIV)] == FUKind.INT_MULDIV
        assert FU_OF_CLASS[int(OpClass.FP_MUL)] == \
            FU_OF_CLASS[int(OpClass.FP_DIV)] == FUKind.FP_MULDIV

    def test_branches_use_int_alus(self):
        assert FU_OF_CLASS[int(OpClass.BRANCH)] == FUKind.INT_ALU
