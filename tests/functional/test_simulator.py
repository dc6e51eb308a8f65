"""Architectural semantics of every opcode plus fault handling."""

import math

import numpy as np
import pytest

from repro.functional import FunctionalSimulator, SimulationError
from repro.isa import (FP_BASE, LINK_REG, OP_INFO, Fmt, Instruction, Op,
                       Program, ProgramBuilder, assemble)


def run_asm(text, max_instructions=10_000):
    sim = FunctionalSimulator(assemble(text + "\nhalt"))
    sim.run(max_instructions)
    return sim


class TestIntegerALU:
    def test_add_sub(self):
        s = run_asm("li r1, 7\nli r2, 3\nadd r3, r1, r2\nsub r4, r1, r2")
        assert s.read_ireg(3) == 10
        assert s.read_ireg(4) == 4

    def test_addi_negative(self):
        s = run_asm("li r1, 5\naddi r2, r1, -9")
        assert s.read_ireg(2) == -4

    def test_logical(self):
        s = run_asm("li r1, 0b1100\nli r2, 0b1010\n"
                    "and r3, r1, r2\nor r4, r1, r2\nxor r5, r1, r2")
        assert s.read_ireg(3) == 0b1000
        assert s.read_ireg(4) == 0b1110
        assert s.read_ireg(5) == 0b0110

    def test_logical_immediates(self):
        s = run_asm("li r1, 0xF0\nandi r2, r1, 0x3C\nori r3, r1, 0x0F\n"
                    "xori r4, r1, 0xFF")
        assert s.read_ireg(2) == 0x30
        assert s.read_ireg(3) == 0xFF
        assert s.read_ireg(4) == 0x0F

    def test_shifts(self):
        s = run_asm("li r1, -8\nslli r2, r1, 1\nsrai r3, r1, 1\n"
                    "li r4, 8\nsrli r5, r4, 2")
        assert s.read_ireg(2) == -16
        assert s.read_ireg(3) == -4
        assert s.read_ireg(5) == 2

    def test_srli_is_logical(self):
        s = run_asm("li r1, -1\nsrli r2, r1, 60")
        assert s.read_ireg(2) == 15

    def test_register_shifts(self):
        s = run_asm("li r1, 3\nli r2, 2\nsll r3, r1, r2\nsra r4, r1, r2\n"
                    "srl r5, r1, r2")
        assert s.read_ireg(3) == 12
        assert s.read_ireg(4) == 0
        assert s.read_ireg(5) == 0

    def test_compare(self):
        s = run_asm("li r1, -5\nli r2, 3\nslt r3, r1, r2\nslt r4, r2, r1\n"
                    "sltu r5, r1, r2\nslti r6, r1, 0")
        assert s.read_ireg(3) == 1
        assert s.read_ireg(4) == 0
        assert s.read_ireg(5) == 0  # unsigned: -5 wraps huge
        assert s.read_ireg(6) == 1

    def test_mov(self):
        s = run_asm("li r1, 42\nmov r2, r1")
        assert s.read_ireg(2) == 42

    def test_zero_register_immutable(self):
        s = run_asm("li r0, 99\naddi r0, r0, 5\nmov r1, r0")
        assert s.read_ireg(0) == 0
        assert s.read_ireg(1) == 0

    def test_wraparound(self):
        s = run_asm(f"li r1, {2**62}\nadd r2, r1, r1\nadd r3, r2, r2")
        assert s.read_ireg(2) == -(2 ** 63)
        assert s.read_ireg(3) == 0


class TestMulDiv:
    def test_mul(self):
        s = run_asm("li r1, -6\nli r2, 7\nmul r3, r1, r2")
        assert s.read_ireg(3) == -42

    def test_div_truncates_toward_zero(self):
        s = run_asm("li r1, -7\nli r2, 2\ndiv r3, r1, r2\n"
                    "li r4, 7\ndiv r5, r4, r2")
        assert s.read_ireg(3) == -3
        assert s.read_ireg(5) == 3

    def test_rem_sign_follows_dividend(self):
        s = run_asm("li r1, -7\nli r2, 2\nrem r3, r1, r2\n"
                    "li r4, 7\nli r5, -2\nrem r6, r4, r5")
        assert s.read_ireg(3) == -1
        assert s.read_ireg(6) == 1

    def test_div_rem_consistency(self):
        s = run_asm("li r1, -13\nli r2, 4\ndiv r3, r1, r2\nrem r4, r1, r2\n"
                    "mul r5, r3, r2\nadd r6, r5, r4")
        assert s.read_ireg(6) == -13

    def test_div_by_zero_returns_all_ones(self):
        # RISC-V M: division by zero does not trap; quotient is -1.
        s = run_asm("li r1, 17\ndiv r2, r1, r0\nli r3, -17\ndiv r4, r3, r0")
        assert s.read_ireg(2) == -1
        assert s.read_ireg(4) == -1

    def test_rem_by_zero_returns_dividend(self):
        s = run_asm("li r1, 17\nrem r2, r1, r0\nli r3, -17\nrem r4, r3, r0")
        assert s.read_ireg(2) == 17
        assert s.read_ireg(4) == -17

    def test_div_overflow_wraps(self):
        # INT64_MIN / -1 overflows; RISC-V wraps to INT64_MIN, rem is 0.
        s = run_asm(f"li r1, {-2**63}\nli r2, -1\n"
                    "div r3, r1, r2\nrem r4, r1, r2")
        assert s.read_ireg(3) == -2 ** 63
        assert s.read_ireg(4) == 0

    def test_div_exact_beyond_float53(self):
        # Full-width operands must divide exactly — a float round-trip
        # (int(a / d)) loses precision above 2^53.
        a = (1 << 62) + 3
        s = run_asm(f"li r1, {a}\nli r2, 3\ndiv r3, r1, r2\nrem r4, r1, r2")
        assert s.read_ireg(3) == a // 3
        assert s.read_ireg(4) == a - (a // 3) * 3


class TestMemory:
    def test_word_store_load(self):
        s = run_asm("li r1, 0x100\nli r2, -77\nsw r2, 0(r1)\nlw r3, 0(r1)")
        assert s.read_ireg(3) == -77

    def test_offsets(self):
        s = run_asm("li r1, 0x100\nli r2, 5\nsw r2, 16(r1)\n"
                    "addi r4, r1, 8\nlw r3, 8(r4)")
        assert s.read_ireg(3) == 5

    def test_byte_store_load(self):
        s = run_asm("li r1, 0x103\nli r2, 77\nsb r2, 0(r1)\nlb r3, 0(r1)")
        assert s.read_ireg(3) == 77

    def test_byte_load_sign_extends(self):
        # lb sign-extends bit 7: storing 200 (0xC8) reads back as -56.
        s = run_asm("li r1, 0x103\nli r2, 200\nsb r2, 0(r1)\nlb r3, 0(r1)\n"
                    "li r4, -1\nsb r4, 8(r1)\nlb r5, 8(r1)")
        assert s.read_ireg(3) == 200 - 256
        assert s.read_ireg(5) == -1

    def test_data_segment_readable(self):
        s = run_asm(".data 0x200\n.word 11 22 33\nli r1, 0x200\nlw r2, 8(r1)")
        assert s.read_ireg(2) == 22

    def test_unaligned_load_faults(self):
        with pytest.raises(SimulationError, match="address"):
            run_asm("li r1, 0x101\nlw r2, 0(r1)")

    def test_out_of_bounds_faults(self):
        with pytest.raises(SimulationError, match="address"):
            run_asm(".mem 4096\nli r1, 8192\nlw r2, 0(r1)")

    def test_negative_address_faults(self):
        with pytest.raises(SimulationError):
            run_asm("li r1, -8\nlw r2, 0(r1)")


class TestFloat:
    def test_arith(self):
        s = run_asm(".data 0x100\n.float 3.0 2.0\nli r1, 0x100\n"
                    "flw f1, 0(r1)\nflw f2, 8(r1)\n"
                    "fadd f3, f1, f2\nfsub f4, f1, f2\n"
                    "fmul f5, f1, f2\nfdiv f6, f1, f2")
        assert s.read_freg(3) == 5.0
        assert s.read_freg(4) == 1.0
        assert s.read_freg(5) == 6.0
        assert s.read_freg(6) == 1.5

    def test_unary(self):
        s = run_asm(".data 0x100\n.float -4.0\nli r1, 0x100\nflw f1, 0(r1)\n"
                    "fneg f2, f1\nfabs f3, f1\nfsqrt f4, f3")
        assert s.read_freg(2) == 4.0
        assert s.read_freg(3) == 4.0
        assert s.read_freg(4) == 2.0

    def test_minmax_compare(self):
        s = run_asm(".data 0x100\n.float 1.0 2.0\nli r1, 0x100\n"
                    "flw f1, 0(r1)\nflw f2, 8(r1)\n"
                    "fmin f3, f1, f2\nfmax f4, f1, f2\n"
                    "flt r2, f1, f2\nfle r3, f2, f2\nfeq r4, f1, f2")
        assert s.read_freg(3) == 1.0
        assert s.read_freg(4) == 2.0
        assert s.read_ireg(2) == 1
        assert s.read_ireg(3) == 1
        assert s.read_ireg(4) == 0

    def test_conversion(self):
        s = run_asm("li r1, -3\ncvtif f1, r1\nfneg f2, f1\ncvtfi r2, f2\n"
                    "fmov f3, f1")
        assert s.read_freg(1) == -3.0
        assert s.read_ireg(2) == 3
        assert s.read_freg(3) == -3.0

    def test_fstore(self):
        s = run_asm("li r1, 5\ncvtif f1, r1\nli r2, 0x100\nfsw f1, 0(r2)\n"
                    "flw f2, 0(r2)")
        assert s.read_freg(2) == 5.0

    def test_fdiv_zero_is_ieee(self):
        # IEEE 754 default results: x/0 -> ±inf, 0/0 -> NaN (no trap).
        s = run_asm("li r1, 3\ncvtif f1, r1\ncvtif f2, r0\n"
                    "fdiv f3, f1, f2\n"           # 3/0 -> +inf
                    "li r2, -3\ncvtif f4, r2\n"
                    "fdiv f5, f4, f2\n"           # -3/0 -> -inf
                    "fdiv f6, f2, f2")            # 0/0 -> NaN
        assert s.read_freg(3) == float("inf")
        assert s.read_freg(5) == float("-inf")
        assert math.isnan(s.read_freg(6))

    def test_fsqrt_negative_is_nan(self):
        s = run_asm("li r1, -1\ncvtif f1, r1\nfsqrt f2, f1")
        assert math.isnan(s.read_freg(2))

    def test_cvtfi_saturates(self):
        # Out-of-range and NaN conversions saturate (RISC-V FCVT.L.D).
        s = run_asm("li r1, 1\ncvtif f1, r1\ncvtif f2, r0\n"
                    "fdiv f3, f1, f2\n"           # +inf
                    "cvtfi r2, f3\n"
                    "fneg f4, f3\ncvtfi r3, f4\n"  # -inf
                    "fdiv f5, f2, f2\ncvtfi r4, f5")  # NaN
        assert s.read_ireg(2) == 2 ** 63 - 1
        assert s.read_ireg(3) == -2 ** 63
        assert s.read_ireg(4) == 2 ** 63 - 1


class TestControl:
    def test_taken_and_not_taken(self):
        s = run_asm("li r1, 1\nbeq r1, r0, skip\nli r2, 10\nskip:\nli r3, 20")
        assert s.read_ireg(2) == 10
        assert s.read_ireg(3) == 20

    def test_branch_skips(self):
        s = run_asm("li r1, 0\nbeq r1, r0, skip\nli r2, 10\nskip:\nli r3, 20")
        assert s.read_ireg(2) == 0

    @pytest.mark.parametrize("op,val,expect_taken", [
        ("bltz", -1, True), ("bltz", 0, False),
        ("bgez", 0, True), ("bgez", -1, False),
        ("bgtz", 1, True), ("bgtz", 0, False),
        ("blez", 0, True), ("blez", 1, False),
    ])
    def test_zero_compares(self, op, val, expect_taken):
        s = run_asm(f"li r1, {val}\n{op} r1, skip\nli r2, 1\nskip:\nnop")
        assert (s.read_ireg(2) == 0) == expect_taken

    @pytest.mark.parametrize("op,a,b,expect_taken", [
        ("blt", 1, 2, True), ("blt", 2, 1, False),
        ("bge", 2, 2, True), ("bge", 1, 2, False),
        ("bne", 1, 2, True), ("bne", 2, 2, False),
    ])
    def test_two_reg_compares(self, op, a, b, expect_taken):
        s = run_asm(f"li r1, {a}\nli r2, {b}\n{op} r1, r2, skip\n"
                    "li r3, 1\nskip:\nnop")
        assert (s.read_ireg(3) == 0) == expect_taken

    def test_jal_jr_call_return(self):
        s = run_asm("""
            jal func
            li r2, 7
            j end
        func:
            li r1, 5
            jr r31
        end:
            nop
        """)
        assert s.read_ireg(1) == 5
        assert s.read_ireg(2) == 7

    def test_jalr(self):
        s = run_asm("li r1, 4\njalr r1\nli r2, 9\nnop\nli r3, 3")
        # jalr at pc=1 -> jumps to 4, link r31 = 2, r2 never set
        assert s.read_ireg(2) == 0
        assert s.read_ireg(3) == 3
        assert s.read_ireg(31) == 2

    def test_loop_executes_n_times(self):
        s = run_asm("li r1, 10\nli r2, 0\ntop:\naddi r2, r2, 1\n"
                    "addi r1, r1, -1\nbgtz r1, top")
        assert s.read_ireg(2) == 10

    def test_bad_pc_faults(self):
        with pytest.raises(SimulationError, match="pc"):
            run_asm("li r1, 100\njr r1")


class TestRunControl:
    def test_instruction_limit(self, gather_program):
        sim = FunctionalSimulator(gather_program)
        trace = sim.run(100, trace=True)
        assert len(trace) == 100
        assert not sim.halted

    def test_halt_flag(self):
        s = run_asm("nop")
        assert s.halted

    def test_reset_restores_state(self, gather_program):
        sim = FunctionalSimulator(gather_program)
        sim.run(500)
        regs_after = list(sim.iregs)
        sim.reset()
        assert sim.pc == 0 and not sim.halted
        sim.run(500)
        assert list(sim.iregs) == regs_after

    def test_pc_counts(self):
        sim = FunctionalSimulator(assemble(
            "li r1, 3\ntop:\naddi r1, r1, -1\nbgtz r1, top\nhalt"))
        sim.run(100, count_pcs=True)
        assert sim.pc_counts[1] == 3
        assert sim.pc_counts[0] == 1

    def test_accessors(self):
        s = run_asm("li r1, 5")
        s.write_word(0x100, 77)
        assert s.read_word(0x100) == 77
        s.write_fword(0x108, 1.5)
        assert s.read_fword(0x108) == 1.5
        s.write_ireg(2, 2 ** 64 + 3)   # wraps
        assert s.read_ireg(2) == 3


#: Set-up for :func:`one_op_program`: r1 holds a word address, r3 a
#: divisor and r5 the jump-register target (the trailing ``halt``).
_PROLOGUE = [Instruction(Op.LI, rd=1, imm=0x100),
             Instruction(Op.LI, rd=3, imm=7),
             Instruction(Op.LI, rd=5, imm=4)]
_TESTED_PC = len(_PROLOGUE)
_HALT_PC = _TESTED_PC + 1


def one_op_program(op: Op) -> Program:
    """The prologue, one ``op`` with well-formed operands, then ``halt``.

    Registers are fp or int as the opcode's metadata says; branches and
    jumps target the ``halt``; memory operands address word 0x108.
    """
    info = OP_INFO[op]

    def reg(fp: bool, i: int) -> int:
        return FP_BASE + i if fp else i

    link = LINK_REG if info.is_call else -1
    fmt = info.fmt
    if fmt == Fmt.R:
        ins = Instruction(op, rd=reg(info.fp_dest, 2),
                          rs1=reg(info.fp_src, 1), rs2=reg(info.fp_src, 3))
    elif fmt == Fmt.I:
        ins = Instruction(op, rd=2, rs1=1, imm=3)
    elif fmt == Fmt.LI:
        ins = Instruction(op, rd=2, imm=5)
    elif fmt == Fmt.M:
        value = (reg(info.fp_src, 3) if info.is_store
                 else reg(info.fp_dest, 2))
        ins = Instruction(op, rd=value, rs1=1, imm=8)
    elif fmt == Fmt.B:
        ins = Instruction(op, rs1=1, rs2=3, imm=_HALT_PC)
    elif fmt == Fmt.BZ:
        ins = Instruction(op, rs1=1, imm=_HALT_PC)
    elif fmt == Fmt.J:
        ins = Instruction(op, rd=link, imm=_HALT_PC)
    elif fmt == Fmt.JR and info.is_branch:
        ins = Instruction(op, rd=link, rs1=5)
    elif fmt == Fmt.JR:
        ins = Instruction(op, rd=reg(info.fp_dest, 2),
                          rs1=reg(info.fp_src, 1))
    else:
        assert fmt == Fmt.N
        ins = Instruction(op)
    return Program(_PROLOGUE + [ins, Instruction(Op.HALT)],
                   name=f"one-{op.name.lower()}")


class TestEveryOpcode:
    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
    def test_dispatches(self, op):
        program = one_op_program(op)
        sim = FunctionalSimulator(program)
        trace = sim.run(100, trace=True)
        assert sim.halted
        if op == Op.HALT:
            assert len(trace) == _TESTED_PC
            assert sim.instret == _TESTED_PC + 1
            return
        ins = program.instructions[_TESTED_PC]
        assert [e.pc for e in trace] == list(range(_HALT_PC))
        e = trace[_TESTED_PC]
        assert e.op_class == int(ins.op_class) and type(e.op_class) is int
        assert (e.srcs, e.dst) == (ins.srcs, ins.dst)
        assert (e.is_load, e.is_store, e.is_branch, e.is_cond) == \
            (ins.is_load, ins.is_store, ins.is_branch, ins.is_conditional)
        assert e.addr == (0x108 if ins.is_load or ins.is_store else -1)
