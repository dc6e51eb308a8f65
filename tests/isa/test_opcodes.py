"""Opcode metadata invariants and register-name handling."""

import pytest

from repro.isa import (FP_BASE, NUM_FP_REGS, NUM_INT_REGS, NUM_REGS, OP_INFO,
                       Fmt, Op, OpClass, parse_reg, reg_name)


class TestOpTable:
    def test_every_op_has_info(self):
        assert set(OP_INFO) == set(Op)

    def test_codes_match_enum_values(self):
        for op, info in OP_INFO.items():
            assert info.code == op

    def test_mnemonics_unique(self):
        names = [info.mnemonic for info in OP_INFO.values()]
        assert len(names) == len(set(names))

    def test_loads_are_load_class(self):
        for op, info in OP_INFO.items():
            if info.is_load:
                assert info.op_class == OpClass.LOAD
            if info.is_store:
                assert info.op_class == OpClass.STORE

    def test_branches_are_branch_class(self):
        for info in OP_INFO.values():
            if info.is_branch:
                assert info.op_class == OpClass.BRANCH

    def test_conditional_implies_branch(self):
        for info in OP_INFO.values():
            if info.is_conditional:
                assert info.is_branch

    def test_calls_and_returns_are_branches(self):
        for info in OP_INFO.values():
            if info.is_call or info.is_return:
                assert info.is_branch

    def test_mem_property(self):
        assert OP_INFO[Op.LW].is_load and not OP_INFO[Op.LW].is_store
        assert OP_INFO[Op.SW].is_store and not OP_INFO[Op.SW].is_load
        assert not (OP_INFO[Op.ADD].is_load or OP_INFO[Op.ADD].is_store)

    def test_memory_ops_use_mem_format(self):
        for info in OP_INFO.values():
            if info.is_load or info.is_store:
                assert info.fmt == Fmt.M

    def test_fp_ops_flagged(self):
        assert OP_INFO[Op.FADD].fp_dest and OP_INFO[Op.FADD].fp_src
        assert OP_INFO[Op.FLT].fp_src and not OP_INFO[Op.FLT].fp_dest
        assert OP_INFO[Op.CVTIF].fp_dest and not OP_INFO[Op.CVTIF].fp_src

    def test_op_class_counts(self):
        classes = {info.op_class for info in OP_INFO.values()}
        assert OpClass.INT_ALU in classes
        assert OpClass.FP_DIV in classes
        assert OpClass.MISC in classes


class TestRegisters:
    def test_sizes(self):
        assert NUM_REGS == NUM_INT_REGS + NUM_FP_REGS
        assert FP_BASE == NUM_INT_REGS

    @pytest.mark.parametrize("rid", [0, 1, 15, 31])
    def test_int_roundtrip(self, rid):
        assert parse_reg(reg_name(rid)) == rid

    @pytest.mark.parametrize("rid", [FP_BASE, FP_BASE + 7, FP_BASE + 31])
    def test_fp_roundtrip(self, rid):
        assert parse_reg(reg_name(rid)) == rid

    def test_fp_names(self):
        assert reg_name(FP_BASE) == "f0"
        assert reg_name(FP_BASE + 3) == "f3"
        assert reg_name(5) == "r5"

    @pytest.mark.parametrize("bad", ["r32", "f32", "x1", "r", "r-1", "rx", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_reg(bad)

    @pytest.mark.parametrize("bad", [-1, NUM_REGS, NUM_REGS + 5])
    def test_name_rejects(self, bad):
        with pytest.raises(ValueError):
            reg_name(bad)

    def test_parse_case_insensitive(self):
        assert parse_reg("R5") == 5
        assert parse_reg("F2") == FP_BASE + 2
