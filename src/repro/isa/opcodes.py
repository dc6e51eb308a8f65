"""Opcode definitions for the SPISA instruction set.

SPISA (SPEAR Portable Instruction Set Architecture) is a small RISC ISA
modeled after SimpleScalar's PISA, which the SPEAR paper targets.  It is
register-based with 32 integer and 32 floating-point registers, a
byte-addressed data memory with 8-byte words, and instruction addresses in
units of one instruction.

Each opcode carries static metadata used by every downstream layer: its
operational class (which maps to a functional-unit class and an execution
latency in the timing model), its operand signature (used by the assembler
and the encoder), and semantic flags (load / store / branch / call).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.IntEnum):
    """Operational class of an instruction.

    The class determines which functional unit executes the instruction in
    the timing model and is also the unit of accounting in profiles and
    traces.
    """

    INT_ALU = 0
    INT_MUL = 1
    INT_DIV = 2
    FP_ALU = 3
    FP_MUL = 4
    FP_DIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8
    MISC = 9


class Fmt(enum.IntEnum):
    """Operand signature formats understood by the assembler/encoder.

    ``R``   three-register ALU form            op rd, rs1, rs2
    ``I``   register-immediate ALU form        op rd, rs1, imm
    ``LI``  load-immediate form                op rd, imm
    ``M``   memory form                        op rd, imm(rs1)
    ``B``   conditional branch form            op rs1, rs2, label
    ``BZ``  compare-against-zero branch form   op rs1, label
    ``J``   unconditional jump form            op label
    ``JR``  register jump form                 op rs1
    ``N``   no operands                        op
    """

    R = 0
    I = 1
    LI = 2
    M = 3
    B = 4
    BZ = 5
    J = 6
    JR = 7
    N = 8


@dataclass(frozen=True)
class OpInfo:
    """Static description of one opcode."""

    mnemonic: str
    code: int
    op_class: OpClass
    fmt: Fmt
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_call: bool = False
    is_return: bool = False
    is_conditional: bool = False
    fp_dest: bool = False
    fp_src: bool = False


class Op(enum.IntEnum):
    """Every SPISA opcode.

    The numeric values are the binary encoding's opcode field and are part
    of the on-disk format; do not renumber.
    """

    # Integer ALU -------------------------------------------------------
    ADD = 1
    SUB = 2
    AND = 3
    OR = 4
    XOR = 5
    SLL = 6
    SRL = 7
    SRA = 8
    SLT = 9
    SLTU = 10
    ADDI = 11
    ANDI = 12
    ORI = 13
    XORI = 14
    SLLI = 15
    SRLI = 16
    SRAI = 17
    SLTI = 18
    LI = 19
    MOV = 20
    # Integer multiply / divide ----------------------------------------
    MUL = 21
    DIV = 22
    REM = 23
    # Memory ------------------------------------------------------------
    LW = 24
    SW = 25
    LB = 26
    SB = 27
    FLW = 28
    FSW = 29
    # Floating point ------------------------------------------------------
    FADD = 30
    FSUB = 31
    FMUL = 32
    FDIV = 33
    FSQRT = 34
    FNEG = 35
    FABS = 36
    FMIN = 37
    FMAX = 38
    FLT = 39   # int rd = (f rs1 < f rs2)
    FLE = 40   # int rd = (f rs1 <= f rs2)
    FEQ = 41   # int rd = (f rs1 == f rs2)
    CVTIF = 42  # f rd = float(int rs1)
    CVTFI = 43  # int rd = trunc(f rs1)
    FMOV = 44
    # Control -------------------------------------------------------------
    BEQ = 45
    BNE = 46
    BLT = 47
    BGE = 48
    BLTZ = 49
    BGEZ = 50
    BGTZ = 51
    BLEZ = 52
    J = 53
    JAL = 54
    JR = 55
    JALR = 56
    # Misc ----------------------------------------------------------------
    NOP = 57
    HALT = 58


def _op(mn, code, cls, fmt, **kw) -> OpInfo:
    return OpInfo(mn, code, cls, fmt, **kw)


#: Table of opcode metadata, indexed by :class:`Op`.
OP_INFO: dict[Op, OpInfo] = {
    Op.ADD: _op("add", Op.ADD, OpClass.INT_ALU, Fmt.R),
    Op.SUB: _op("sub", Op.SUB, OpClass.INT_ALU, Fmt.R),
    Op.AND: _op("and", Op.AND, OpClass.INT_ALU, Fmt.R),
    Op.OR: _op("or", Op.OR, OpClass.INT_ALU, Fmt.R),
    Op.XOR: _op("xor", Op.XOR, OpClass.INT_ALU, Fmt.R),
    Op.SLL: _op("sll", Op.SLL, OpClass.INT_ALU, Fmt.R),
    Op.SRL: _op("srl", Op.SRL, OpClass.INT_ALU, Fmt.R),
    Op.SRA: _op("sra", Op.SRA, OpClass.INT_ALU, Fmt.R),
    Op.SLT: _op("slt", Op.SLT, OpClass.INT_ALU, Fmt.R),
    Op.SLTU: _op("sltu", Op.SLTU, OpClass.INT_ALU, Fmt.R),
    Op.ADDI: _op("addi", Op.ADDI, OpClass.INT_ALU, Fmt.I),
    Op.ANDI: _op("andi", Op.ANDI, OpClass.INT_ALU, Fmt.I),
    Op.ORI: _op("ori", Op.ORI, OpClass.INT_ALU, Fmt.I),
    Op.XORI: _op("xori", Op.XORI, OpClass.INT_ALU, Fmt.I),
    Op.SLLI: _op("slli", Op.SLLI, OpClass.INT_ALU, Fmt.I),
    Op.SRLI: _op("srli", Op.SRLI, OpClass.INT_ALU, Fmt.I),
    Op.SRAI: _op("srai", Op.SRAI, OpClass.INT_ALU, Fmt.I),
    Op.SLTI: _op("slti", Op.SLTI, OpClass.INT_ALU, Fmt.I),
    Op.LI: _op("li", Op.LI, OpClass.INT_ALU, Fmt.LI),
    Op.MOV: _op("mov", Op.MOV, OpClass.INT_ALU, Fmt.JR),  # mov rd, rs1
    Op.MUL: _op("mul", Op.MUL, OpClass.INT_MUL, Fmt.R),
    Op.DIV: _op("div", Op.DIV, OpClass.INT_DIV, Fmt.R),
    Op.REM: _op("rem", Op.REM, OpClass.INT_DIV, Fmt.R),
    Op.LW: _op("lw", Op.LW, OpClass.LOAD, Fmt.M, is_load=True),
    Op.SW: _op("sw", Op.SW, OpClass.STORE, Fmt.M, is_store=True),
    Op.LB: _op("lb", Op.LB, OpClass.LOAD, Fmt.M, is_load=True),
    Op.SB: _op("sb", Op.SB, OpClass.STORE, Fmt.M, is_store=True),
    Op.FLW: _op("flw", Op.FLW, OpClass.LOAD, Fmt.M, is_load=True, fp_dest=True),
    Op.FSW: _op("fsw", Op.FSW, OpClass.STORE, Fmt.M, is_store=True, fp_src=True),
    Op.FADD: _op("fadd", Op.FADD, OpClass.FP_ALU, Fmt.R, fp_dest=True, fp_src=True),
    Op.FSUB: _op("fsub", Op.FSUB, OpClass.FP_ALU, Fmt.R, fp_dest=True, fp_src=True),
    Op.FMUL: _op("fmul", Op.FMUL, OpClass.FP_MUL, Fmt.R, fp_dest=True, fp_src=True),
    Op.FDIV: _op("fdiv", Op.FDIV, OpClass.FP_DIV, Fmt.R, fp_dest=True, fp_src=True),
    Op.FSQRT: _op("fsqrt", Op.FSQRT, OpClass.FP_DIV, Fmt.JR, fp_dest=True, fp_src=True),
    Op.FNEG: _op("fneg", Op.FNEG, OpClass.FP_ALU, Fmt.JR, fp_dest=True, fp_src=True),
    Op.FABS: _op("fabs", Op.FABS, OpClass.FP_ALU, Fmt.JR, fp_dest=True, fp_src=True),
    Op.FMIN: _op("fmin", Op.FMIN, OpClass.FP_ALU, Fmt.R, fp_dest=True, fp_src=True),
    Op.FMAX: _op("fmax", Op.FMAX, OpClass.FP_ALU, Fmt.R, fp_dest=True, fp_src=True),
    Op.FLT: _op("flt", Op.FLT, OpClass.FP_ALU, Fmt.R, fp_src=True),
    Op.FLE: _op("fle", Op.FLE, OpClass.FP_ALU, Fmt.R, fp_src=True),
    Op.FEQ: _op("feq", Op.FEQ, OpClass.FP_ALU, Fmt.R, fp_src=True),
    Op.CVTIF: _op("cvtif", Op.CVTIF, OpClass.FP_ALU, Fmt.JR, fp_dest=True),
    Op.CVTFI: _op("cvtfi", Op.CVTFI, OpClass.FP_ALU, Fmt.JR, fp_src=True),
    Op.FMOV: _op("fmov", Op.FMOV, OpClass.FP_ALU, Fmt.JR, fp_dest=True, fp_src=True),
    Op.BEQ: _op("beq", Op.BEQ, OpClass.BRANCH, Fmt.B, is_branch=True, is_conditional=True),
    Op.BNE: _op("bne", Op.BNE, OpClass.BRANCH, Fmt.B, is_branch=True, is_conditional=True),
    Op.BLT: _op("blt", Op.BLT, OpClass.BRANCH, Fmt.B, is_branch=True, is_conditional=True),
    Op.BGE: _op("bge", Op.BGE, OpClass.BRANCH, Fmt.B, is_branch=True, is_conditional=True),
    Op.BLTZ: _op("bltz", Op.BLTZ, OpClass.BRANCH, Fmt.BZ, is_branch=True, is_conditional=True),
    Op.BGEZ: _op("bgez", Op.BGEZ, OpClass.BRANCH, Fmt.BZ, is_branch=True, is_conditional=True),
    Op.BGTZ: _op("bgtz", Op.BGTZ, OpClass.BRANCH, Fmt.BZ, is_branch=True, is_conditional=True),
    Op.BLEZ: _op("blez", Op.BLEZ, OpClass.BRANCH, Fmt.BZ, is_branch=True, is_conditional=True),
    Op.J: _op("j", Op.J, OpClass.BRANCH, Fmt.J, is_branch=True),
    Op.JAL: _op("jal", Op.JAL, OpClass.BRANCH, Fmt.J, is_branch=True, is_call=True),
    Op.JR: _op("jr", Op.JR, OpClass.BRANCH, Fmt.JR, is_branch=True, is_return=True),
    Op.JALR: _op("jalr", Op.JALR, OpClass.BRANCH, Fmt.JR, is_branch=True, is_call=True),
    Op.NOP: _op("nop", Op.NOP, OpClass.MISC, Fmt.N),
    Op.HALT: _op("halt", Op.HALT, OpClass.MISC, Fmt.N),
}

#: Reverse map from assembler mnemonic to opcode.
MNEMONIC_TO_OP: dict[str, Op] = {info.mnemonic: op for op, info in OP_INFO.items()}

# Register name space ------------------------------------------------------

NUM_INT_REGS = 32
NUM_FP_REGS = 32
#: Floating point registers occupy ids [FP_BASE, FP_BASE + NUM_FP_REGS).
FP_BASE = 32
#: Total size of the unified architectural register id space.
NUM_REGS = NUM_INT_REGS + NUM_FP_REGS
#: Integer register 0 is hardwired to zero (writes are discarded).
ZERO_REG = 0
#: Conventional link register for jal/jalr.
LINK_REG = 31


def reg_name(reg: int) -> str:
    """Render a unified register id as an assembly register name."""
    if reg < 0 or reg >= NUM_REGS:
        raise ValueError(f"register id out of range: {reg}")
    if reg >= FP_BASE:
        return f"f{reg - FP_BASE}"
    return f"r{reg}"


def parse_reg(name: str) -> int:
    """Parse an assembly register name (``r12`` / ``f3``) to a unified id."""
    name = name.strip().lower()
    if len(name) < 2 or name[0] not in "rf":
        raise ValueError(f"bad register name: {name!r}")
    try:
        idx = int(name[1:])
    except ValueError as exc:
        raise ValueError(f"bad register name: {name!r}") from exc
    limit = NUM_FP_REGS if name[0] == "f" else NUM_INT_REGS
    if not 0 <= idx < limit:
        raise ValueError(f"register index out of range: {name!r}")
    return idx + FP_BASE if name[0] == "f" else idx
