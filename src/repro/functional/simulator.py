"""Architectural (functional) simulator for SPISA programs.

Executes a :class:`~repro.isa.Program` instruction-by-instruction with full
architectural semantics: 32 int + 32 fp registers, byte-addressed memory
with 8-byte words, two's-complement 64-bit integer arithmetic.

The simulator is the repository's ground truth: the SPEAR compiler profiles
with it and the timing model replays traces produced by it.  The interpreter
loop is written as one flat dispatch chain — per the HPC guide, the hot loop
avoids per-step allocation and attribute lookups where practical:

* The chain dispatches on plain ints.  Each pc's opcode is read as an
  ``int`` from a list built once per simulator and compared against
  module-level int constants (``_ADD = int(Op.ADD)``, ...).  A test of
  the form ``op == Op.FMUL`` costs about 137 ns on CPython 3.11, almost
  all of it the ``Op`` member lookup, against about 20 ns for two ints;
  an instruction pays one test per arm above its own, and the
  conditional branches sit 45th to 52nd.
* A traced run allocates an entry only for a load or a store.  Every
  other instruction has no address, so it appends the prebuilt entry of
  its (pc, taken) pair, shared by every run of the simulator (see
  :class:`~repro.functional.trace.TraceEntry`).
"""

from __future__ import annotations

import math

import numpy as np

from ..isa.opcodes import FP_BASE, Op, ZERO_REG
from ..isa.program import Program, WORD_SIZE
from .trace import Trace, TraceEntry

_I64_MASK = (1 << 64) - 1
_I64_SIGN = 1 << 63
_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)
#: 2^63 as a float — the smallest magnitude at which CVTFI saturates.
_F_2P63 = float(1 << 63)
_NAN = float("nan")
_INF = float("inf")

# Opcodes as plain ints, for the dispatch chain in
# :meth:`FunctionalSimulator.run` (see the module docstring).
_ADD = int(Op.ADD)
_SUB = int(Op.SUB)
_AND = int(Op.AND)
_OR = int(Op.OR)
_XOR = int(Op.XOR)
_SLL = int(Op.SLL)
_SRL = int(Op.SRL)
_SRA = int(Op.SRA)
_SLT = int(Op.SLT)
_SLTU = int(Op.SLTU)
_ADDI = int(Op.ADDI)
_ANDI = int(Op.ANDI)
_ORI = int(Op.ORI)
_XORI = int(Op.XORI)
_SLLI = int(Op.SLLI)
_SRLI = int(Op.SRLI)
_SRAI = int(Op.SRAI)
_SLTI = int(Op.SLTI)
_LI = int(Op.LI)
_MOV = int(Op.MOV)
_MUL = int(Op.MUL)
_DIV = int(Op.DIV)
_REM = int(Op.REM)
_LW = int(Op.LW)
_SW = int(Op.SW)
_LB = int(Op.LB)
_SB = int(Op.SB)
_FLW = int(Op.FLW)
_FSW = int(Op.FSW)
_FADD = int(Op.FADD)
_FSUB = int(Op.FSUB)
_FMUL = int(Op.FMUL)
_FDIV = int(Op.FDIV)
_FSQRT = int(Op.FSQRT)
_FNEG = int(Op.FNEG)
_FABS = int(Op.FABS)
_FMIN = int(Op.FMIN)
_FMAX = int(Op.FMAX)
_FLT = int(Op.FLT)
_FLE = int(Op.FLE)
_FEQ = int(Op.FEQ)
_CVTIF = int(Op.CVTIF)
_CVTFI = int(Op.CVTFI)
_FMOV = int(Op.FMOV)
_BEQ = int(Op.BEQ)
_BNE = int(Op.BNE)
_BLT = int(Op.BLT)
_BGE = int(Op.BGE)
_BLTZ = int(Op.BLTZ)
_BGEZ = int(Op.BGEZ)
_BGTZ = int(Op.BGTZ)
_BLEZ = int(Op.BLEZ)
_J = int(Op.J)
_JAL = int(Op.JAL)
_JR = int(Op.JR)
_JALR = int(Op.JALR)
_NOP = int(Op.NOP)
_HALT = int(Op.HALT)


def _wrap64(v: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    v &= _I64_MASK
    return v - (1 << 64) if v & _I64_SIGN else v


class SimulationError(RuntimeError):
    """Raised on architectural faults (bad PC, unaligned/OOB access...)."""

    def __init__(self, message: str, pc: int = -1):
        super().__init__(f"pc={pc}: {message}" if pc >= 0 else message)
        self.pc = pc


class FunctionalSimulator:
    """Interprets SPISA programs and optionally records committed traces."""

    def __init__(self, program: Program):
        self.program = program
        self.instructions = program.instructions
        #: Each pc's opcode as a plain int, for the dispatch chain.
        self._ops = [int(ins.op) for ins in self.instructions]
        #: Each pc's address-free trace entry, not taken and taken.  A
        #: traced run appends these for every instruction but a load or
        #: a store, so its entries share them (see :class:`TraceEntry`).
        self._shared = [
            tuple(TraceEntry(pc, int(ins.op_class), ins.srcs, ins.dst, -1,
                             taken, ins.is_load, ins.is_store, ins.is_branch,
                             ins.is_conditional)
                  for taken in (False, True))
            for pc, ins in enumerate(self.instructions)]
        self.reset()

    def reset(self) -> None:
        """Reinitialize architectural state and reload data segments."""
        self.iregs: list[int] = [0] * 32
        self.fregs: list[float] = [0.0] * 32
        self.mem = self.program.build_memory()
        self.mem_words = self.mem.view(np.int64)
        self.mem_fwords = self.mem.view(np.float64)
        self.pc = 0
        self.halted = False
        self.instret = 0
        #: Per-static-pc execution counts (filled when ``count_pcs=True``).
        self.pc_counts: dict[int, int] = {}

    # -- architectural accessors (used by tests and tools) ---------------------

    def read_ireg(self, r: int) -> int:
        return self.iregs[r]

    def write_ireg(self, r: int, v: int) -> None:
        if r != ZERO_REG:
            self.iregs[r] = _wrap64(v)

    def read_freg(self, f: int) -> float:
        return self.fregs[f]

    def read_word(self, addr: int) -> int:
        self._check_word(addr)
        return int(self.mem_words[addr >> 3])

    def read_fword(self, addr: int) -> float:
        self._check_word(addr)
        return float(self.mem_fwords[addr >> 3])

    def write_word(self, addr: int, value: int) -> None:
        self._check_word(addr)
        self.mem_words[addr >> 3] = _wrap64(value)

    def write_fword(self, addr: int, value: float) -> None:
        self._check_word(addr)
        self.mem_fwords[addr >> 3] = value

    def _check_word(self, addr: int) -> None:
        if addr % WORD_SIZE != 0:
            raise SimulationError(f"unaligned word access at {addr:#x}", self.pc)
        if not 0 <= addr < len(self.mem):
            raise SimulationError(f"out-of-bounds access at {addr:#x}", self.pc)

    # -- execution ---------------------------------------------------------------

    def run(self, max_instructions: int = 10_000_000, *, trace: bool = False,
            count_pcs: bool = False) -> Trace:
        """Run until ``halt`` or the instruction limit.

        Returns the committed-path :class:`Trace` (empty entries list when
        ``trace=False``).
        """
        entries: list[TraceEntry] = []
        instrs = self.instructions
        ops = self._ops
        shared = self._shared
        n_instrs = len(instrs)
        iregs = self.iregs
        fregs = self.fregs
        mem = self.mem
        mem_words = self.mem_words
        mem_fwords = self.mem_fwords
        mem_len = len(mem)
        pc = self.pc
        executed = 0
        pc_counts = self.pc_counts

        while executed < max_instructions:
            if not 0 <= pc < n_instrs:
                raise SimulationError("pc outside text segment", pc)
            ins = instrs[pc]
            op = ops[pc]
            next_pc = pc + 1
            addr = -1
            taken = False

            if op == _ADD:
                iregs[ins.rd] = _wrap64(iregs[ins.rs1] + iregs[ins.rs2])
            elif op == _ADDI:
                iregs[ins.rd] = _wrap64(iregs[ins.rs1] + ins.imm)
            elif op == _LW:
                addr = iregs[ins.rs1] + ins.imm
                if addr % 8 or not 0 <= addr < mem_len:
                    raise SimulationError(f"bad load address {addr:#x}", pc)
                iregs[ins.rd] = int(mem_words[addr >> 3])
            elif op == _SW:
                addr = iregs[ins.rs1] + ins.imm
                if addr % 8 or not 0 <= addr < mem_len:
                    raise SimulationError(f"bad store address {addr:#x}", pc)
                mem_words[addr >> 3] = iregs[ins.rd]
            elif op == _SUB:
                iregs[ins.rd] = _wrap64(iregs[ins.rs1] - iregs[ins.rs2])
            elif op == _LI:
                iregs[ins.rd] = _wrap64(ins.imm)
            elif op == _MOV:
                iregs[ins.rd] = iregs[ins.rs1]
            elif op == _SLLI:
                iregs[ins.rd] = _wrap64(iregs[ins.rs1] << (ins.imm & 63))
            elif op == _SRLI:
                # Logical shifts must land back in canonical signed form:
                # a zero-distance shift of a negative value would otherwise
                # leave an unsigned >= 2^63 in the register file, corrupting
                # every later signed comparison (and overflowing SW).
                iregs[ins.rd] = _wrap64(
                    (iregs[ins.rs1] & _I64_MASK) >> (ins.imm & 63))
            elif op == _SRAI:
                iregs[ins.rd] = iregs[ins.rs1] >> (ins.imm & 63)
            elif op == _ANDI:
                iregs[ins.rd] = iregs[ins.rs1] & ins.imm
            elif op == _ORI:
                iregs[ins.rd] = _wrap64(iregs[ins.rs1] | ins.imm)
            elif op == _XORI:
                iregs[ins.rd] = _wrap64(iregs[ins.rs1] ^ ins.imm)
            elif op == _AND:
                iregs[ins.rd] = iregs[ins.rs1] & iregs[ins.rs2]
            elif op == _OR:
                iregs[ins.rd] = iregs[ins.rs1] | iregs[ins.rs2]
            elif op == _XOR:
                iregs[ins.rd] = iregs[ins.rs1] ^ iregs[ins.rs2]
            elif op == _SLL:
                iregs[ins.rd] = _wrap64(iregs[ins.rs1] << (iregs[ins.rs2] & 63))
            elif op == _SRL:
                iregs[ins.rd] = _wrap64(
                    (iregs[ins.rs1] & _I64_MASK) >> (iregs[ins.rs2] & 63))
            elif op == _SRA:
                iregs[ins.rd] = iregs[ins.rs1] >> (iregs[ins.rs2] & 63)
            elif op == _SLT:
                iregs[ins.rd] = 1 if iregs[ins.rs1] < iregs[ins.rs2] else 0
            elif op == _SLTU:
                iregs[ins.rd] = 1 if (iregs[ins.rs1] & _I64_MASK) < (iregs[ins.rs2] & _I64_MASK) else 0
            elif op == _SLTI:
                iregs[ins.rd] = 1 if iregs[ins.rs1] < ins.imm else 0
            elif op == _MUL:
                iregs[ins.rd] = _wrap64(iregs[ins.rs1] * iregs[ins.rs2])
            elif op == _DIV:
                # RISC-V M semantics: truncated division, x/0 == -1 and
                # INT64_MIN / -1 wraps to INT64_MIN (no trap, no float
                # round-trip — exact for full-width operands).
                a = iregs[ins.rs1]
                d = iregs[ins.rs2]
                if d == 0:
                    iregs[ins.rd] = -1
                else:
                    q = abs(a) // abs(d)
                    iregs[ins.rd] = _wrap64(-q if (a < 0) != (d < 0) else q)
            elif op == _REM:
                # RISC-V M semantics: sign follows the dividend, x%0 == x
                # and INT64_MIN % -1 == 0.
                a = iregs[ins.rs1]
                d = iregs[ins.rs2]
                if d == 0:
                    iregs[ins.rd] = a
                else:
                    q = abs(a) // abs(d)
                    if (a < 0) != (d < 0):
                        q = -q
                    iregs[ins.rd] = _wrap64(a - q * d)
            elif op == _LB:
                addr = iregs[ins.rs1] + ins.imm
                if not 0 <= addr < mem_len:
                    raise SimulationError(f"bad load address {addr:#x}", pc)
                b = int(mem[addr])
                iregs[ins.rd] = b - 256 if b >= 128 else b
            elif op == _SB:
                addr = iregs[ins.rs1] + ins.imm
                if not 0 <= addr < mem_len:
                    raise SimulationError(f"bad store address {addr:#x}", pc)
                mem[addr] = iregs[ins.rd] & 0xFF
            elif op == _FLW:
                addr = iregs[ins.rs1] + ins.imm
                if addr % 8 or not 0 <= addr < mem_len:
                    raise SimulationError(f"bad load address {addr:#x}", pc)
                fregs[ins.rd - FP_BASE] = float(mem_fwords[addr >> 3])
            elif op == _FSW:
                addr = iregs[ins.rs1] + ins.imm
                if addr % 8 or not 0 <= addr < mem_len:
                    raise SimulationError(f"bad store address {addr:#x}", pc)
                mem_fwords[addr >> 3] = fregs[ins.rd - FP_BASE]
            elif op == _FADD:
                fregs[ins.rd - FP_BASE] = fregs[ins.rs1 - FP_BASE] + fregs[ins.rs2 - FP_BASE]
            elif op == _FSUB:
                fregs[ins.rd - FP_BASE] = fregs[ins.rs1 - FP_BASE] - fregs[ins.rs2 - FP_BASE]
            elif op == _FMUL:
                fregs[ins.rd - FP_BASE] = fregs[ins.rs1 - FP_BASE] * fregs[ins.rs2 - FP_BASE]
            elif op == _FDIV:
                # IEEE 754 default (non-trapping) semantics: x/±0 -> ±inf,
                # ±0/±0 and NaN operands -> NaN.
                a = fregs[ins.rs1 - FP_BASE]
                d = fregs[ins.rs2 - FP_BASE]
                if d == 0.0:
                    if a == 0.0 or a != a:
                        fregs[ins.rd - FP_BASE] = _NAN
                    else:
                        fregs[ins.rd - FP_BASE] = (
                            math.copysign(_INF, a) * math.copysign(1.0, d))
                else:
                    fregs[ins.rd - FP_BASE] = a / d
            elif op == _FSQRT:
                # IEEE 754: sqrt of a negative value is NaN, not a trap.
                v = fregs[ins.rs1 - FP_BASE]
                fregs[ins.rd - FP_BASE] = _NAN if v < 0.0 else v ** 0.5
            elif op == _FNEG:
                fregs[ins.rd - FP_BASE] = -fregs[ins.rs1 - FP_BASE]
            elif op == _FABS:
                fregs[ins.rd - FP_BASE] = abs(fregs[ins.rs1 - FP_BASE])
            elif op == _FMIN:
                fregs[ins.rd - FP_BASE] = min(fregs[ins.rs1 - FP_BASE], fregs[ins.rs2 - FP_BASE])
            elif op == _FMAX:
                fregs[ins.rd - FP_BASE] = max(fregs[ins.rs1 - FP_BASE], fregs[ins.rs2 - FP_BASE])
            elif op == _FLT:
                iregs[ins.rd] = 1 if fregs[ins.rs1 - FP_BASE] < fregs[ins.rs2 - FP_BASE] else 0
            elif op == _FLE:
                iregs[ins.rd] = 1 if fregs[ins.rs1 - FP_BASE] <= fregs[ins.rs2 - FP_BASE] else 0
            elif op == _FEQ:
                iregs[ins.rd] = 1 if fregs[ins.rs1 - FP_BASE] == fregs[ins.rs2 - FP_BASE] else 0
            elif op == _CVTIF:
                fregs[ins.rd - FP_BASE] = float(iregs[ins.rs1])
            elif op == _CVTFI:
                # RISC-V FCVT.L.D: truncate toward zero, saturate out-of-
                # range values, NaN -> INT64_MAX (never raises).
                v = fregs[ins.rs1 - FP_BASE]
                if v != v:
                    iregs[ins.rd] = _I64_MAX
                elif v >= _F_2P63:
                    iregs[ins.rd] = _I64_MAX
                elif v <= -_F_2P63:
                    iregs[ins.rd] = _I64_MIN
                else:
                    iregs[ins.rd] = int(v)
            elif op == _FMOV:
                fregs[ins.rd - FP_BASE] = fregs[ins.rs1 - FP_BASE]
            elif op == _BEQ:
                taken = iregs[ins.rs1] == iregs[ins.rs2]
                if taken:
                    next_pc = ins.imm
            elif op == _BNE:
                taken = iregs[ins.rs1] != iregs[ins.rs2]
                if taken:
                    next_pc = ins.imm
            elif op == _BLT:
                taken = iregs[ins.rs1] < iregs[ins.rs2]
                if taken:
                    next_pc = ins.imm
            elif op == _BGE:
                taken = iregs[ins.rs1] >= iregs[ins.rs2]
                if taken:
                    next_pc = ins.imm
            elif op == _BLTZ:
                taken = iregs[ins.rs1] < 0
                if taken:
                    next_pc = ins.imm
            elif op == _BGEZ:
                taken = iregs[ins.rs1] >= 0
                if taken:
                    next_pc = ins.imm
            elif op == _BGTZ:
                taken = iregs[ins.rs1] > 0
                if taken:
                    next_pc = ins.imm
            elif op == _BLEZ:
                taken = iregs[ins.rs1] <= 0
                if taken:
                    next_pc = ins.imm
            elif op == _J:
                taken = True
                next_pc = ins.imm
            elif op == _JAL:
                taken = True
                iregs[ins.rd] = pc + 1
                next_pc = ins.imm
            elif op == _JR:
                taken = True
                next_pc = iregs[ins.rs1]
            elif op == _JALR:
                taken = True
                target = iregs[ins.rs1]
                iregs[ins.rd] = pc + 1
                next_pc = target
            elif op == _NOP:
                pass
            elif op == _HALT:
                self.halted = True
                executed += 1
                if count_pcs:
                    pc_counts[pc] = pc_counts.get(pc, 0) + 1
                break
            else:  # pragma: no cover - every opcode is handled above
                raise SimulationError(f"unimplemented opcode {ins.op.name}", pc)

            # The zero register is architecturally immutable.
            iregs[0] = 0

            if trace:
                if addr < 0:
                    entries.append(shared[pc][taken])
                else:
                    entries.append(TraceEntry(
                        pc, int(ins.op_class), ins.srcs, ins.dst, addr,
                        taken, ins.is_load, ins.is_store, ins.is_branch,
                        ins.is_conditional))
            if count_pcs:
                pc_counts[pc] = pc_counts.get(pc, 0) + 1

            pc = next_pc
            executed += 1

        self.pc = pc
        self.instret += executed
        return Trace(entries, program_name=self.program.name,
                     halted=self.halted)


def run_program(program: Program, max_instructions: int = 10_000_000,
                *, trace: bool = True) -> Trace:
    """Convenience wrapper: execute ``program`` and return its trace."""
    return FunctionalSimulator(program).run(max_instructions, trace=trace)
