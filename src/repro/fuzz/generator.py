"""Seeded random-kernel generator over a serializable spec IR.

Generation is two-stage, Revizor-style: a seed is first sampled into a
:class:`KernelSpec` — a JSON-serializable IR of counted loops whose
bodies are tagged statement tuples (ALU ops, pointer chases, gathers,
streams, stores, byte accesses, fp arithmetic, conversions and nested
forward hammocks) — and the spec is then *materialized* into a SPISA
program through :class:`~repro.isa.builder.ProgramBuilder`.  The split
is what makes finds actionable: the shrinker reduces specs, regression
tests check in specs, and the :mod:`~repro.fuzz.oracle` interprets
specs independently of the functional simulator.

Every program halts by construction (loops are counted, hammocks branch
forward, every memory access is masked into its array) and never
faults: with the RISC-V-style total div/rem/fp semantics there is no
input that traps.  Determinism: the spec depends only on
``(campaign_seed, index, dials)``; array *data* flows from the workload
variant rng exactly like the hand-built suite, so ``train``/``eval``
share text but not inputs — which is what the SPEAR compiler requires.

This module promotes and supersedes the straight-line embryo in
``tests/properties/generators.py``: that generator never emitted
stores, body branches, div/rem (division by zero, ``INT64_MIN / -1``),
``sra`` on negative values, byte accesses or any fp — all of which the
spec IR covers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from ..isa.builder import ProgramBuilder
from ..workloads.base import Workload

#: Bumped whenever sampling or materialization changes meaning: the
#: version is part of every generated workload's name, so cached
#: artifacts and journaled verdicts can never cross generator versions.
SPEC_VERSION = 1

#: Int scratch registers handed to generated statements (spec index 0-7).
INT_SCRATCH = ("r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11")
#: FP scratch registers (spec index 0-5).
FP_SCRATCH = ("f1", "f2", "f3", "f4", "f5", "f6")

# Registers the materializer reserves for itself:
#   r1  data base      r13 cycle base     r15 bits base    r17 gather accum
#   r2  address temp   r14 fdata base     r16 stream cursor
#   r3  loop counter

ALU_OPS = ("add", "sub", "xor", "and", "or", "mul", "sll", "srl", "sra",
           "slt", "sltu", "addi", "andi", "ori", "xori", "slli", "srli",
           "srai", "slti")
FP_BINOPS = ("fadd", "fsub", "fmul", "fdiv", "fmin", "fmax")
FP_UNOPS = ("fsqrt", "fneg", "fabs", "fmov")
FP_CMPS = ("flt", "fle", "feq")
HAMMOCK_CONDS = ("entropy", "beq", "bne", "blt", "bge", "bltz", "bgez")

#: Initial scratch values are drawn from this pool so the arithmetic
#: edge cases (INT64_MIN / -1, shifts of negatives, >2^53 division) are
#: reachable from the very first loop iteration.
INTERESTING_INTS = (0, 1, -1, 2, 7, -13, 255, 1 << 31, -(1 << 31),
                    (1 << 53) + 1, (1 << 62) + 3, -(1 << 63), (1 << 63) - 1)
INTERESTING_FLOATS = (0.0, 1.0, -1.0, 0.5, -2.5, 3.141592653589793,
                      1e300, -1e300, 1e-300)

#: The lowest ceiling each bounded dial may take: the sampler draws
#: ``rng.integers(floor, ceiling + 1)`` under it.
_DIAL_FLOORS = {"max_loops": 1, "max_body": 2, "chase_depth": 1,
                "gather_fanout": 1, "stream_stride": 1}


@dataclass(frozen=True)
class KernelDials:
    """Generator dials.  Every field is a *ceiling* or a mix weight: the
    sampler draws each program's actual character under these bounds, so
    one dialed corpus still spans footprints and statement mixes."""

    chase_depth: int = 4        #: max pointer-chase hops per chase stmt
    gather_fanout: int = 4      #: max gathered loads per gather stmt
    stream_stride: int = 4      #: max streaming stride, in words
    mem_words: int = 16384      #: max per-array footprint (power of two)
    branch_entropy: float = 0.5  #: max P(taken) distance from certainty
    max_loops: int = 3          #: counted loops per program
    max_body: int = 8           #: statements per loop body
    max_nest: int = 1           #: hammock nesting depth
    target_instructions: int = 2200  #: dynamic budget trips are sized to
    #: statement-mix weights, relative to ALU weight 3.0
    div_weight: float = 1.0
    fp_weight: float = 1.5
    store_weight: float = 1.0
    byte_weight: float = 0.5

    def __post_init__(self) -> None:
        # Reject what the sampler cannot draw under, so a bad dial fails
        # here instead of inside every program's generation.
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"dial {f.name} must be finite, "
                                 f"got {value!r}")
            if isinstance(f.default, int) and value != int(value):
                raise ValueError(f"dial {f.name} takes a whole number, "
                                 f"got {value!r}")
            if f.name.endswith("_weight") and value < 0:
                raise ValueError(f"dial {f.name} is a mix weight and "
                                 f"must not be negative, got {value!r}")
            floor = _DIAL_FLOORS.get(f.name)
            if floor is not None and value < floor:
                raise ValueError(f"dial {f.name} must be at least "
                                 f"{floor}, got {value!r}")

    def describe(self) -> dict:
        return asdict(self)


DEFAULT_DIALS = KernelDials()


@dataclass(frozen=True)
class KernelSpec:
    """One generated kernel, as data.

    ``loops`` is a tuple of ``(trip_count, statements)`` pairs executed
    in order; statements are tagged tuples (see the ``emit_*`` table in
    :func:`materialize`).  The spec fully determines program *text*;
    array *contents* come from the variant rng at materialization.
    """

    mem_words: int                        #: words per array (power of two)
    p_taken: float                        #: bits-array bias for hammocks
    init: tuple[int, ...]                 #: initial int scratch (len 8)
    finit: tuple[float, ...]              #: initial fp scratch (len 6)
    loops: tuple[tuple[int, tuple], ...]  #: ((trip, (stmt, ...)), ...)
    version: int = SPEC_VERSION

    def size(self) -> int:
        """Statement count, hammock bodies included — the shrink metric."""
        return sum(_stmts_size(body) for _, body in self.loops)

    def dynamic_estimate(self) -> int:
        """Rough dynamic instruction count of one full execution."""
        return sum(2 + trip * (2 + sum(_stmt_cost(s) for s in body))
                   for trip, body in self.loops)


def _stmts_size(stmts: tuple) -> int:
    total = 0
    for s in stmts:
        total += 1
        if s[0] == "hammock":
            total += _stmts_size(s[4]) + _stmts_size(s[5])
    return total


def _stmt_cost(s: tuple) -> int:
    """Static instructions one statement materializes to (hammocks use
    the longer arm — an upper bound on the dynamic cost)."""
    kind = s[0]
    if kind == "chase":
        return 4 * s[3]
    if kind == "gather":
        return 2 + 5 * s[3]
    if kind == "stream":
        return 5
    if kind == "store":
        return 4
    if kind in ("bload", "bstore"):
        return 3
    if kind in ("fload", "fstore"):
        return 4
    if kind == "hammock":
        then_c = sum(_stmt_cost(x) for x in s[4])
        else_c = sum(_stmt_cost(x) for x in s[5])
        cond_c = 5 if s[1] == "entropy" else 1
        return cond_c + 1 + max(then_c, else_c)
    return 1


# -- JSON round trip --------------------------------------------------------

def _untuple(obj):
    if isinstance(obj, tuple):
        return [_untuple(x) for x in obj]
    return obj


def _retuple(obj):
    if isinstance(obj, list):
        return tuple(_retuple(x) for x in obj)
    return obj


def spec_to_json(spec: KernelSpec) -> str:
    """Serialize a spec to deterministic (sorted, newline-free) JSON."""
    return json.dumps({
        "version": spec.version, "mem_words": spec.mem_words,
        "p_taken": spec.p_taken, "init": list(spec.init),
        "finit": list(spec.finit), "loops": _untuple(spec.loops),
    }, sort_keys=True)


def spec_from_json(text: str) -> KernelSpec:
    d = json.loads(text)
    if d.get("version") != SPEC_VERSION:
        raise ValueError(f"unsupported spec version {d.get('version')!r} "
                         f"(this generator is v{SPEC_VERSION})")
    return KernelSpec(mem_words=int(d["mem_words"]),
                      p_taken=float(d["p_taken"]),
                      init=tuple(int(v) for v in d["init"]),
                      finit=tuple(float(v) for v in d["finit"]),
                      loops=_retuple(d["loops"]),
                      version=int(d["version"]))


# -- sampling ---------------------------------------------------------------

def sample_spec(campaign_seed: int, index: int,
                dials: KernelDials = DEFAULT_DIALS) -> KernelSpec:
    """Draw program ``index`` of a campaign.  Identical inputs yield an
    identical spec on every platform and process (SeedSequence-based)."""
    rng = np.random.default_rng([SPEC_VERSION, campaign_seed, index])
    # Footprint: log-uniform over powers of two up to the dial ceiling,
    # floored at 64 words so the L1-resident corner stays represented.
    ceil_log = max(6, int(dials.mem_words).bit_length() - 1)
    n = 1 << int(rng.integers(6, ceil_log + 1))
    p_taken = float(np.round(0.5 + rng.uniform(-dials.branch_entropy / 2,
                                               dials.branch_entropy / 2), 4))
    init = tuple(
        int(INTERESTING_INTS[rng.integers(len(INTERESTING_INTS))])
        if rng.random() < 0.7
        else int(rng.integers(-(1 << 62), 1 << 62))
        for _ in INT_SCRATCH)
    finit = tuple(
        float(INTERESTING_FLOATS[rng.integers(len(INTERESTING_FLOATS))])
        if rng.random() < 0.7 else float(np.round(rng.normal() * 8, 6))
        for _ in FP_SCRATCH)

    n_loops = int(rng.integers(1, dials.max_loops + 1))
    bodies = [tuple(_sample_stmt(rng, dials, nest=0)
                    for _ in range(int(rng.integers(2, dials.max_body + 1))))
              for _ in range(n_loops)]
    # Size trips so the whole program lands near the dynamic budget,
    # split unevenly across loops for phase-like behaviour.
    shares = rng.dirichlet(np.ones(n_loops)) * dials.target_instructions
    loops = []
    for body, share in zip(bodies, shares):
        cost = 2 + sum(_stmt_cost(s) for s in body)
        loops.append((max(1, int(share // cost)), body))
    return KernelSpec(mem_words=n, p_taken=p_taken, init=init, finit=finit,
                      loops=tuple(loops))


def _sample_stmt(rng: np.random.Generator, dials: KernelDials,
                 nest: int) -> tuple:
    kinds = ["alu", "div", "chase", "gather", "stream", "store", "byte",
             "fp"]
    weights = [3.0, dials.div_weight, 1.5, 1.5, 1.0, dials.store_weight,
               dials.byte_weight, dials.fp_weight]
    if nest < dials.max_nest:
        kinds.append("hammock")
        weights.append(1.2)
    w = np.asarray(weights) / sum(weights)
    kind = kinds[int(rng.choice(len(kinds), p=w))]
    d = int(rng.integers(len(INT_SCRATCH)))
    s1 = int(rng.integers(len(INT_SCRATCH)))
    s2 = int(rng.integers(len(INT_SCRATCH)))
    if kind == "alu":
        op = ALU_OPS[int(rng.integers(len(ALU_OPS)))]
        if op in ("slli", "srli", "srai"):
            imm = int(rng.integers(0, 64))
        elif op == "andi":
            imm = int(rng.integers(-8, 256))
        else:
            imm = int(rng.integers(-64, 65))
        return ("alu", op, d, s1, s2, imm)
    if kind == "div":
        return ("div", "div" if rng.random() < 0.5 else "rem", d, s1, s2)
    if kind == "chase":
        return ("chase", d, s1, int(rng.integers(1, dials.chase_depth + 1)))
    if kind == "gather":
        return ("gather", d, s1, int(rng.integers(1, dials.gather_fanout + 1)))
    if kind == "stream":
        return ("stream", d, int(rng.integers(1, dials.stream_stride + 1)))
    if kind == "store":
        return ("store", s1, s2)
    if kind == "byte":
        if rng.random() < 0.5:
            return ("bload", d, s1)
        return ("bstore", s1, s2)
    if kind == "fp":
        f1 = int(rng.integers(len(FP_SCRATCH)))
        f2 = int(rng.integers(len(FP_SCRATCH)))
        fd = int(rng.integers(len(FP_SCRATCH)))
        roll = rng.random()
        if roll < 0.35:
            op = FP_BINOPS[int(rng.integers(len(FP_BINOPS)))]
            return ("fp", op, fd, f1, f2)
        if roll < 0.5:
            op = FP_UNOPS[int(rng.integers(len(FP_UNOPS)))]
            return ("fun", op, fd, f1)
        if roll < 0.62:
            op = FP_CMPS[int(rng.integers(len(FP_CMPS)))]
            return ("fcmp", op, d, f1, f2)
        if roll < 0.74:
            return ("cvtif", fd, s1)
        if roll < 0.86:
            return ("cvtfi", d, f1)
        if roll < 0.93:
            return ("fload", fd, s1)
        return ("fstore", f1, s1)
    # hammock
    cond = HAMMOCK_CONDS[int(rng.integers(len(HAMMOCK_CONDS)))]
    then_n = int(rng.integers(1, 4))
    else_n = int(rng.integers(0, 3))
    then = tuple(_sample_stmt(rng, dials, nest + 1) for _ in range(then_n))
    els = tuple(_sample_stmt(rng, dials, nest + 1) for _ in range(else_n))
    return ("hammock", cond, s1, s2, then, els)


# -- materialization --------------------------------------------------------

def spec_arrays(spec: KernelSpec, rng: np.random.Generator) -> dict:
    """The four backing arrays, drawn in a fixed order.

    Shared by the materializer (as segment initializers) and the oracle
    (as interpreter state), so both sides agree on inputs while
    computing outputs through entirely separate code paths.
    """
    n = spec.mem_words
    data = rng.integers(-(1 << 40), 1 << 40, size=n, dtype=np.int64)
    cycle = Workload.random_cycle(n, rng)
    fdata = np.round(rng.normal(size=n) * 100, 6)
    bits = Workload.biased_bits(n, spec.p_taken, rng)
    return {"data": data, "cycle": cycle, "fdata": fdata, "bits": bits}


def spec_layout(spec: KernelSpec, data_base: int = 0x1000) -> dict:
    """Byte addresses of the arrays — fixed by the allocation order in
    :func:`materialize` (data, cycle, fdata, bits, finit, iinit)."""
    n = spec.mem_words * 8
    return {"data": data_base, "cycle": data_base + n,
            "fdata": data_base + 2 * n, "bits": data_base + 3 * n,
            "finit": data_base + 4 * n,
            "iinit": data_base + 4 * n + 8 * len(FP_SCRATCH)}


def materialize(spec: KernelSpec, b: ProgramBuilder,
                rng: np.random.Generator) -> None:
    """Emit ``spec`` into ``b`` (everything but the final halt)."""
    arrays = spec_arrays(spec, rng)
    n = spec.mem_words
    data = b.alloc(n, init=arrays["data"])
    cycle = b.alloc(n, init=arrays["cycle"])
    b.alloc(n, init=arrays["fdata"], dtype=np.float64)
    bits = b.alloc(n, init=arrays["bits"])
    finit = b.alloc(len(spec.finit), init=np.array(spec.finit),
                    dtype=np.float64)
    # Initial int scratch comes from a data segment, not li: init values
    # span the full 64-bit range (INT64_MIN, 2^62+3, ...) while encoded
    # immediates are much narrower — li of those would not binary-encode.
    iinit = b.alloc(len(spec.init),
                    init=np.array(spec.init, dtype=np.int64))
    layout = spec_layout(spec)
    assert layout["data"] == data and layout["bits"] == bits  # fixed order
    assert layout["iinit"] == iinit

    b.li("r1", layout["data"])
    b.li("r13", layout["cycle"])
    b.li("r14", layout["fdata"])
    b.li("r15", layout["bits"])
    b.li("r16", layout["data"])          # stream cursor
    b.li("r2", iinit)
    for i, reg in enumerate(INT_SCRATCH):
        b.lw(reg, "r2", i * 8)
    b.li("r2", finit)
    for i, freg in enumerate(FP_SCRATCH):
        b.flw(freg, "r2", i * 8)

    for trip, body in spec.loops:
        b.li("r3", trip)
        with b.loop_down("r3"):
            for stmt in body:
                _emit_stmt(b, stmt, n)


_ALU_REG = {"add": "add", "sub": "sub", "xor": "xor", "and": "and_",
            "or": "or_", "mul": "mul", "sll": "sll", "srl": "srl",
            "sra": "sra", "slt": "slt", "sltu": "sltu"}
_ALU_IMM = {"addi": "addi", "andi": "andi", "ori": "ori", "xori": "xori",
            "slli": "slli", "srli": "srli", "srai": "srai", "slti": "slti"}


def _emit_stmt(b: ProgramBuilder, s: tuple, n: int) -> None:
    mask = n - 1
    bytemask = n * 8 - 1
    kind = s[0]
    if kind == "alu":
        _, op, d, s1, s2, imm = s
        rd, r1, r2 = INT_SCRATCH[d], INT_SCRATCH[s1], INT_SCRATCH[s2]
        if op in _ALU_REG:
            getattr(b, _ALU_REG[op])(rd, r1, r2)
        else:
            getattr(b, _ALU_IMM[op])(rd, r1, imm)
    elif kind == "div":
        _, op, d, s1, s2 = s
        getattr(b, op)(INT_SCRATCH[d], INT_SCRATCH[s1], INT_SCRATCH[s2])
    elif kind == "chase":
        _, d, s1, depth = s
        cur = INT_SCRATCH[s1]
        for _ in range(depth):
            b.andi("r2", cur, mask)
            b.slli("r2", "r2", 3)
            b.add("r2", "r2", "r13")
            b.lw(INT_SCRATCH[d], "r2", 0)
            cur = INT_SCRATCH[d]
    elif kind == "gather":
        _, d, s1, fan = s
        b.li("r17", 0)
        for j in range(fan):
            b.addi("r2", INT_SCRATCH[s1], j)
            b.andi("r2", "r2", mask)
            b.slli("r2", "r2", 3)
            b.add("r2", "r2", "r1")
            b.lw("r2", "r2", 0)
            b.add("r17", "r17", "r2")
        b.mov(INT_SCRATCH[d], "r17")
    elif kind == "stream":
        _, d, stride = s
        b.lw(INT_SCRATCH[d], "r16", 0)
        b.addi("r16", "r16", stride * 8)
        b.sub("r2", "r16", "r1")
        b.andi("r2", "r2", mask * 8)
        b.add("r16", "r1", "r2")
    elif kind == "store":
        _, src, idx = s
        b.andi("r2", INT_SCRATCH[idx], mask)
        b.slli("r2", "r2", 3)
        b.add("r2", "r2", "r1")
        b.sw(INT_SCRATCH[src], "r2", 0)
    elif kind == "bload":
        _, d, s1 = s
        b.andi("r2", INT_SCRATCH[s1], bytemask)
        b.add("r2", "r2", "r1")
        b.lb(INT_SCRATCH[d], "r2", 0)
    elif kind == "bstore":
        _, src, idx = s
        b.andi("r2", INT_SCRATCH[idx], bytemask)
        b.add("r2", "r2", "r1")
        b.sb(INT_SCRATCH[src], "r2", 0)
    elif kind == "fp":
        _, op, fd, f1, f2 = s
        getattr(b, op)(FP_SCRATCH[fd], FP_SCRATCH[f1], FP_SCRATCH[f2])
    elif kind == "fun":
        _, op, fd, f1 = s
        getattr(b, op)(FP_SCRATCH[fd], FP_SCRATCH[f1])
    elif kind == "fcmp":
        _, op, d, f1, f2 = s
        getattr(b, op)(INT_SCRATCH[d], FP_SCRATCH[f1], FP_SCRATCH[f2])
    elif kind == "cvtif":
        _, fd, s1 = s
        b.cvtif(FP_SCRATCH[fd], INT_SCRATCH[s1])
    elif kind == "cvtfi":
        _, d, f1 = s
        b.cvtfi(INT_SCRATCH[d], FP_SCRATCH[f1])
    elif kind == "fload":
        _, fd, s1 = s
        b.andi("r2", INT_SCRATCH[s1], mask)
        b.slli("r2", "r2", 3)
        b.add("r2", "r2", "r14")
        b.flw(FP_SCRATCH[fd], "r2", 0)
    elif kind == "fstore":
        _, fs, idx = s
        b.andi("r2", INT_SCRATCH[idx], mask)
        b.slli("r2", "r2", 3)
        b.add("r2", "r2", "r14")
        b.fsw(FP_SCRATCH[fs], "r2", 0)
    elif kind == "hammock":
        _, cond, s1, s2, then, els = s
        r1, r2 = INT_SCRATCH[s1], INT_SCRATCH[s2]
        skip = b.label()
        end = b.label() if els else skip
        # Branch *around* the then-arm when the condition is false.
        if cond == "entropy":
            b.andi("r2", r1, mask)
            b.slli("r2", "r2", 3)
            b.add("r2", "r2", "r15")
            b.lw("r2", "r2", 0)
            b.beq("r2", "r0", skip)
        elif cond == "beq":
            b.bne(r1, r2, skip)
        elif cond == "bne":
            b.beq(r1, r2, skip)
        elif cond == "blt":
            b.bge(r1, r2, skip)
        elif cond == "bge":
            b.blt(r1, r2, skip)
        elif cond == "bltz":
            b.bgez(r1, skip)
        else:  # bgez
            b.bltz(r1, skip)
        for sub in then:
            _emit_stmt(b, sub, n)
        if els:
            b.j(end)
            b.place(skip)
            for sub in els:
                _emit_stmt(b, sub, n)
            b.place(end)
        else:
            b.place(skip)
    else:  # pragma: no cover - sampler and shrinker only emit the above
        raise ValueError(f"unknown statement kind {kind!r}")


# -- workloads --------------------------------------------------------------

class SpecWorkload(Workload):
    """A workload wrapping an explicit :class:`KernelSpec` — the form the
    shrinker iterates on and ``tests/regress`` checks in."""

    suite = "fuzz"
    mem_bytes = 1 << 20

    def __init__(self, spec: KernelSpec, name: str):
        self.spec = spec
        self.name = name
        budget = spec.dynamic_estimate()
        # Generous ceilings — generated kernels halt by construction, so
        # the budgets only bound runaway estimates, never truncate.
        self.eval_instructions = 4 * budget + 2000
        self.profile_instructions = 4 * budget + 2000
        self.warmup_instructions = 0

    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        materialize(self.spec, b, rng)

    def variant_rng(self, variant: str) -> np.random.Generator:
        """The exact data rng :meth:`Workload.program` materializes with
        — the oracle replays array generation through this."""
        import zlib
        return np.random.default_rng(
            self._SEEDS[variant] ^ zlib.crc32(self.name.encode()))


class FuzzWorkload(SpecWorkload):
    """Program ``index`` of a seeded campaign.

    The name — ``fuzz:v<V>:<seed>:<index>[:k=v;k=v]`` — encodes the full
    generation identity, so parallel workers and cache keys reconstruct
    the exact program from the string alone."""

    def __init__(self, campaign_seed: int, index: int,
                 dials: KernelDials = DEFAULT_DIALS):
        self.campaign_seed = campaign_seed
        self.index = index
        self.dials = dials
        spec = sample_spec(campaign_seed, index, dials)
        super().__init__(spec, encode_name(campaign_seed, index, dials))


def encode_name(campaign_seed: int, index: int,
                dials: KernelDials = DEFAULT_DIALS) -> str:
    name = f"fuzz:v{SPEC_VERSION}:{campaign_seed}:{index}"
    overrides = {k: v for k, v in asdict(dials).items()
                 if getattr(DEFAULT_DIALS, k) != v}
    if overrides:
        name += ":" + ";".join(f"{k}={overrides[k]:g}"
                               if isinstance(overrides[k], float)
                               else f"{k}={overrides[k]}"
                               for k in sorted(overrides))
    return name


def parse_dials(text: str | None) -> KernelDials:
    """The dials a ``k=v;k=v`` string sets over :data:`DEFAULT_DIALS`, as
    a fuzz workload name and ``repro fuzz run --dials`` spell them.

    Raises ``ValueError`` on an unknown dial, a value that is not a
    number, or a value :class:`KernelDials` rejects.
    """
    if not text:
        return DEFAULT_DIALS
    kinds = {f.name: type(f.default) for f in fields(KernelDials)}
    kw = {}
    for item in text.split(";"):
        k, sep, v = item.partition("=")
        if not sep:
            raise ValueError(f"dial entry {item!r} is not k=v")
        if k not in kinds:
            raise ValueError(f"unknown dial {k!r}")
        try:
            value = float(v)
        except ValueError:
            raise ValueError(f"dial {k} takes a number, got {v!r}") from None
        if kinds[k] is int and value.is_integer():
            value = int(value)
        kw[k] = value
    return replace(DEFAULT_DIALS, **kw)


def parse_name(name: str) -> tuple[int, int, KernelDials]:
    """Inverse of :func:`encode_name`; raises ``ValueError`` on junk."""
    parts = name.split(":")
    if len(parts) not in (4, 5) or parts[0] != "fuzz":
        raise ValueError(f"not a fuzz workload name: {name!r}")
    if parts[1] != f"v{SPEC_VERSION}":
        raise ValueError(
            f"fuzz name {name!r} is generator version {parts[1]}, this "
            f"build is v{SPEC_VERSION} — regenerate the corpus")
    seed, index = int(parts[2]), int(parts[3])
    try:
        dials = parse_dials(parts[4] if len(parts) == 5 else None)
    except ValueError as exc:
        raise ValueError(f"{exc} in {name!r}") from None
    return seed, index, dials


def fuzz_workload_from_name(name: str) -> FuzzWorkload:
    """Registry hook target: rebuild the workload a fuzz name encodes."""
    seed, index, dials = parse_name(name)
    return FuzzWorkload(seed, index, dials)
