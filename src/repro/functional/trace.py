"""Committed-path execution traces.

The functional simulator emits one :class:`TraceEntry` per architecturally
executed instruction.  Traces are the interchange format between the
functional layer and both consumers:

* the **profiler** (`repro.compiler.profiler`) replays a trace against a
  cache model to find delinquent loads and dynamic dependence edges;
* the **timing model** (`repro.pipeline`) replays a trace through the
  cycle-level SMT pipeline — the oracle-trace substitution documented in
  DESIGN.md §2.

Traces are also the bulk of every cached workload artifact, so a
:class:`Trace` pickles in columns (see :meth:`Trace.__reduce__`) rather
than one :class:`TraceEntry` object at a time.
"""

from __future__ import annotations

from array import array
from operator import attrgetter

from ..isa.opcodes import OpClass


class TraceEntry:
    """One dynamic instruction on the committed path.

    Attributes are deliberately flat scalars/tuples — this object is
    allocated once per simulated instruction and read many times in the
    timing model's inner loop.
    """

    __slots__ = ("pc", "op_class", "srcs", "dst", "addr", "taken",
                 "is_load", "is_store", "is_branch", "is_cond")

    def __init__(self, pc: int, op_class: int, srcs: tuple, dst: int,
                 addr: int, taken: bool, is_load: bool, is_store: bool,
                 is_branch: bool, is_cond: bool):
        self.pc = pc
        self.op_class = op_class
        self.srcs = srcs
        self.dst = dst
        #: Byte address touched, or -1 for non-memory instructions.
        self.addr = addr
        self.taken = taken
        self.is_load = is_load
        self.is_store = is_store
        self.is_branch = is_branch
        self.is_cond = is_cond

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = ("L" if self.is_load else "S" if self.is_store else
                "B" if self.is_branch else ".")
        return f"<T pc={self.pc} {OpClass(self.op_class).name} {kind} addr={self.addr}>"


class Trace:
    """A complete committed-path trace plus summary statistics."""

    __slots__ = ("entries", "program_name", "halted", "instret")

    def __init__(self, entries: list[TraceEntry], *, program_name: str = "",
                 halted: bool = True):
        self.entries = entries
        self.program_name = program_name
        #: True when execution reached ``halt`` (vs. hitting the run limit).
        self.halted = halted
        self.instret = len(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __reduce__(self):
        """Pickle in columns: ``pc`` and ``addr`` as ``array('q')``,
        ``taken`` as one byte per entry, and per entry an index into the
        table of distinct static tuples (:data:`_static_fields`) — a
        program has few static instructions, so most entries cost one
        small index instead of a pickled object.

        :func:`_trace_from_columns` rebuilds equal entries, field for
        field and type for type (``taken`` must be a ``bool``, as the
        functional simulator emits it).  There is deliberately no
        ``__setstate__``: pickles written before this format still load
        through the default slot restore.
        """
        entries = self.entries
        index: dict[tuple, int] = {}
        codes = [index.setdefault(s, len(index))
                 for s in map(_static_fields, entries)]
        return (_trace_from_columns, (
            self.program_name, self.halted, self.instret,
            array("q", map(attrgetter("pc"), entries)),
            array("q", map(attrgetter("addr"), entries)),
            bytes(map(attrgetter("taken"), entries)),
            list(index),
            array("H" if len(index) <= 1 << 16 else "I", codes)))

    # -- summary statistics --------------------------------------------------

    def count_loads(self) -> int:
        return sum(1 for e in self.entries if e.is_load)

    def count_stores(self) -> int:
        return sum(1 for e in self.entries if e.is_store)

    def count_branches(self, conditional_only: bool = False) -> int:
        if conditional_only:
            return sum(1 for e in self.entries if e.is_cond)
        return sum(1 for e in self.entries if e.is_branch)

    def instructions_per_branch(self) -> float:
        """IPB as reported in the paper's Table 3."""
        nb = self.count_branches(conditional_only=True)
        return len(self.entries) / nb if nb else float("inf")

    def load_fraction(self) -> float:
        return self.count_loads() / len(self.entries) if self.entries else 0.0


#: The entry fields a static instruction determines, in
#: :class:`TraceEntry` argument order — one row of a pickled trace's
#: static table.
_static_fields = attrgetter("op_class", "srcs", "dst", "is_load",
                            "is_store", "is_branch", "is_cond")


def _trace_from_columns(program_name: str, halted: bool, instret: int,
                        pcs: array, addrs: array, taken: bytes,
                        statics: list[tuple], codes: array) -> Trace:
    """Inverse of :meth:`Trace.__reduce__` (module level, so pickles
    reference it by name)."""
    entries = []
    append = entries.append
    for pc, addr, tk, code in zip(pcs, addrs, taken, codes):
        op_class, srcs, dst, is_load, is_store, is_branch, is_cond = \
            statics[code]
        append(TraceEntry(pc, op_class, srcs, dst, addr, tk == 1, is_load,
                          is_store, is_branch, is_cond))
    trace = Trace(entries, program_name=program_name, halted=halted)
    trace.instret = instret
    return trace
