"""Committed-path execution traces.

The functional simulator emits one :class:`TraceEntry` per architecturally
executed instruction.  Traces are the interchange format between the
functional layer and both consumers:

* the **profiler** (`repro.compiler.profiler`) replays a trace against a
  cache model to find delinquent loads and dynamic dependence edges;
* the **timing model** (`repro.pipeline`) replays a trace through the
  cycle-level SMT pipeline — the oracle-trace substitution documented in
  DESIGN.md §2.

Traces are also the bulk of every cached workload artifact.  Most entries
touch no memory, and those are shared, one object per static instruction
and branch outcome; a :class:`Trace` pickles each distinct row once (see
:meth:`Trace.__reduce__`) rather than one :class:`TraceEntry` object at a
time.
"""

from __future__ import annotations

from array import array
from operator import attrgetter

from ..isa.opcodes import OpClass


class TraceEntry:
    """One dynamic instruction on the committed path.

    Attributes are deliberately flat scalars/tuples — this object is
    read many times in the timing model's inner loop.

    Entries are shared: every instruction but a load or a store has no
    address (``addr == -1``), and a traced run or an unpickled trace
    holds one entry per (pc, taken) pair of those, however often it
    executes.  Only loads and stores get an entry each.  So no code may
    write an entry's fields after construction, or tell two entries
    apart by identity.
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
    """A complete committed-path trace plus summary statistics.

    ``entries`` may hold one :class:`TraceEntry` object many times (see
    there), so treat them as read-only values.
    """

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
        """Pickle each distinct row once, and one row code per entry.

        A row holds an entry's pc, static fields and ``taken``, plus its
        ``addr`` when that is negative, in :class:`TraceEntry` argument
        order (:data:`_entry_fields`, :data:`_row_fields`).  The pickle
        holds three things: the table of distinct rows; one code per
        entry, as ``array('H')`` or, past 65,536 rows, ``array('I')``;
        and one ``array('q')`` with the addresses of the entries whose
        row leaves ``addr`` out, in entry order.  A program has few
        static instructions and most of them touch no memory, so most
        entries cost one small code.

        :func:`_trace_from_rows` rebuilds equal entries, field for field
        and type for type, with one shared entry per row that holds
        ``addr``.  Pickles in the earlier columnar format still load
        through :func:`_trace_from_columns`, and there is deliberately
        no ``__setstate__``: pickles written before either format load
        through the default slot restore.
        """
        index: dict[tuple, int] = {}
        codes = []
        addrs = array("q")
        for entry in self.entries:
            addr = entry.addr
            if addr < 0:
                row = _entry_fields(entry)
            else:
                row = _row_fields(entry)
                addrs.append(addr)
            code = index.get(row)
            if code is None:
                code = index[row] = len(index)
            codes.append(code)
        return (_trace_from_rows, (
            self.program_name, self.halted, self.instret, list(index),
            array("H" if len(index) <= 1 << 16 else "I", codes), addrs))

    # -- summary statistics --------------------------------------------------

    def count_loads(self) -> int:
        return sum(1 for e in self.entries if e.is_load)

    def count_branches(self, conditional_only: bool = False) -> int:
        if conditional_only:
            return sum(1 for e in self.entries if e.is_cond)
        return sum(1 for e in self.entries if e.is_branch)

    def instructions_per_branch(self) -> float:
        """IPB as reported in the paper's Table 3."""
        nb = self.count_branches(conditional_only=True)
        return len(self.entries) / nb if nb else float("inf")


#: Every entry field, in :class:`TraceEntry` argument order — the row of
#: a pickled entry whose ``addr`` is negative.
_entry_fields = attrgetter(*TraceEntry.__slots__)
#: The same fields less ``addr`` — the row of an entry with an address.
_row_fields = attrgetter(*(f for f in TraceEntry.__slots__ if f != "addr"))


def _trace_from_rows(program_name: str, halted: bool, instret: int,
                     rows: list[tuple], codes: array, addrs: array) -> Trace:
    """Inverse of :meth:`Trace.__reduce__` (module level, so pickles
    reference it by name)."""
    # One entry for each row that holds its addr, shared by its codes.
    shared = [TraceEntry(*row) if len(row) == len(TraceEntry.__slots__)
              else None for row in rows]
    entries = []
    append = entries.append
    next_addr = iter(addrs).__next__
    for code in codes:
        entry = shared[code]
        if entry is None:
            pc, op_class, srcs, dst, taken, is_load, is_store, is_branch, \
                is_cond = rows[code]
            entry = TraceEntry(pc, op_class, srcs, dst, next_addr(), taken,
                               is_load, is_store, is_branch, is_cond)
        append(entry)
    trace = Trace(entries, program_name=program_name, halted=halted)
    trace.instret = instret
    return trace


def _trace_from_columns(program_name: str, halted: bool, instret: int,
                        pcs: array, addrs: array, taken: bytes,
                        statics: list[tuple], codes: array) -> Trace:
    """Loader for traces pickled in the earlier columnar format: ``pc``
    and ``addr`` columns, a ``taken`` byte per entry, and a code per
    entry into a table of static tuples (``op_class, srcs, dst, is_load,
    is_store, is_branch, is_cond``)."""
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
