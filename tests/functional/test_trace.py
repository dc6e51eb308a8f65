"""Committed-trace contents, summary statistics and pickling."""

import pickle
from pathlib import Path

from repro.functional import FunctionalSimulator, Trace, TraceEntry, run_program
from repro.harness import ExperimentRunner
from repro.isa import OpClass, assemble

#: Pickled with the default slot-by-slot format that predates the
#: columnar one; ``OLD_FORMAT_SOURCE`` is the program it traced.
OLD_FORMAT_PICKLE = Path(__file__).parent / "data" / "trace_old_format.pkl"
OLD_FORMAT_SOURCE = """li r1, 0x100
li r2, 3
loop:
lw r3, 0(r1)
sw r2, 8(r1)
addi r2, r2, -1
bgtz r2, loop
j done
done:
nop
halt"""


def trace_of(text, limit=10_000):
    return run_program(assemble(text + "\nhalt"), max_instructions=limit)


def assert_same_trace(got, want):
    """Equal on every slot of the trace and of every entry, types too."""
    assert type(got) is Trace
    assert (got.program_name, got.halted, got.instret) == \
        (want.program_name, want.halted, want.instret)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for slot in TraceEntry.__slots__:
            a, b = getattr(g, slot), getattr(w, slot)
            assert a == b and type(a) is type(b), (slot, a, b)


class TestEntries:
    def test_load_entry(self):
        tr = trace_of("li r1, 0x100\nlw r2, 8(r1)")
        e = tr[1]
        assert e.is_load and not e.is_store
        assert e.addr == 0x108
        assert e.dst == 2
        assert e.srcs == (1,)
        assert e.op_class == int(OpClass.LOAD)

    def test_store_entry(self):
        tr = trace_of("li r1, 0x100\nli r2, 9\nsw r2, 0(r1)")
        e = tr[2]
        assert e.is_store and e.addr == 0x100
        assert e.dst == -1
        assert set(e.srcs) == {1, 2}

    def test_branch_entry_taken(self):
        tr = trace_of("li r1, 1\nbgtz r1, skip\nnop\nskip:\nnop")
        e = tr[1]
        assert e.is_branch and e.is_cond and e.taken

    def test_branch_entry_not_taken(self):
        tr = trace_of("li r1, 0\nbgtz r1, skip\nnop\nskip:\nnop")
        assert not tr[1].taken

    def test_uncond_jump_flagged(self):
        tr = trace_of("j next\nnext:\nnop")
        assert tr[0].is_branch and not tr[0].is_cond and tr[0].taken

    def test_alu_entry(self):
        tr = trace_of("li r1, 1\naddi r2, r1, 2")
        e = tr[1]
        assert e.addr == -1 and not (e.is_load or e.is_store or e.is_branch)

    def test_trace_is_committed_path_only(self):
        tr = trace_of("li r1, 0\nbeq r1, r0, skip\nli r2, 1\nskip:\nnop")
        pcs = [e.pc for e in tr]
        assert 2 not in pcs  # the skipped instruction never appears


class TestStatistics:
    def test_counts(self, gather_trace):
        assert gather_trace.count_loads() == 1600
        assert gather_trace.count_stores() == 0
        assert gather_trace.count_branches() == 800

    def test_ipb(self, gather_trace):
        ipb = gather_trace.instructions_per_branch()
        assert 9 < ipb < 12

    def test_load_fraction(self, gather_trace):
        assert 0.15 < gather_trace.load_fraction() < 0.25

    def test_empty_trace(self):
        tr = Trace([])
        assert tr.load_fraction() == 0.0
        assert tr.instructions_per_branch() == float("inf")

    def test_len_iter_getitem(self, gather_trace):
        assert len(gather_trace) == gather_trace.instret
        assert isinstance(gather_trace[0], TraceEntry)
        assert sum(1 for _ in gather_trace) == len(gather_trace)

    def test_halted_flag(self, gather_program):
        full = FunctionalSimulator(gather_program).run(1_000_000, trace=True)
        assert full.halted


def roundtrip(trace):
    return pickle.loads(pickle.dumps(trace, pickle.HIGHEST_PROTOCOL))


class TestPickle:
    def test_roundtrip_exact_on_every_slot(self, gather_trace):
        back = roundtrip(gather_trace)
        assert_same_trace(back, gather_trace)
        assert type(back[0].taken) is bool and type(back[0].srcs) is tuple

    def test_one_pc_with_two_static_tuples(self):
        entries = [
            TraceEntry(5, int(OpClass.INT_ALU), (1, 2), 3, -1, False,
                       False, False, False, False),
            TraceEntry(5, int(OpClass.LOAD), (4,), 6, 0x108, False,
                       True, False, False, False),
            TraceEntry(5, int(OpClass.BRANCH), (), -1, -1, True,
                       False, False, True, True),
        ]
        trace = Trace(entries, program_name="synthetic")
        assert_same_trace(roundtrip(trace), trace)

    def test_empty_trace(self):
        back = roundtrip(Trace([], program_name="empty", halted=False))
        assert len(back) == 0 and back.instret == 0
        assert (back.program_name, back.halted) == ("empty", False)

    def test_name_halted_and_instret_preserved(self, gather_trace):
        trace = Trace(gather_trace.entries[:50], program_name="cut",
                      halted=False)
        trace.instret = 1234
        back = roundtrip(trace)
        assert (back.program_name, back.halted, back.instret) == \
            ("cut", False, 1234)

    def test_at_most_half_the_entry_by_entry_size(self):
        art = ExperimentRunner(instruction_scale=0.05).artifacts("pointer")
        for trace in (art.eval_trace, art.warmup_trace):
            columnar = pickle.dumps(trace, pickle.HIGHEST_PROTOCOL)
            entry_by_entry = pickle.dumps(trace.entries,
                                          pickle.HIGHEST_PROTOCOL)
            assert len(columnar) <= 0.5 * len(entry_by_entry)

    def test_old_format_pickle_still_loads(self):
        old = pickle.loads(OLD_FORMAT_PICKLE.read_bytes())
        assert_same_trace(old, run_program(assemble(OLD_FORMAT_SOURCE),
                                           max_instructions=10_000))
