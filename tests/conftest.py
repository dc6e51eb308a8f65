"""Shared fixtures: small programs and traces used across test modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PThread, PThreadTable
from repro.functional import FunctionalSimulator, run_program
from repro.isa import ProgramBuilder
from repro.memory import MemoryHierarchy
from repro.pipeline import TimingSimulator

#: Parametrizes a test over the per-cycle walk (``walk=True``) and the
#: idle-skipping ``run()``.  The ids are the names the two had when they
#: were separate kernels, so the walk, the reference semantics, reads
#: ``reference``.
WALK_OR_SKIP = pytest.mark.parametrize(
    "walk", (True, False), ids=("reference", "fast-forward"))


def timing_sim(trace, config, table=None, *, walk=False, **kwargs):
    """A :class:`TimingSimulator` on a fresh hierarchy at ``config``'s
    latencies.  ``walk`` clears its idle skip, giving the per-cycle walk
    that ``run()`` must match byte for byte."""
    sim = TimingSimulator(trace, config, table,
                          MemoryHierarchy(latencies=config.latencies),
                          **kwargs)
    if walk:
        sim._ff = False
    return sim


@pytest.fixture(autouse=True)
def _hermetic_cache_dir(tmp_path, monkeypatch):
    """Point the persistent artifact cache at a per-test tmp dir so tests
    never read (or pollute) the user's ~/.cache/repro."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


def build_gather_program(seed: int = 1, iters: int = 800, n: int = 1 << 14,
                         name: str = "gather") -> "Program":
    """The canonical index-gather kernel: one streaming index load feeding
    one delinquent gather load, plus filler ALU work."""
    rng = np.random.default_rng(seed)
    b = ProgramBuilder(name, mem_bytes=4 << 20)
    idx_base = b.alloc(n, init=rng.integers(0, n, size=n).astype(np.int64))
    data_base = b.alloc(n, init=np.arange(n, dtype=np.int64))
    b.li("r1", idx_base)
    b.li("r2", data_base)
    b.li("r3", iters)
    b.li("r9", 0)
    with b.loop_down("r3"):
        b.lw("r4", "r1", 0)          # index (stream)
        b.slli("r5", "r4", 3)
        b.add("r6", "r5", "r2")
        b.lw("r7", "r6", 0)          # gather (delinquent)
        b.add("r9", "r9", "r7")
        b.addi("r10", "r9", 1)
        b.xor("r11", "r10", "r9")
        b.addi("r1", "r1", 8)
    b.halt()
    return b.build()


def gather_load_pcs(program) -> tuple[int, int]:
    """(index load pc, gather load pc) of the canonical kernel."""
    loads = [pc for pc, ins in enumerate(program.instructions) if ins.is_load]
    assert len(loads) == 2
    return loads[0], loads[1]


@pytest.fixture(scope="session")
def gather_program():
    return build_gather_program()


@pytest.fixture(scope="session")
def gather_trace(gather_program):
    return run_program(gather_program, max_instructions=50_000)


@pytest.fixture(scope="session")
def gather_table(gather_program):
    """Hand-built p-thread table for the canonical kernel."""
    idx_pc, gather_pc = gather_load_pcs(gather_program)
    table = PThreadTable()
    table.add(PThread(
        dload_pc=gather_pc,
        slice_pcs=frozenset(range(idx_pc, gather_pc + 1)),
        live_ins=(1, 2)))
    return table


@pytest.fixture()
def fresh_sim(gather_program):
    return FunctionalSimulator(gather_program)
