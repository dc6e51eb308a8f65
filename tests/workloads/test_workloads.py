"""The 15-benchmark suite: structure, determinism, character targets."""

import numpy as np
import pytest

from repro.functional import FunctionalSimulator, run_program
from repro.workloads import all_workload_names, get_workload, suite_of

EVAL15 = ["pointer", "update", "nbh", "tr", "matrix", "field", "dm", "ray",
          "fft", "gzip", "mcf", "vpr", "bzip2", "equake", "art"]


class TestRegistry:
    def test_all_fifteen_plus_ll4(self):
        names = all_workload_names()
        assert names[:15] == EVAL15
        assert "ll4" in names

    def test_suites(self):
        assert suite_of("pointer") == "stressmark"
        assert suite_of("dm") == "dis"
        assert suite_of("mcf") == "spec"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("doom")


@pytest.mark.parametrize("name", EVAL15 + ["ll4"])
class TestEveryWorkload:
    def test_builds_and_validates(self, name):
        prog = get_workload(name).program("eval")
        prog.validate()
        assert len(prog) > 5

    def test_runs_to_budget(self, name):
        w = get_workload(name)
        prog = w.program("eval")
        need = w.warmup_instructions + w.eval_instructions
        trace = run_program(prog, max_instructions=need)
        assert len(trace) >= min(need, 50_000)

    def test_deterministic(self, name):
        w = get_workload(name)
        a = w.program("eval")
        b = w.program("eval")
        assert a.instructions == b.instructions
        assert np.array_equal(a.build_memory(), b.build_memory())

    def test_variants_share_text(self, name):
        w = get_workload(name)
        train = w.program("train")
        evalp = w.program("eval")
        assert len(train) == len(evalp)
        for x, y in zip(train.instructions, evalp.instructions):
            assert (x.op, x.rd, x.rs1, x.rs2) == (y.op, y.rd, y.rs1, y.rs2)

    def test_variants_differ_in_data(self, name):
        w = get_workload(name)
        mem_t = w.program("train").build_memory()
        mem_e = w.program("eval").build_memory()
        assert not np.array_equal(mem_t, mem_e)

    def test_unknown_variant_rejected(self, name):
        with pytest.raises(ValueError):
            get_workload(name).program("prod")


class TestMemoryCharacter:
    @pytest.mark.parametrize("name", ["pointer", "mcf", "art", "equake"])
    def test_memory_intensive(self, name):
        w = get_workload(name)
        trace = run_program(w.program("eval"),
                            max_instructions=w.eval_instructions)
        assert trace.load_fraction() > 0.15

    def test_update_has_stores(self):
        w = get_workload("update")
        trace = run_program(w.program("eval"), max_instructions=40_000)
        assert trace.count_stores() > 1000

    @pytest.mark.parametrize("name", ["ray", "fft", "equake", "art", "ll4"])
    def test_fp_workloads_use_fp(self, name):
        from repro.isa import OpClass
        w = get_workload(name)
        trace = run_program(w.program("eval"), max_instructions=30_000)
        fp = sum(1 for e in trace
                 if e.op_class in (int(OpClass.FP_ALU), int(OpClass.FP_MUL),
                                   int(OpClass.FP_DIV)))
        assert fp > 1000


class TestBranchCharacter:
    """Loose sanity on the engineered branch-hit targets (checked on the
    real bimodal predictor over the post-warmup window by the harness; here
    just the data-dependent bias)."""

    @pytest.mark.parametrize("name,lo,hi", [
        ("update", 0.80, 0.98),
        ("dm", 0.85, 0.99),
        ("gzip", 0.70, 0.95),
        ("vpr", 0.85, 0.99),
    ])
    def test_taken_bias(self, name, lo, hi):
        from repro.branch import BimodalPredictor
        w = get_workload(name)
        trace = run_program(w.program("eval"), max_instructions=50_000)
        p = BimodalPredictor(2048)
        for e in trace:
            if e.is_cond:
                p.predict_and_update(e.pc, e.taken)
        assert lo < p.stats.hit_ratio < hi


class TestHelpers:
    def test_random_cycle_is_single_cycle(self):
        from repro.workloads import Workload
        rng = np.random.default_rng(0)
        nxt = Workload.random_cycle(64, rng)
        seen = set()
        i = 0
        for _ in range(64):
            assert i not in seen
            seen.add(i)
            i = int(nxt[i])
        assert i == 0 and len(seen) == 64

    def test_biased_bits_fraction(self):
        from repro.workloads import Workload
        rng = np.random.default_rng(0)
        bits = Workload.biased_bits(20_000, 0.12, rng)
        assert 0.10 < bits.mean() < 0.14

    def test_register_rejects_duplicates(self):
        from repro.workloads import Workload, register

        class Dup(Workload):
            name = "pointer"
            suite = "x"

            def build(self, b, rng, variant):
                pass

        with pytest.raises(ValueError, match="duplicate"):
            register(Dup)

    def test_register_requires_name(self):
        from repro.workloads import Workload, register

        class NoName(Workload):
            def build(self, b, rng, variant):
                pass

        with pytest.raises(ValueError):
            register(NoName)
