"""Random-kernel generator: determinism, halting, round trips, coverage.

The generator supersedes the straight-line embryo in
``tests/properties/generators.py``; the coverage tests here pin exactly
the blind spots the embryo had (stores, body branches, div/rem, byte
accesses, fp) so they can never silently regress out of the corpus.
"""

import json
from pathlib import Path

import pytest

from repro.functional import FunctionalSimulator
from repro.fuzz.generator import (DEFAULT_DIALS, FuzzWorkload, KernelDials,
                                  SpecWorkload, encode_name,
                                  fuzz_workload_from_name, parse_dials,
                                  parse_name, sample_spec, spec_from_json,
                                  spec_to_json)
from repro.fuzz.schedule import GEN_ARMS
from repro.workloads import get_workload

CORPUS = Path(__file__).parents[1] / "regress" / "corpus" / "corpus.json"


def _stmt_kinds(spec):
    kinds = set()

    def walk(stmts):
        for s in stmts:
            kinds.add(s[0])
            if s[0] == "hammock":
                walk(s[4])
                walk(s[5])
    for _, body in spec.loops:
        walk(body)
    return kinds


class TestDeterminism:
    def test_same_seed_same_spec(self):
        assert sample_spec(5, 3) == sample_spec(5, 3)

    def test_different_index_different_spec(self):
        assert sample_spec(5, 3) != sample_spec(5, 4)

    def test_programs_byte_identical(self):
        a = FuzzWorkload(5, 3).program("eval")
        b = FuzzWorkload(5, 3).program("eval")
        assert list(a.encode()) == list(b.encode())
        assert [seg.values.tobytes() for seg in a.segments] == \
            [seg.values.tobytes() for seg in b.segments]

    def test_train_eval_share_text_not_data(self):
        w = FuzzWorkload(5, 3)
        train, evalp = w.program("train"), w.program("eval")
        assert list(train.encode()) == list(evalp.encode())
        assert any(x.values.tobytes() != y.values.tobytes()
                   for x, y in zip(train.segments, evalp.segments))


class TestRoundTrips:
    def test_spec_json_round_trip(self):
        spec = sample_spec(9, 1)
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_json_is_deterministic(self):
        assert spec_to_json(sample_spec(9, 2)) == spec_to_json(
            sample_spec(9, 2))

    def test_name_round_trip_default_dials(self):
        name = encode_name(12, 34)
        assert name == "fuzz:v1:12:34"
        assert parse_name(name) == (12, 34, DEFAULT_DIALS)

    def test_name_round_trip_with_dials(self):
        dials = KernelDials(mem_words=4096, fp_weight=0.0, max_loops=2)
        seed, index, parsed = parse_name(encode_name(3, 7, dials))
        assert (seed, index) == (3, 7)
        assert parsed == dials

    def test_registry_resolves_fuzz_names(self):
        w = get_workload("fuzz:v1:12:34")
        assert isinstance(w, FuzzWorkload)
        assert (w.campaign_seed, w.index) == (12, 34)

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="generator version"):
            parse_name("fuzz:v999:1:2")

    def test_junk_rejected(self):
        with pytest.raises(ValueError):
            parse_name("pointer")
        with pytest.raises(ValueError):
            fuzz_workload_from_name("fuzz:v1:1:2:bogus_dial=3")


class TestDials:
    @pytest.mark.parametrize("name, dials", GEN_ARMS)
    def test_presets_round_trip(self, name, dials):
        text = encode_name(1, 2, dials).split(":")[4:]
        parsed = parse_dials(text[0] if text else None)
        assert parsed == dials
        assert [type(v) for v in parsed.describe().values()] == \
            [type(v) for v in dials.describe().values()]

    def test_corpus_names_round_trip(self):
        corpus = json.loads(CORPUS.read_text())
        names = [e["name"] for e in corpus["entries"]
                 if e["name"].startswith("fuzz:")]
        assert names
        for name in names:
            assert encode_name(*parse_name(name)) == name

    def test_numbers_take_the_dial_type(self):
        dials = parse_dials("mem_words=1e3;fp_weight=2")
        assert dials.mem_words == 1000 and type(dials.mem_words) is int
        assert dials.fp_weight == 2.0 and type(dials.fp_weight) is float

    @pytest.mark.parametrize("text, message", [
        ("warp=9", "unknown dial 'warp'"),
        ("describe=1", "unknown dial 'describe'"),
        ("mem_words", "not k=v"),
        ("mem_words=abc", "takes a number"),
        ("mem_words=2.5", "whole number"),
        ("max_loops=0", "max_loops must be at least 1"),
        ("max_body=1", "max_body must be at least 2"),
        ("chase_depth=0", "chase_depth must be at least 1"),
        ("gather_fanout=0", "gather_fanout must be at least 1"),
        ("stream_stride=0", "stream_stride must be at least 1"),
        ("fp_weight=-1", "must not be negative"),
        ("byte_weight=nan", "finite"),
    ])
    def test_undrawable_dials_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_dials(text)
        with pytest.raises(ValueError, match=message):
            parse_name(f"fuzz:v1:1:2:{text}")

    def test_constructor_rejects_fractional_int_dial(self):
        with pytest.raises(ValueError, match="whole number"):
            KernelDials(max_loops=2.5)


class TestEncoding:
    @pytest.mark.parametrize("index", range(6))
    def test_generated_programs_binary_encode(self, index):
        # Init values span the full 64-bit range, which must reach the
        # registers via data segments — li of INT64_MIN cannot encode.
        prog = FuzzWorkload(13, index).program("eval")
        assert len(prog.encode()) == len(prog.instructions)


class TestHalting:
    @pytest.mark.parametrize("index", range(6))
    def test_generated_programs_halt(self, index):
        w = FuzzWorkload(11, index)
        sim = FunctionalSimulator(w.program("eval"))
        sim.run(w.eval_instructions)
        assert sim.halted

    def test_budget_is_generous(self):
        w = FuzzWorkload(11, 0)
        sim = FunctionalSimulator(w.program("eval"))
        trace = sim.run(w.eval_instructions, trace=True)
        assert len(trace) < w.eval_instructions / 2


class TestCoverage:
    """The embryo generator's blind spots must all be in the corpus."""

    def test_corpus_covers_embryo_blind_spots(self):
        kinds = set()
        for i in range(40):
            kinds |= _stmt_kinds(sample_spec(17, i))
        assert {"store", "hammock", "div", "bload", "bstore",
                "fp", "chase", "gather", "stream"} <= kinds

    def test_interesting_ints_reach_div_edges(self):
        # INT64_MIN and -1 are in the initial-value pool, so the
        # INT64_MIN / -1 overflow and x/0 edges are reachable.
        mins = zeros = 0
        for i in range(60):
            init = sample_spec(23, i).init
            mins += -(1 << 63) in init
            zeros += 0 in init
        assert mins > 0 and zeros > 0

    def test_fp_weight_zero_silences_fp(self):
        dials = KernelDials(fp_weight=0.0)
        for i in range(10):
            kinds = _stmt_kinds(sample_spec(29, i, dials))
            assert not kinds & {"fp", "fun", "fcmp", "cvtif", "cvtfi",
                                "fload", "fstore"}

    def test_mem_words_dial_is_a_ceiling(self):
        dials = KernelDials(mem_words=256)
        for i in range(10):
            n = sample_spec(31, i, dials).mem_words
            assert 64 <= n <= 256 and n & (n - 1) == 0


class TestSpecWorkload:
    def test_spec_workload_is_replayable(self):
        spec = sample_spec(41, 2)
        doc = json.loads(spec_to_json(spec))
        rebuilt = spec_from_json(json.dumps(doc))
        a = SpecWorkload(spec, "fuzz:v1:41:2").program("eval")
        b = SpecWorkload(rebuilt, "fuzz:v1:41:2").program("eval")
        assert list(a.encode()) == list(b.encode())
