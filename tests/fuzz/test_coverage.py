"""Behaviour coverage: banding, map accumulation, byte determinism."""

import dataclasses
import json

import pytest

from repro.fuzz import CoverageMap, coverage_map, vector_of
from repro.fuzz.coverage import (DIMENSIONS, UNMEASURED, _log_band,
                                 _ratio_band)
from repro.fuzz.differential import BEHAVIOR_FIELDS, FuzzVerdict
from repro.fuzz.schedule import run_guided_campaign

from .test_campaign import FAST, _runner, _spec


def verdict(name="fuzz:v1:0:0", cls="neutral", speedup=1.0, div=(),
            behavior="auto", **raw):
    """A synthetic verdict whose behaviour tuple is all-zeros + ``raw``."""
    fields = dict.fromkeys(BEHAVIOR_FIELDS, 0)
    fields.update(raw)
    if behavior == "auto":
        behavior = tuple(fields[f] for f in BEHAVIOR_FIELDS)
    return FuzzVerdict(
        name=name, classification=cls, speedup=speedup, baseline_ipc=1.0,
        spear_ipc=speedup, commits=10, trace_len=10, halted=True,
        triggers=fields["triggers"], spec_size=3, divergences=tuple(div),
        behavior=behavior)


class TestBands:
    def test_log_band_edges_are_inclusive(self):
        assert _log_band(0, (8, 64)) == "0"
        assert _log_band(1, (8, 64)) == "1"
        assert _log_band(8, (8, 64)) == "1"
        assert _log_band(9, (8, 64)) == "2"
        assert _log_band(65, (8, 64)) == "3"

    def test_ratio_band_is_exact_integer_arithmetic(self):
        # 1/100 == exactly 10 permille: NOT below the edge -> band 1.
        assert _ratio_band(1, 100, (10,)) == "1"
        assert _ratio_band(9, 1000, (10,)) == "0"
        assert _ratio_band(0, 7, (10,)) == "0"
        assert _ratio_band(3, 0, (10,)) == "0"          # no denominator

    def test_gain_bands_cut_at_the_classification_thresholds(self):
        assert dict(vector_of(verdict(speedup=0.95)).bands)["gain"] == "1"
        assert dict(vector_of(verdict(speedup=1.0)).bands)["gain"] == "2"
        assert dict(vector_of(verdict(speedup=1.05)).bands)["gain"] == "3"
        assert dict(vector_of(verdict(speedup=1.30)).bands)["gain"] == "4"
        assert dict(vector_of(verdict(speedup=2.0)).bands)["gain"] == "5"


class TestVectorOf:
    def test_key_lists_every_dimension_in_order(self):
        key = vector_of(verdict()).key
        parts = key.split("|")
        assert parts[0] == "v1"
        assert [p.split("=")[0] for p in parts[1:]] == list(DIMENSIONS)

    def test_fill_mix_dominance_and_tie_break(self):
        v = verdict(fills=10, timely=5, late=5, unused=0)
        assert dict(vector_of(v).bands)["mix"] == "timely"  # tie -> timely
        v = verdict(fills=10, timely=1, late=2, unused=7)
        assert dict(vector_of(v).bands)["mix"] == "unused"
        assert dict(vector_of(verdict()).bands)["mix"] == "none"

    def test_l2_untouched_is_distinct_from_l2_hitting(self):
        untouched = dict(vector_of(verdict()).bands)["l2"]
        hitting = dict(vector_of(verdict(l2_refs=100, l2_misses=0)).bands)
        assert untouched == "-"
        assert hitting["l2"] == "0"

    def test_divergence_labels_fold_sorted(self):
        v = verdict(cls="divergence",
                    div=("oracle: ints drift", "fills: bad", "oracle: mem"))
        assert dict(vector_of(v).bands)["div"] == "fills+oracle"

    def test_unmeasured_behavior_bands_as_x(self):
        v = verdict(behavior=None, cls="divergence", speedup=0.0,
                    div=("timing: boom",))
        bands = dict(vector_of(v).bands)
        for dim in ("trig", "chain", "mode", "fills", "mix", "l1", "l2",
                    "slices", "slen"):
            assert bands[dim] == UNMEASURED
        # ... but what *was* observed still bins.
        assert bands["cls"] == "divergence"
        assert vector_of(v).facets() == ("cls=divergence", "div=timing")


class TestCoverageMap:
    def test_accumulation_is_order_independent(self):
        vs = [verdict(name=f"n{i}", triggers=i * 7, fills=i)
              for i in range(9)]
        forward, backward = coverage_map(vs), coverage_map(vs[::-1])
        assert forward.to_json() == backward.to_json()
        assert forward.content_hash() == backward.content_hash()

    def test_add_reports_novelty_once(self):
        cmap = CoverageMap()
        assert cmap.add_verdict(verdict())
        assert not cmap.add_verdict(verdict())
        assert cmap.distinct == 1 and cmap.total == 2

    def test_json_round_trip_and_version_gate(self):
        cmap = coverage_map([verdict(), verdict(triggers=100)])
        again = CoverageMap.from_json(cmap.to_json())
        assert again.to_json() == cmap.to_json()
        doc = json.loads(cmap.to_json())
        doc["version"] = 99
        with pytest.raises(ValueError, match="coverage version"):
            CoverageMap.from_json(json.dumps(doc))

    def test_facets_skip_unmeasured_dimensions(self):
        cmap = coverage_map([verdict(behavior=None, cls="divergence",
                                     speedup=0.0, div=("timing: x",))])
        assert all(not f.endswith(f"={UNMEASURED}") for f in cmap.facets())

    def test_render_is_deterministic(self):
        vs = [verdict(name=f"n{i}", fills=i * 5, timely=i) for i in range(5)]
        assert coverage_map(vs).render() == coverage_map(vs[::-1]).render()
        assert "distinct bin(s)" in coverage_map(vs).render()


class TestCampaignCoverage:
    def test_map_is_independent_of_jobs(self, tmp_path):
        spec = _spec()
        serial = run_guided_campaign(spec, _runner(tmp_path, "c1"), jobs=1,
                                     policy=FAST, journaled=False)
        parallel = run_guided_campaign(spec, _runner(tmp_path, "c2"), jobs=2,
                                       policy=FAST, journaled=False)
        a, b = coverage_map(serial.verdicts), coverage_map(parallel.verdicts)
        assert a.to_json() == b.to_json()
        assert a.content_hash() == b.content_hash()

    def test_real_verdicts_produce_measured_vectors(self, tmp_path):
        result = run_guided_campaign(_spec(count=2), _runner(tmp_path), jobs=1,
                                     policy=FAST, journaled=False)
        for v in result.verdicts:
            assert v.behavior is not None
            bands = dict(vector_of(v).bands)
            assert bands["cls"] == v.classification
            assert UNMEASURED not in {bands[d] for d in
                                      ("trig", "mode", "l1", "slices")}
