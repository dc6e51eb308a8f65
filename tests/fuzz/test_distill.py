"""Corpus distillation: set-cover invariants, pinning, drift detection."""

import json

import pytest

from repro.fuzz import (check_corpus, corpus_from_json, corpus_to_json,
                        distill, run_guided_campaign, vector_of)

from .test_campaign import FAST, _runner, _spec


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One small blind campaign every distillation test shares."""
    tmp = tmp_path_factory.mktemp("distill")
    return run_guided_campaign(_spec(count=6, seed=23), _runner(tmp), jobs=2,
                               policy=FAST, journaled=False)


@pytest.fixture(scope="module")
def corpus(campaign):
    return distill(campaign.verdicts)


def _clean_facets(verdicts):
    out = set()
    for v in verdicts:
        if not v.diverged and v.behavior is not None:
            out |= set(vector_of(v).facets())
    return out


class TestDistill:
    def test_corpus_covers_every_clean_facet(self, campaign, corpus):
        covered = {f for e in corpus for f in e.facets}
        assert covered == _clean_facets(campaign.verdicts)

    def test_no_entry_is_redundant(self, corpus):
        for entry in corpus:
            others = {f for e in corpus if e is not entry for f in e.facets}
            assert not set(entry.facets) <= others, \
                f"{entry.name} covers nothing unique"

    def test_distillation_is_deterministic(self, campaign):
        a, b = distill(campaign.verdicts), distill(campaign.verdicts)
        assert [(e.name, e.key, e.facets) for e in a] == \
            [(e.name, e.key, e.facets) for e in b]

    def test_entries_pin_key_class_and_spec(self, campaign, corpus):
        by_name = {v.name: v for v in campaign.verdicts}
        for e in corpus:
            v = by_name[e.name]
            assert e.key == vector_of(v).key
            assert e.classification == v.classification
            # The pinned spec regenerates the identical program.
            assert e.workload().program("eval").encode().tobytes() == \
                e.workload().program("eval").encode().tobytes()

    def test_divergent_verdicts_are_excluded(self, campaign):
        import dataclasses
        poisoned = list(campaign.verdicts)
        poisoned[0] = dataclasses.replace(
            poisoned[0], classification="divergence",
            divergences=("oracle: drift",))
        names = {e.name for e in distill(poisoned)}
        assert poisoned[0].name not in names


class TestCorpusJson:
    def test_round_trip_is_lossless(self, corpus):
        text = corpus_to_json(corpus, source={"seed": 23, "count": 6})
        entries, doc = corpus_from_json(text)
        assert entries == corpus
        assert doc["source"] == {"seed": 23, "count": 6}
        assert corpus_to_json(entries, source=doc["source"]) == text

    def test_schema_version_gates(self, corpus):
        doc = json.loads(corpus_to_json(corpus, source={}))
        doc["coverage_version"] = 99
        with pytest.raises(ValueError, match="regenerate"):
            corpus_from_json(json.dumps(doc))
        doc = json.loads(corpus_to_json(corpus, source={}))
        doc["version"] = 0
        with pytest.raises(ValueError, match="corpus version"):
            corpus_from_json(json.dumps(doc))


class TestCheckCorpus:
    def test_same_build_is_clean(self, corpus):
        checks = check_corpus(corpus)
        assert all(c.ok for c in checks)
        assert [c.name for c in checks] == [e.name for e in corpus]
        assert all(c.describe().startswith("ok") for c in checks)

    def test_behavior_drift_is_flagged(self, corpus):
        import dataclasses
        tampered = [dataclasses.replace(corpus[0],
                                        key="v1|cls=bogus|gain=9")]
        check = check_corpus(tampered)[0]
        assert not check.ok
        assert "coverage bin" in check.drift
        assert check.describe().startswith("DRIFT")

    def test_classification_drift_is_flagged(self, corpus):
        import dataclasses
        flipped = "neutral" if corpus[0].classification != "neutral" \
            else "speedup"
        tampered = [dataclasses.replace(corpus[0], classification=flipped)]
        check = check_corpus(tampered)[0]
        assert not check.ok and "classification" in check.drift
