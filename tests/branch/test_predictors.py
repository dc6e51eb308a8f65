"""Branch prediction: the bimodal counters the timing model builds."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch import BimodalPredictor
from repro.core import MachineConfig
from repro.functional import Trace
from repro.pipeline import TimingSimulator


class TestBimodal:
    def test_initial_weakly_taken(self):
        assert BimodalPredictor(16).predict(0)

    def test_saturates_not_taken(self):
        p = BimodalPredictor(16)
        for _ in range(2):
            p.update(0, False)
        assert not p.predict(0)
        for _ in range(10):
            p.update(0, False)
        p.update(0, True)   # one taken shouldn't flip from saturation
        assert not p.predict(0)

    def test_hysteresis(self):
        p = BimodalPredictor(16)
        p.update(0, True)            # strongly taken
        p.update(0, False)           # weakly taken
        assert p.predict(0)
        p.update(0, False)
        assert not p.predict(0)

    def test_aliasing(self):
        p = BimodalPredictor(16)
        for _ in range(4):
            p.update(0, False)
        assert not p.predict(16)     # same table slot

    def test_stats_track_accuracy(self):
        p = BimodalPredictor(16)
        for _ in range(100):
            p.predict_and_update(4, True)
        assert p.stats.hit_ratio == 1.0
        assert p.stats.lookups == 100

    def test_biased_branch_accuracy(self):
        """A p-biased branch should approach max(p, 1-p) accuracy."""
        import random
        rng = random.Random(7)
        p = BimodalPredictor(2048)
        for _ in range(4000):
            p.predict_and_update(12, rng.random() < 0.9)
        assert 0.83 < p.stats.hit_ratio < 0.95

    def test_alternating_worst_case(self):
        p = BimodalPredictor(16)
        for i in range(200):
            p.predict_and_update(0, i % 2 == 0)
        assert p.stats.hit_ratio < 0.6

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            BimodalPredictor(100)


class TestFactoryAndStats:
    @pytest.mark.parametrize("kind,cls", [("bimodal", BimodalPredictor)])
    def test_factory(self, kind, cls):
        """The timing model builds the config's predictor, at its size."""
        config = MachineConfig(predictor=kind, predictor_table_size=64)
        predictor = TimingSimulator(Trace([]), config).predictor
        assert isinstance(predictor, cls)
        assert predictor.table_size == 64

    def test_empty_stats_hit_ratio(self):
        assert BimodalPredictor(16).stats.hit_ratio == 1.0

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_hit_ratio_bounds(self, outcomes):
        p = BimodalPredictor(64)
        for t in outcomes:
            p.predict_and_update(8, t)
        assert 0.0 <= p.stats.hit_ratio <= 1.0
        assert p.stats.lookups == len(outcomes)

    @given(st.lists(st.booleans(), min_size=20, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_constant_streams_learned(self, outcomes):
        """After training on a constant stream, prediction matches it."""
        p = BimodalPredictor(64)
        value = outcomes[0]
        for _ in range(4):
            p.update(0, value)
        assert p.predict(0) == value
