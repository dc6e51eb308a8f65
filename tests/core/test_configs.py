"""Machine configuration validation and paper presets."""

import dataclasses

import pytest

from repro.core import (BASELINE, OP_LATENCY, PAPER_CONFIGS, SPEAR_128,
                        SPEAR_256, SPEAR_SF_128, SPEAR_SF_256, FUConfig,
                        MachineConfig)
from repro.isa import OpClass
from repro.memory import LatencyConfig


class TestPaperPresets:
    def test_five_models(self):
        assert set(PAPER_CONFIGS) == {"baseline", "SPEAR-128", "SPEAR-256",
                                      "SPEAR.sf-128", "SPEAR.sf-256"}

    def test_baseline_has_no_spear(self):
        assert not BASELINE.spear_enabled

    def test_ifq_sizes(self):
        assert SPEAR_128.ifq_size == 128
        assert SPEAR_256.ifq_size == 256
        assert SPEAR_SF_256.ifq_size == 256

    def test_sf_flag(self):
        assert SPEAR_SF_128.separate_fu and SPEAR_SF_256.separate_fu
        assert not SPEAR_128.separate_fu

    def test_table2_defaults(self):
        cfg = SPEAR_128
        assert cfg.issue_width == 8 and cfg.commit_width == 8
        assert cfg.ruu_size == 128
        assert cfg.predictor == "bimodal"
        assert cfg.predictor_table_size == 2048
        assert cfg.fu == FUConfig(4, 1, 4, 1, 2)
        assert cfg.latencies == LatencyConfig(1, 12, 120)

    def test_trigger_occupancy_half(self):
        assert SPEAR_128.trigger_occupancy == 64
        assert SPEAR_256.trigger_occupancy == 128

    def test_extract_width_half_issue(self):
        assert SPEAR_128.extract_width == SPEAR_128.issue_width // 2


class TestValidation:
    def test_extract_wider_than_decode_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(decode_width=2, extract_width=4)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(trigger_occupancy_fraction=1.5)

    def test_bad_drain_policy_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(drain_policy="maybe")

    def test_bad_wrong_path_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(wrong_path="teleport")

    def test_tiny_ifq_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(ifq_size=4, fetch_width=8)

    def test_empty_ifq_rejected(self):
        with pytest.raises(ValueError, match="IFQ size must be positive"):
            MachineConfig(ifq_size=0, fetch_width=0)


class TestHelpers:
    def test_with_latencies(self):
        lat = LatencyConfig(1, 20, 200)
        cfg = SPEAR_128.with_latencies(lat)
        assert cfg.latencies == lat
        assert cfg.ifq_size == SPEAR_128.ifq_size
        assert SPEAR_128.latencies.memory == 120   # original untouched

    def test_renamed(self):
        assert SPEAR_128.renamed("x").name == "x"

    def test_describe_covers_table2(self):
        d = SPEAR_128.describe()
        assert d["IFQ size"] == 128
        assert d["memory ports"] == 2
        assert d["memory latency"] == 120
        assert d["SPEAR"] is True

    def test_configs_hashable_for_caching(self):
        assert {SPEAR_128, SPEAR_128, SPEAR_256} == {SPEAR_128, SPEAR_256}
        clone = dataclasses.replace(SPEAR_128)
        assert clone == SPEAR_128


class TestOpLatencies:
    def test_all_classes_covered(self):
        for cls in OpClass:
            assert int(cls) in OP_LATENCY

    def test_relative_ordering(self):
        assert OP_LATENCY[int(OpClass.INT_ALU)] == 1
        assert (OP_LATENCY[int(OpClass.INT_MUL)]
                < OP_LATENCY[int(OpClass.INT_DIV)])
        assert (OP_LATENCY[int(OpClass.FP_MUL)]
                < OP_LATENCY[int(OpClass.FP_DIV)])
