"""Fault-injection framework: spec grammar, determinism, injection sites."""

import pytest

from repro.harness.faults import (FAULTS_ENV, FaultClause, FaultSpecError,
                                  InjectedCrash, InjectedFault, _decide,
                                  _matches, active_faults,
                                  corrupt_cache_bytes, inject_cell_faults,
                                  parse_faults)


class TestSpecParsing:
    def test_single_clause(self):
        (clause,) = parse_faults("crash:cell=3")
        assert clause == FaultClause("crash", cell=3)

    def test_multi_clause_with_params(self):
        plan = parse_faults(
            "crash:cell=3,delay:p=0.2:ms=100:seed=7,corrupt-cache:kind=results")
        assert [c.kind for c in plan] == ["crash", "delay", "corrupt-cache"]
        assert plan[1].p == 0.2 and plan[1].ms == 100 and plan[1].seed == 7
        assert plan[2].cache_kind == "results"

    def test_empty_spec_is_no_faults(self):
        assert parse_faults("") == ()
        assert parse_faults(" , ") == ()

    @pytest.mark.parametrize("bad", [
        "explode", "crash:cell", "crash:cell=", "crash:cell=x",
        "fail:p=1.5", "delay:ms=fast", "crash:bogus=1"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_faults(bad)


class TestDecisions:
    def test_decide_deterministic(self):
        a = _decide(0, "fail", "cell:1:1", 0.5)
        assert all(_decide(0, "fail", "cell:1:1", 0.5) == a
                   for _ in range(20))

    def test_decide_respects_probability_roughly(self):
        hits = sum(_decide(3, "fail", f"cell:{i}:1", 0.3)
                   for i in range(1000))
        assert 200 < hits < 400

    def test_times_limits_attempts(self):
        clause = FaultClause("fail", cell=2)      # times defaults to 1
        assert _matches(clause, 2, 1)
        assert not _matches(clause, 2, 2)         # retry runs clean
        assert not _matches(clause, 1, 1)         # other cells untouched

    def test_times_zero_is_unlimited(self):
        clause = FaultClause("fail", cell=2, times=0)
        assert _matches(clause, 2, 99)


class TestActivePlan:
    def test_env_controls_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert active_faults() == ()
        monkeypatch.setenv(FAULTS_ENV, "fail:cell=0")
        assert active_faults() == (FaultClause("fail", cell=0),)
        monkeypatch.setenv(FAULTS_ENV, "delay:cell=1")
        assert active_faults()[0].kind == "delay"

    def test_fail_clause_raises(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "fail:cell=4")
        with pytest.raises(InjectedFault):
            inject_cell_faults(4, 1)
        inject_cell_faults(3, 1)       # other cells unaffected
        inject_cell_faults(4, 2)       # retry attempt runs clean

    def test_crash_clause_raises_in_process(self, monkeypatch):
        # In the parent (serial path) a crash is an exception, not _exit.
        monkeypatch.setenv(FAULTS_ENV, "crash:cell=0:times=0")
        with pytest.raises(InjectedCrash):
            inject_cell_faults(0, 5)


class TestCorruptCache:
    def test_matching_kind_corrupts(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "corrupt-cache:kind=results")
        data = b"x" * 64
        assert corrupt_cache_bytes("results", "deadbeef", data) != data
        assert corrupt_cache_bytes("artifacts", "deadbeef", data) == data

    def test_no_faults_is_identity(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        data = b"y" * 64
        assert corrupt_cache_bytes("results", "k", data) is data

    def test_probability_zero_never_corrupts(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "corrupt-cache:p=0")
        data = b"z" * 64
        assert corrupt_cache_bytes("results", "k", data) == data

    def test_diskcache_recovers_from_injected_corruption(self, monkeypatch,
                                                         tmp_path):
        from repro.harness import DiskCache
        cache = DiskCache(tmp_path / "c")
        monkeypatch.setenv(FAULTS_ENV, "corrupt-cache:kind=results")
        cache.put("results", {"x": 1}, list(range(100)))
        monkeypatch.delenv(FAULTS_ENV)
        # Corrupt entry reads back as a miss, never an error.
        assert cache.get("results", {"x": 1}) is None
        assert cache.counters["results"].errors == 1
