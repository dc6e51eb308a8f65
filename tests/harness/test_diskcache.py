"""DiskCache: keys, hit/miss accounting, invalidation, corruption recovery."""

import pickle

import pytest

from repro.compiler import SlicerConfig
from repro.core import BASELINE, SPEAR_128
from repro.harness import (Cell, DiskCache, ExperimentRunner,
                           default_cache_dir, figure6)
from repro.harness import diskcache as diskcache_mod
from repro.harness.runner import TraceSpec


@pytest.fixture()
def cache(tmp_path):
    return DiskCache(tmp_path / "cache")


class TestBasics:
    def test_miss_then_hit(self, cache):
        payload = {"workload": "pointer", "scale": 1.0}
        assert cache.get("artifacts", payload) is None
        cache.put("artifacts", payload, {"value": 42})
        assert cache.get("artifacts", payload) == {"value": 42}
        counters = cache.counters["artifacts"]
        assert counters.misses == 1
        assert counters.hits == 1
        assert counters.stores == 1

    def test_kind_separates_namespaces(self, cache):
        payload = {"x": 1}
        cache.put("artifacts", payload, "a")
        assert cache.get("results", payload) is None

    def test_env_override_controls_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"


class TestInvalidation:
    def test_schema_bump_invalidates(self, cache, monkeypatch):
        payload = {"workload": "pointer"}
        cache.put("artifacts", payload, "old")
        monkeypatch.setattr(cache, "schema_version",
                            cache.schema_version + 1)
        assert cache.get("artifacts", payload) is None

    def test_slicer_config_change_invalidates(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        r1 = ExperimentRunner(slicer_config=SlicerConfig(),
                              instruction_scale=0.05, cache=cache)
        k1 = cache.key_for("artifacts", r1._artifact_payload("pointer"))
        r2 = ExperimentRunner(
            slicer_config=SlicerConfig(max_slice_size=3),
            instruction_scale=0.05, cache=cache)
        k2 = cache.key_for("artifacts", r2._artifact_payload("pointer"))
        assert k1 != k2

    def test_scale_change_invalidates(self, cache):
        r1 = ExperimentRunner(instruction_scale=0.05, cache=cache)
        r2 = ExperimentRunner(instruction_scale=0.10, cache=cache)
        assert (cache.key_for("artifacts", r1._artifact_payload("pointer"))
                != cache.key_for("artifacts", r2._artifact_payload("pointer")))

    def test_empty_trace_kinds_cannot_alias_every_kind(self, cache):
        # An empty kind filter keeps no event.  Sharing the unfiltered
        # capture's cache key would hand a later unfiltered request an
        # empty trace, so it is rejected before anything runs.
        with pytest.raises(ValueError):
            TraceSpec(kinds=())
        runner = ExperimentRunner(instruction_scale=0.05, cache=cache)
        with pytest.raises(ValueError):
            runner.run_traced("pointer", SPEAR_128, kinds=())
        assert runner.simulations == 0
        fresh = ExperimentRunner(instruction_scale=0.05, cache=cache)
        traced = fresh.run_traced("pointer", SPEAR_128)
        assert fresh.simulations == 1 and traced.emitted > 0
        assert TraceSpec(kinds=("mode",)).payload()["kinds"] == ["mode"]
        assert TraceSpec().payload()["kinds"] is None

    def test_config_in_result_key(self, cache):
        r = ExperimentRunner(instruction_scale=0.05, cache=cache)
        assert (cache.key_for("results", r.entry(Cell("pointer", BASELINE))[1])
                != cache.key_for("results",
                                 r.entry(Cell("pointer", SPEAR_128))[1]))


class TestCorruption:
    def test_truncated_entry_is_miss_not_crash(self, cache):
        payload = {"x": 1}
        cache.put("artifacts", payload, list(range(1000)))
        path = cache.path_for("artifacts",
                              cache.key_for("artifacts", payload))
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get("artifacts", payload) is None
        assert cache.counters["artifacts"].errors == 1

    def test_garbage_entry_is_miss_not_crash(self, cache):
        payload = {"x": 2}
        cache.put("artifacts", payload, "ok")
        path = cache.path_for("artifacts",
                              cache.key_for("artifacts", payload))
        path.write_bytes(b"not a pickle at all")
        assert cache.get("artifacts", payload) is None

    def test_corrupt_entry_removed(self, cache):
        payload = {"x": 3}
        cache.put("artifacts", payload, "ok")
        path = cache.path_for("artifacts",
                              cache.key_for("artifacts", payload))
        path.write_bytes(b"garbage")
        cache.get("artifacts", payload)
        assert not path.exists()


class TestEvictionRaces:
    """An entry vanishing mid-read (a concurrent GC eviction) is a plain
    miss everywhere — never an error, never an exception."""

    class _VanishingPath:
        """Looks present at the existence check, gone at the open — the
        eviction race distilled to its two observable moments."""

        def is_file(self):
            return True

        def open(self, *a, **k):
            raise FileNotFoundError("evicted between is_file and open")

    def test_load_mid_eviction_is_plain_miss(self, cache):
        # Drive get's read path directly with the racing path: a miss is
        # counted, no error, nothing raises.
        assert cache._load("results", self._VanishingPath()) is None
        c = cache.counters["results"]
        assert c.misses == 1 and c.errors == 0

    def test_entry_size_absent_reports_none(self, cache):
        assert cache.entry_size("results", "0" * 64) is None

    def test_entry_size_present_reports_bytes(self, cache):
        payload = {"x": 1}
        cache.put("results", payload, list(range(100)))
        key = cache.key_for("results", payload)
        size = cache.entry_size("results", key)
        assert size == cache.path_for("results", key).stat().st_size


class TestParseBytes:
    @pytest.mark.parametrize("text,expect", [
        ("500", 500), ("500B", 500), ("64K", 64 << 10), ("64k", 64 << 10),
        ("1.5M", int(1.5 * (1 << 20))), ("2G", 2 << 30), ("2gb", 2 << 30),
        ("  10 ", 10), ("0", 0),
    ])
    def test_accepts_human_budgets(self, text, expect):
        assert diskcache_mod.parse_bytes(text) == expect

    @pytest.mark.parametrize("text", ["", "huge", "-1", "12Q", "K", "inf",
                                      "-inf", "nan", "1e400", "1e308G"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            diskcache_mod.parse_bytes(text)


class TestGC:
    def _plant(self, cache, kind, payload, value, age_s):
        import os
        import time as time_mod
        cache.put(kind, payload, value)
        key = cache.key_for(kind, payload)
        path = cache.path_for(kind, key)
        old = time_mod.time() - age_s
        os.utime(path, (old, old))
        return key, path.stat().st_size

    def test_evicts_oldest_first_down_to_budget(self, cache):
        self._plant(cache, "results", {"x": 1}, "old", 300)
        _, new_size = self._plant(cache, "results", {"x": 2}, "new", 10)
        report = cache.gc(new_size)
        assert report["removed"] == 1
        assert cache.get("results", {"x": 1}) is None
        assert cache.get("results", {"x": 2}) == "new"
        assert cache.counters["results"].evictions == 1

    def test_under_budget_is_a_no_op(self, cache):
        self._plant(cache, "results", {"x": 1}, "keep", 300)
        report = cache.gc(1 << 30)
        assert report["removed"] == 0 and report["freed_bytes"] == 0
        assert "evictions" not in cache.stats().get("results", {}) \
            or cache.stats()["results"]["evictions"] == 0

    def test_identical_passes_make_identical_decisions(self, cache):
        for i in range(4):
            self._plant(cache, "results", {"x": i}, f"v{i}", 400 - i * 60)
        budget = cache.size_stats()["total"]["bytes"] // 2
        first = cache.gc(budget)
        second = cache.gc(budget)
        assert second["removed"] == 0
        assert second["kept_entries"] == first["kept_entries"]
        assert second["kept_bytes"] == first["kept_bytes"]

    def test_report_accounting_balances(self, cache):
        for i in range(3):
            self._plant(cache, "results", {"x": i}, list(range(50)),
                        100 * (i + 1))
        before = cache.size_stats()["total"]
        report = cache.gc(0)
        assert report["examined"] == before["entries"]
        assert report["removed"] == before["entries"]
        assert report["freed_bytes"] == before["bytes"]
        assert cache.size_stats()["total"]["entries"] == 0


class TestTmpSweep:
    def _plant_tmp(self, root, age_s=0):
        import os
        import time as time_mod
        d = root / "results" / "ab"
        d.mkdir(parents=True, exist_ok=True)
        tmp = d / "orphan123.tmp"
        tmp.write_bytes(b"half-written junk")
        if age_s:
            old = time_mod.time() - age_s
            os.utime(tmp, (old, old))
        return tmp

    def test_stale_tmp_swept_on_startup(self, tmp_path):
        root = tmp_path / "c"
        tmp = self._plant_tmp(root, age_s=7200)
        cache = DiskCache(root)
        assert not tmp.exists()
        assert cache.counters["results"].sweeps == 1
        assert cache.stats()["results"]["sweeps"] == 1

    def test_fresh_tmp_left_for_live_writer(self, tmp_path):
        root = tmp_path / "c"
        tmp = self._plant_tmp(root, age_s=0)
        cache = DiskCache(root)   # default hour-long grace period
        assert tmp.exists()
        assert "results" not in cache.counters

    def test_tmp_age_override(self, tmp_path):
        root = tmp_path / "c"
        tmp = self._plant_tmp(root, age_s=0)
        DiskCache(root, tmp_max_age=0)
        assert not tmp.exists()

    def test_sweep_opt_out_for_workers(self, tmp_path):
        # Pool workers (one more started for every worker lost) skip
        # the cache-tree walk; the parent's constructor already swept.
        root = tmp_path / "c"
        tmp = self._plant_tmp(root, age_s=7200)
        cache = DiskCache(root, sweep=False)
        assert tmp.exists()
        assert "results" not in cache.counters


class TestRunnerIntegration:
    def test_warm_runner_skips_all_work(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        cold = ExperimentRunner(instruction_scale=0.05, cache=cache)
        cold.run("pointer", BASELINE)
        assert cold.builds == 1 and cold.simulations == 1

        warm = ExperimentRunner(instruction_scale=0.05, cache=cache)
        result = warm.run("pointer", BASELINE)
        assert warm.builds == 0 and warm.simulations == 0
        assert result.ipc == cold.run("pointer", BASELINE).ipc

    def test_warm_figure6_renders_same_bytes_without_work(self, tmp_path):
        # A second figure 6 on the first one's cache reads every artifact
        # and result back: the same bytes, with nothing built or run.
        names = ["pointer", "update"]
        cache = DiskCache(tmp_path / "c")
        cold = ExperimentRunner(instruction_scale=0.05, cache=cache)
        table = figure6(cold, names).table("Figure 6").render()
        assert cold.builds == 2 and cold.simulations == 6

        warm = ExperimentRunner(instruction_scale=0.05, cache=cache)
        assert figure6(warm, names).table("Figure 6").render() == table
        assert warm.builds == 0 and warm.simulations == 0

    def test_memo_key_normalizes_noop_latency_override(self, tmp_path):
        runner = ExperimentRunner(instruction_scale=0.05)
        a = runner.run("pointer", BASELINE)
        # Passing the config's own latencies explicitly must not be treated
        # as a distinct cell (the figure-9 sweep hits this path).
        b = runner.run("pointer", BASELINE, BASELINE.latencies)
        assert a is b
        assert runner.simulations == 1

    def test_cached_payloads_unpickle(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        runner = ExperimentRunner(instruction_scale=0.05, cache=cache)
        runner.run("pointer", SPEAR_128)
        key = cache.key_for("results",
                            runner.entry(Cell("pointer", SPEAR_128))[1])
        with open(cache.path_for("results", key), "rb") as fh:
            result = pickle.load(fh)
        assert result.workload == "pointer"


def test_schema_version_is_stable_constant():
    # Bumping SCHEMA_VERSION is the documented way to invalidate every
    # entry; it must exist and be an int.
    assert isinstance(diskcache_mod.SCHEMA_VERSION, int)
