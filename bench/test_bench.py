"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest bench -q``."""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
import time
from pathlib import Path

import pytest

from compare import verdict
from measure import ROOT, load_benchmark, percentile, valid_name
from spans import SpanRecorder, load_spans, self_times

RUN = Path(__file__).resolve().parent / "run.py"


def _span(pid, sid, parent, start, end, name="s"):
    return {"pid": pid, "id": sid, "parent": parent, "name": name,
            "cell": None, "start_ns": start, "end_ns": end, "attrs": {}}


def test_self_time_subtracts_direct_children_only():
    spans = [_span(1, 0, None, 0, 100), _span(1, 1, 0, 10, 60),
             _span(1, 2, 1, 20, 30), _span(1, 3, 0, 50, 80)]
    selfs = self_times(spans)
    # The two children overlap on [50, 60): covered once, not twice.
    assert selfs[(1, 0)] == 100 - 70
    assert selfs[(1, 1)] == 50 - 10
    assert selfs[(1, 2)] == 10
    assert selfs[(1, 3)] == 30


def test_self_time_keeps_processes_apart():
    spans = [_span(1, 0, None, 0, 100), _span(1, 1, 0, 0, 50),
             _span(2, 0, None, 0, 100), _span(2, 1, None, 100, 120)]
    selfs = self_times(spans)
    assert selfs[(1, 0)] == 50
    assert selfs[(2, 0)] == 100
    assert selfs[(2, 1)] == 20


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def _child_work():
    _Layer().outer()


def test_recorder_flushes_roots_and_resets_in_forked_children(tmp_path):
    recorder = SpanRecorder(tmp_path)
    recorder.wrap(_Layer, "outer", "layer.outer")
    recorder.wrap(_Layer, "inner", "layer.inner")
    try:
        open_span = recorder.begin("parent.run")
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_child_work)
        child.start()
        child.join(timeout=30)
        assert not child.is_alive() and child.exitcode == 0
        assert _Layer().outer() == 2
        recorder.end(open_span)
    finally:
        recorder.restore()
    assert "outer" in vars(_Layer) and not hasattr(_Layer.outer,
                                                   "__wrapped__")
    spans = load_spans(tmp_path)
    by_pid: dict[int, list] = {}
    for s in spans:
        by_pid.setdefault(s["pid"], []).append(s)
    assert len(by_pid) == 2
    child_spans = by_pid[child.pid]
    assert sorted(s["name"] for s in child_spans) == ["layer.inner",
                                                      "layer.outer"]
    root = next(s for s in child_spans if s["name"] == "layer.outer")
    assert root["parent"] is None
    parent_names = sorted(s["name"] for s in spans if s["pid"] != child.pid)
    assert parent_names == ["layer.inner", "layer.outer", "parent.run"]


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(20)), 50) == 9
    assert percentile([float(i) for i in range(42)], 75) == 31.0
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    with pytest.raises(ValueError):
        percentile(list(range(42)), 90)


def test_benchmark_json_follows_the_grammar():
    spec = load_benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert all(valid_name(n) for n in names), names
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert not valid_name("bad name") and not valid_name(".hidden")


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2]
    same = [(x, x) for x in base]
    assert verdict(base, base, same, "lower", 0.0)[0] == "identical"
    assert verdict(base, base, same, "lower", 0.1)[0] == "no worse"
    fast = [x * 0.5 for x in base]
    assert verdict(base, fast, list(zip(base, fast)), "lower",
                   0.1) == ("improved", 1.0)
    slow = [x * 1.5 for x in base]
    assert verdict(base, slow, list(zip(base, slow)), "lower",
                   0.1)[0] == "worse"
    noisy = [5.0, 15.0, 10.0, 20.0, 2.0]
    assert verdict(base, noisy, list(zip(base, noisy)), "lower",
                   0.1)[0] == "unresolved"


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_declared_metric(tmp_path, trace):
    spec = load_benchmark()
    section = spec["per_layer"] if trace else spec["end_to_end"]
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--trace", str(trace),
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=90)
    assert time.monotonic() - started < 90
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for workload in spec["workloads"]:
        for metric in section:
            key = f"{workload['name']}:{metric['name']}"
            assert isinstance(line["metrics"][key]["value"], (int, float))
            assert line["metrics"][key]["unit"] == metric["unit"]
