"""Per-layer instrumentation: where the traced run puts its spans, and how
the spans become the per-layer metrics of BENCHMARK.json.

Layers are named after the program's modules.  Each wrapper goes around
a name that a layer's callers look up (a module attribute or a class
method), so installing them in the benchmark process before the pool
forks instruments every worker too.  Every ``*_s`` metric is the summed
*self* time of the layer's spans over all processes, so the layers
partition the time they cover instead of counting nested work twice.
"""

from __future__ import annotations

import os
import pickle
import pstats
from collections import defaultdict

from measure import percentile
from spans import SpanRecorder, self_times

#: The simulated memory latencies that name the two kernel operating
#: points: the paper's 120-cycle machine and the 1000-cycle stall point.
PAPER_MEMORY = 120
STALL_MEMORY = 1000


def _cell_of(args, kwargs):
    cell = args[0]
    return f"{cell.workload}/{cell.config.name}"


def _run_cells_workers(args, kwargs, result):
    from repro.harness.parallel import default_jobs
    jobs = args[2] if len(args) > 2 else kwargs.get("jobs")
    jobs = default_jobs() if jobs is None else jobs
    return {"workers": min(jobs, result.total)}


def _result_bytes(args, kwargs, result):
    return {"bytes": len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))}


def _built(args, kwargs, result):
    return {"workload": args[1]}


def _put_bytes(args, kwargs, result):
    cache, kind, payload = args[0], args[1], args[2]
    size = cache.entry_size(kind, cache.key_for(kind, payload))
    return {"kind": kind, "bytes": size or 0}


def _load_bytes(args, kwargs, result):
    kind, path = args[1], args[2]
    if result is None:
        return {"kind": kind, "hit": False, "bytes": 0}
    try:
        size = path.stat().st_size
    except OSError:
        size = 0
    return {"kind": kind, "hit": True, "bytes": size}


def _functional_instrs(args, kwargs, result):
    return {"instrs": len(result.entries)}


def _sim_counts(args, kwargs, result):
    sim = args[0]
    stats = result.stats
    fills = result.memory["fills"]["pthread"]
    main = result.memory["threads"][0]
    return {"memory": sim.config.latencies.memory,
            "committed": stats.committed, "cycles": stats.cycles,
            "triggers": stats.spear.triggers,
            "fills": fills["fills"], "timely": fills["timely"],
            "unused": fills["unused"],
            "l1_accesses": main["accesses"], "l1_misses": main["l1_misses"],
            "cond_branches": stats.cond_branches,
            "mispredicts": stats.mispredicts,
            "ff_skipped": getattr(sim, "ff_cycles_skipped", 0)}


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro import observe
    from repro.compiler import driver
    from repro.functional.simulator import FunctionalSimulator
    from repro.fuzz import coverage, differential, schedule
    from repro.harness import diskcache, experiments, journal, parallel, \
        runner
    from repro.pipeline.smt import TimingSimulator
    from repro.workloads.base import Workload

    wrap = recorder.wrap
    for module in (parallel, schedule):
        wrap(module, "run_cells", "parallel.run_cells",
             measure=_run_cells_workers)
    wrap(parallel, "_pool", "parallel.pool")
    wrap(parallel, "_run_cell", "parallel.cell", cell=_cell_of,
         measure=_result_bytes)
    wrap(runner.ExperimentRunner, "_build", "runner.build", measure=_built)
    wrap(diskcache.DiskCache, "put", "diskcache.put", measure=_put_bytes)
    wrap(diskcache.DiskCache, "_load", "diskcache.get", measure=_load_bytes)
    wrap(journal.RunJournal, "_append", "journal.append")
    wrap(Workload, "program", "workloads.program")
    wrap(runner, "get_workload", "workloads.get")
    for module in (runner, differential):
        wrap(module, "compile_spear", "compiler.compile")
    wrap(driver, "CFG", "compiler.cfg")
    wrap(driver, "profile_trace", "compiler.profile")
    wrap(driver, "build_pthreads", "compiler.slice")
    wrap(FunctionalSimulator, "run", "functional.run",
         measure=_functional_instrs)
    wrap(differential, "run_oracle", "fuzz.oracle")
    wrap(differential, "evaluate_workload", "fuzz.evaluate")
    for method in ("plan", "observe"):
        wrap(schedule.ArmScheduler, method, "fuzz.schedule")
    wrap(schedule, "coverage_map", "fuzz.coverage")
    for module in (schedule, coverage):
        wrap(module, "vector_of", "fuzz.coverage")
    wrap(TimingSimulator, "__init__", "pipeline.init")
    wrap(TimingSimulator, "run", "pipeline.run", measure=_sim_counts)
    wrap(experiments, "build_suite_report", "observe.report")
    wrap(observe, "render_suite_svg", "observe.svg")


# -- aggregation -------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], *, parent_pid: int | None = None
                  ) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced run."""
    parent_pid = os.getpid() if parent_pid is None else parent_pid
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        self_s[s["name"]] += selfs[(s["pid"], s["id"])] / 1e9

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) / 1e9

    def total(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in by_name[name])

    m: dict[str, float] = {}

    # harness.parallel: capacity is each pooled run_cells' wall time its
    # workers could have been busy; busy time is the cells they ran.
    capacity = sum(dur(s) * s["attrs"]["workers"]
                   for s in by_name["parallel.run_cells"]
                   if s["attrs"].get("workers", 0) > 1)
    busy = sum(dur(s) for s in by_name["parallel.cell"]
               if s["pid"] != parent_pid)
    m["parallel.worker_busy_frac"] = _ratio(busy, capacity)
    m["parallel.pools"] = len(by_name["parallel.pool"])
    m["parallel.result_kb"] = total("parallel.cell", "bytes") / 1024

    builds = by_name["runner.build"]
    m["runner.builds"] = len(builds)
    m["runner.build_useful_frac"] = _ratio(
        len({s["attrs"]["workload"] for s in builds}), len(builds))

    gets = by_name["diskcache.get"]
    m["diskcache.put_s"] = self_s["diskcache.put"]
    m["diskcache.put_mb"] = total("diskcache.put", "bytes") / 2**20
    m["diskcache.get_s"] = self_s["diskcache.get"]
    m["diskcache.get_mb"] = total("diskcache.get", "bytes") / 2**20
    m["diskcache.hit_frac"] = _ratio(
        sum(1 for s in gets if s["attrs"]["hit"]), len(gets))

    m["journal.append_s"] = self_s["journal.append"]
    m["journal.records"] = len(by_name["journal.append"])

    m["workloads.program_s"] = (self_s["workloads.program"]
                                + self_s["workloads.get"])

    for layer in ("compile", "cfg", "profile", "slice"):
        m[f"compiler.{layer}_s"] = self_s[f"compiler.{layer}"]

    m["functional.run_s"] = self_s["functional.run"]
    m["functional.instr_per_s"] = _ratio(total("functional.run", "instrs"),
                                         self_s["functional.run"])

    m["fuzz.oracle_s"] = self_s["fuzz.oracle"]
    m["fuzz.evaluate_self_s"] = self_s["fuzz.evaluate"]
    m["fuzz.schedule_s"] = self_s["fuzz.schedule"]
    m["fuzz.coverage_s"] = self_s["fuzz.coverage"]

    runs = by_name["pipeline.run"]
    m["pipeline.init_s"] = self_s["pipeline.init"]
    m["pipeline.run_s"] = self_s["pipeline.run"]
    for point, memory in (("paper", PAPER_MEMORY), ("stall", STALL_MEMORY)):
        at = [s for s in runs if s["attrs"]["memory"] == memory]
        m[f"pipeline.{point}.instr_per_s"] = _ratio(
            sum(s["attrs"]["committed"] for s in at),
            sum(dur(s) for s in at))
    stall = [s["attrs"] for s in runs if s["attrs"]["memory"] == STALL_MEMORY]
    m["pipeline.ff_skip_frac"] = _ratio(sum(a["ff_skipped"] for a in stall),
                                        sum(a["cycles"] for a in stall))

    # The simulated machine, summed over every timing run of the rep.
    attrs = [s["attrs"] for s in runs]
    m["sim.cycles"] = sum(a["cycles"] for a in attrs)
    m["spear.triggers"] = sum(a["triggers"] for a in attrs)
    fills = sum(a["fills"] for a in attrs)
    m["spear.fill_timely_frac"] = _ratio(sum(a["timely"] for a in attrs),
                                         fills)
    m["spear.fill_unused_frac"] = _ratio(sum(a["unused"] for a in attrs),
                                         fills)
    m["memory.l1_miss_rate"] = _ratio(sum(a["l1_misses"] for a in attrs),
                                      sum(a["l1_accesses"] for a in attrs))
    m["branch.mispredict_rate"] = _ratio(
        sum(a["mispredicts"] for a in attrs),
        sum(a["cond_branches"] for a in attrs))

    m["observe.report_s"] = self_s["observe.report"]
    m["observe.svg_s"] = self_s["observe.svg"]
    m["observe.payload_mb"] = sum(
        s["attrs"]["bytes"] for s in by_name["diskcache.put"]
        if s["attrs"]["kind"] == "traces") / 2**20
    return m


def run_percentiles(samples: list[float]) -> dict[str, float]:
    """``pipeline.run_p50_s``/``_p75_s``; 0 when too few samples back
    the percentile (see :func:`measure.percentile`)."""
    out = {}
    for q in (50, 75):
        try:
            out[f"pipeline.run_p{q}_s"] = percentile(samples, q)
        except ValueError:
            out[f"pipeline.run_p{q}_s"] = 0.0
    return out


# -- inside the timing loop: cProfile shares ---------------------------------

#: share name -> (file suffix, function, only calls from this caller)
_SHARES = {
    "pipeline.share.run_loop_self": None,
    "pipeline.share.issue": [("pipeline/smt.py", "_issue", None)],
    "pipeline.share.extract": [("pipeline/smt.py", "_extract", None)],
    "pipeline.share.complete": [("pipeline/smt.py", "_complete", None)],
    "pipeline.share.commit": [("pipeline/smt.py", "_commit", None)],
    "pipeline.share.spear_mode": [
        ("pipeline/smt.py", "_spear_mode_tick", None),
        ("pipeline/smt.py", "_try_retrigger", None),
        ("pipeline/smt.py", "_begin_trigger", "_run_loop")],
    "pipeline.share.dyninstr": [("pipeline/dyninst.py", "__init__", None)],
    "memory.share.access": [("memory/hierarchy.py", "access", None)],
    "branch.share.predict": [("branch/predictors.py", "predict_and_update",
                              None)],
}


def _find(stats: dict, suffix: str, func: str) -> list:
    return [key for key in stats
            if key[2] == func and key[0].replace("\\", "/").endswith(suffix)]


def profile_shares(profile) -> dict[str, float]:
    """Shares of profiled kernel time per phase, from one
    ``cProfile.Profile`` that was enabled only around ``sim.run()``.

    Phase shares are cumulative (a phase includes what it calls), so
    they overlap; ``run_loop_self`` is ``_run_loop``'s own time, which
    stands for the inlined decode and fetch.
    """
    stats = pstats.Stats(profile).stats
    total = sum(tt for _cc, _nc, tt, _ct, _callers in stats.values())
    out = {}
    for name, parts in _SHARES.items():
        if parts is None:
            keys = _find(stats, "pipeline/smt.py", "_run_loop")
            value = sum(stats[k][2] for k in keys)
        else:
            value = 0.0
            for suffix, func, caller in parts:
                for key in _find(stats, suffix, func):
                    if caller is None:
                        value += stats[key][3]
                        continue
                    for ckey, cstat in stats[key][4].items():
                        if ckey[2] == caller:
                            value += cstat[3]
        out[name] = _ratio(value, total)
    return out
