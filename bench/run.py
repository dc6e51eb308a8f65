"""Run the repository benchmark.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--out DIR]

Each workload runs in a fresh interpreter, so imports, worker pools and
peak RSS are counted per workload.  An untraced run (``--trace 0``, the
default) reports the end-to-end metrics of BENCHMARK.json; a traced run
(``--trace 1``) runs the verb once more with spans around every layer
and reports the per-layer metrics instead.  Every metric is printed as
``workload metric value unit``; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each workload's full result is also written as JSON under ``--out``
(default ``.bench_work/results``), which ``bench/compare.py`` reads.

The exit code is 0 only when every output check passed.  ``--smoke``
runs every workload at instruction scale 0.05 for one repetition, with
no pinned digests, as a quick end-to-end check of the bench itself.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from measure import EXTRA_METRICS, ROOT, load_benchmark

WORK = ROOT / ".bench_work"

#: Set-ups measured per untraced run (the reported ``setup_s`` is their
#: median): the measuring child's own plus this many minus one in
#: set-up-only interpreters.
SETUP_SAMPLES = 3

#: A workload's children are killed past this many seconds.
WORKLOAD_TIMEOUT = 170.0

#: No repetition starts that would be predicted to end later than this
#: many seconds after the measuring interpreter started.
REP_DEADLINE = 140.0


class BenchError(RuntimeError):
    """The bench could not produce a result (as opposed to a result
    whose output checks failed)."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", default=None,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="1: per-layer traced run")
    p.add_argument("--smoke", action="store_true",
                   help="scale 0.05, one repetition, no pinned digests")
    p.add_argument("--out", default=None, help="directory for result JSON")
    # Internal: how the orchestrator starts its measuring children.
    p.add_argument("--child", choices=("setup", "run"),
                   help=argparse.SUPPRESS)
    p.add_argument("--spawned-ns", type=int, help=argparse.SUPPRESS)
    p.add_argument("--result-file", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- child side ----------------------------------------------------------------

def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def child_main(args: argparse.Namespace) -> int:
    """Set up one workload, then (``--child run``) measure it."""
    import verbs
    name = args.workload[0]
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs = min(2, len(os.sched_getaffinity(0)))
        ctx = verbs.Context(seed=args.seed, jobs=jobs, work=work,
                            smoke=args.smoke)
        workload = verbs.WORKLOADS[name](ctx)
        workload.setup()
        setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
        if args.child == "setup":
            result = {"setup_s": setup_s}
        elif args.trace:
            result = _measure_traced(workload, args, jobs)
        else:
            result = _measure(workload, args, jobs)
        result["setup_s"] = setup_s
        Path(args.result_file).write_text(json.dumps(result),
                                          encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _run_reps(workload, args, min_reps: int) -> list:
    """Repetitions until ``--seconds`` is used up (never fewer than
    ``min_reps``; exactly one in a smoke run)."""
    reps = []
    started = time.perf_counter()
    while True:
        reps.append(workload.rep(len(reps)))
        if args.smoke:
            break
        if len(reps) < min_reps:
            continue
        elapsed = time.perf_counter() - started
        since_spawn = (time.monotonic_ns() - args.spawned_ns) / 1e9
        last = reps[-1].wall_s
        if (elapsed + last > args.seconds
                or since_spawn + last > REP_DEADLINE):
            break
    return reps


def _tally(reps) -> dict:
    cells = sum(r.cells for r in reps)
    failed_cells = sum(r.failed_cells for r in reps)
    checks = [(label, ok) for r in reps for label, ok in r.checks.items()]
    failed_checks = sorted({label for label, ok in checks if not ok})
    attempted = cells + len(checks)
    failed = failed_cells + sum(1 for _, ok in checks if not ok)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "failed_checks": failed_checks,
            "error_rate": failed / attempted}


def _measure(workload, args, jobs: int) -> dict:
    reps = _run_reps(workload, args, workload.min_reps)
    walls = [r.wall_s for r in reps]
    wall = median(walls)
    last = reps[-1]
    tally = _tally(reps)
    metrics = {"wall_s": wall,
               "sim_instr_per_s": reps[0].instructions / wall,
               "peak_rss_mb": _peak_rss_mb(),
               "error_rate": tally.pop("error_rate")}
    for key in ("cache_mb", "paper_gap_pp", "coverage_bins"):
        if key in last.extra:
            metrics[key] = last.extra[key]
    return {**tally, "jobs": jobs, "reps": len(reps), "rep_walls": walls,
            "metrics": metrics, "digests": last.digests}


def _measure_traced(workload, args, jobs: int) -> dict:
    import cProfile

    import layers
    from spans import SpanRecorder, load_spans

    per_layer = [m["name"] for m in load_benchmark()["per_layer"]]
    rounds = 1 if args.smoke else getattr(workload, "percentile_rounds", 1)
    untraced = [workload.rep(k) for k in range(rounds)]
    span_dir = Path(workload.ctx.work) / "spans"
    recorder = SpanRecorder(span_dir)
    layers.install(recorder)
    try:
        traced = workload.rep(len(untraced))
    finally:
        recorder.restore()
    spans = load_spans(span_dir)

    m = layers.layer_metrics(spans, parent_pid=os.getpid())
    m["trace.overhead"] = traced.wall_s / median([r.wall_s
                                                  for r in untraced])
    checked = untraced + [traced]
    if workload.name == "kernel":
        samples = [s for r in untraced for s in r.extra["samples"]]
        profiles = {layers.PAPER_MEMORY: cProfile.Profile(),
                    layers.STALL_MEMORY: cProfile.Profile()}
        checked.append(workload.rep(len(checked), profiles=profiles))
        for point, memory in (("paper", layers.PAPER_MEMORY),
                              ("stall", layers.STALL_MEMORY)):
            shares = layers.profile_shares(profiles[memory])
            m.update({f"{k}.{point}": v for k, v in shares.items()})
    else:
        samples = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans
                   if s["name"] == "pipeline.run"]
    m.update(layers.run_percentiles(samples))
    if workload.name == "suite-report":
        m["observe.tracer_overhead"] = workload.tracer_overhead()
        m["observe.warm_report_s"] = untraced[0].extra["warm_report_s"]
    for key in ("cache_mb", "paper_gap_pp", "coverage_bins"):
        if key in untraced[0].extra:
            m[key] = untraced[0].extra[key]

    unknown = sorted(set(m) - set(per_layer))
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    tally = _tally(checked)
    tally.pop("error_rate")
    return {**tally, "jobs": jobs, "reps": len(checked),
            "metrics": {name: m.get(name, 0.0) for name in per_layer},
            "digests": traced.digests}


# -- orchestrator side ---------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Nothing the program writes may land outside the checkout.
    env["REPRO_CACHE_DIR"] = str(WORK / "cache-default")
    return env


def _spawn(args: argparse.Namespace, name: str, mode: str,
           deadline: float) -> dict:
    """Run one child interpreter to completion and return its result."""
    WORK.mkdir(parents=True, exist_ok=True)
    result_file = WORK / f"result-{os.getpid()}-{name}-{mode}.json"
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--child", mode, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result-file", str(result_file)]
    if args.smoke:
        cmd.append("--smoke")
    spawned = time.monotonic_ns()
    proc = subprocess.Popen(cmd + ["--spawned-ns", str(spawned)],
                            cwd=ROOT, env=_child_env(),
                            stdout=sys.stderr.fileno(),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        # Kills the child itself after a timeout or an interrupt; after a
        # normal exit, any straggler it left in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise BenchError(f"{name}: {mode} child exited with code {code}")
    try:
        return json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        result_file.unlink(missing_ok=True)


def run_workload(args: argparse.Namespace, name: str, units: dict) -> dict:
    deadline = time.monotonic() + WORKLOAD_TIMEOUT
    try:
        result = _spawn(args, name, "run", deadline)
        setups = [result.pop("setup_s")]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(args, name, "setup",
                                     deadline)["setup_s"])
            result["metrics"]["setup_s"] = median(setups)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: no result within "
                         f"{WORKLOAD_TIMEOUT:.0f} s") from None
    result.update(workload=name, seed=args.seed, trace=args.trace,
                  smoke=args.smoke, seconds=args.seconds,
                  setup_samples=setups)
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}
    return result


def _result_line(results: list[dict], wanted: list[str]) -> dict:
    """The contract line: one workload's metrics by name, or with
    several workloads each name prefixed ``<workload>:``."""
    metrics = {}
    for r in results:
        for k in wanted:
            key = k if len(results) == 1 else f"{r['workload']}:{k}"
            metrics[key] = r["metrics"][k]
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def _layers_markdown(results: list[dict], per_layer: list[dict]) -> str:
    names = [r["workload"] for r in results]
    lines = ["| metric | unit | " + " | ".join(names) + " |",
             "|---|---|" + "---:|" * len(names)]
    for m in per_layer:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        cells = [str(v) if isinstance(v, int) else f"{v:.6g}"
                 for v in values]
        lines.append(f"| `{m['name']}` | {m['unit']} | "
                     + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: program source not found at {ROOT / 'src/repro'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    spec = load_benchmark()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    bad = [n for n in names if n not in known]
    if bad:
        print(f"bench: unknown workload(s) {bad}; known: {known}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    wanted = [m["name"] for m in section]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({k: v[0] for k, v in EXTRA_METRICS.items()})
    out = Path(args.out) if args.out else WORK / "results"
    out.mkdir(parents=True, exist_ok=True)

    results = []
    try:
        for name in names:
            result = run_workload(args, name, units)
            results.append(result)
            tag = f"{name}-s{args.seed}{'-trace' if args.trace else ''}"
            (out / f"{tag}.json").write_text(
                json.dumps(result, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
            print(f"{name} reps {result['reps']} count")
            for k, v in result["metrics"].items():
                print(f"{name} {k} {v['value']!r} {v['unit']}")
            for label in result["failed_checks"]:
                print(f"{name} CHECK FAILED: {label}", file=sys.stderr)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        (out / "layers.md").write_text(
            _layers_markdown(results, spec["per_layer"]), encoding="utf-8")
    line = _result_line(results, wanted)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
