"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list                 the registered workloads and their published character
compile WORKLOAD     run the SPEAR compiler, print the report
                     (``-o file`` saves the SPEAR binary as JSON)
disasm WORKLOAD      disassemble a workload's binary, annotating p-threads
run WORKLOAD         simulate one workload under one machine model
compare WORKLOAD     baseline vs all SPEAR models on one workload
analyze WORKLOAD     one traced run's interval time series and its
                     fill-timeliness breakdown (``--config``,
                     ``--interval``)
trace WORKLOAD       dump a run's event stream as JSONL (filter with
                     ``--kinds``, ``--cycles LO:HI``, ``--thread``;
                     ``--stream FILE`` writes events during the run
                     without buffering — full-length captures)
report WORKLOAD      baseline-vs-model timeline diff: per-thread series,
                     per-interval cycles-saved attribution, sparklines
                     and embedded SVG (``--baseline``/``--model`` pick
                     the configs, ``-o report.md`` writes the markdown,
                     ``--svg FILE`` also writes the standalone figure)
report --suite       the whole-suite report: every workload (or a named
                     subset) under baseline+model in parallel,
                     per-workload speedups plus geomean, one markdown
                     document and one small-multiples SVG grid
figure {6,7,8,9}     regenerate a figure of the paper
table {1,2,3}        regenerate a table of the paper
ablate-policy        fixed vs adaptive trigger-policy ablation table
journal show [RUN]   list run journals, or dump one run's JSONL events
fuzz run             run a seeded differential-fuzzing campaign (triage
                     text and arm table on stdout are byte-deterministic
                     at any --jobs; a failed cell exits 1, and with
                     --strict so does any divergence; --guided schedules
                     batches over dial/mutation arms by coverage novelty)
fuzz triage          the same campaign's triage as JSON (cached verdicts
                     make this cheap after a run)
fuzz coverage        the campaign's behaviour-coverage map (per-dimension
                     bins; --coverage-out writes it as JSON)
fuzz distill         greedy set-cover of a campaign's coverage facets
                     into a minimal pinned corpus (--corpus-out FILE)
fuzz corpus FILE     re-evaluate a pinned corpus; --strict exits 1 on
                     any divergence or behaviour drift
fuzz shrink NAME     delta-debug one diverging kernel to a minimal spec
                     (``--spec FILE`` re-shrinks a checked-in reproducer)
fuzz show NAME       print a generated kernel's spec IR and sizes
cache stats          per-kind on-disk cache accounting
cache gc --budget N  LRU-evict entries until the cache fits the budget

Every verb simulates on the one timing kernel.  ``figure``,
``table``, ``compare`` and ``report`` accept ``--jobs N`` (parallel cell
fan-out over processes, default usable-CPU count),
``--cache-dir``/``--no-cache``
(persistent artifact cache, default ``~/.cache/repro`` or
``$REPRO_CACHE_DIR``), plus the fault-tolerance knobs ``--cell-timeout``,
``--retries``, ``--fail-fast``/``--keep-going`` and ``--resume`` (skip
cells the run journal already records as ok).  ``$REPRO_FAULTS`` injects
deterministic faults (see ``repro.harness.faults``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .core.configs import PAPER_CONFIGS, BASELINE
from .harness import (Cell, DiskCache, ExecutionPolicy, ExperimentRunner,
                      FatalCellError, RunJournal, RunReport, cells_for,
                      default_jobs, default_journal_dir, default_workloads,
                      figure6, figure7, figure8, figure9, list_journals,
                      run_cells, table1, table2, table3)
from .harness.faults import FAULTS_ENV, FaultSpecError, active_faults
from .observe import EVENT_KINDS, filter_events
from .paper import TABLE
from .workloads import all_workload_names, get_workload


def _add_scale(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=1.0,
                   help="scale every instruction budget (default 1.0)")


def _add_policy(p: argparse.ArgumentParser) -> None:
    from .policy import POLICIES
    p.add_argument("--policy", default=None, choices=list(POLICIES),
                   help="trigger policy (default fixed = the paper's "
                        "operating point; adaptive-epoch converges across "
                        "repeated runs, adaptive-phase re-decides at "
                        "interval boundaries; see docs/adaptive-policy.md)")


def _add_cache_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", default=None,
                   help="persistent artifact cache location "
                        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")


def _add_cache(p: argparse.ArgumentParser) -> None:
    _add_cache_dir(p)
    p.add_argument("--no-cache", action="store_true",
                   help="disable the persistent artifact cache")
    p.set_defaults(use_cache=True)


def _add_perf(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", "-j", type=int, default=None,
                   help="worker processes for the cell matrix "
                        "(default: CPU count; 1 = exact serial path)")
    _add_cache(p)
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="abandon and retry a cell attempt after this long "
                        "(pool mode only)")
    p.add_argument("--retries", type=int, default=2,
                   help="extra attempts per failing cell (default 2)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--fail-fast", action="store_true",
                   help="abort the run on the first terminal cell failure")
    g.add_argument("--keep-going", dest="fail_fast", action="store_false",
                   help="record failures and keep computing the rest "
                        "(default)")
    p.set_defaults(fail_fast=False)
    p.add_argument("--resume", action="store_true",
                   help="skip cells the run journal records as ok "
                        "(restored from the cache); recompute only the rest")


def _runner(args) -> ExperimentRunner:
    cache = None
    if getattr(args, "use_cache", False) and not getattr(args, "no_cache",
                                                         False):
        cache = DiskCache(getattr(args, "cache_dir", None))
    return ExperimentRunner(instruction_scale=args.scale, cache=cache,
                            policy=getattr(args, "policy", None))


def _jobs(args) -> int:
    jobs = getattr(args, "jobs", None)
    return default_jobs() if jobs is None else max(1, jobs)


def _policy(args) -> ExecutionPolicy:
    return ExecutionPolicy(
        cell_timeout=getattr(args, "cell_timeout", None),
        retries=getattr(args, "retries", 2),
        fail_fast=getattr(args, "fail_fast", False))


def _journal_dir(args) -> Path:
    cache_dir = getattr(args, "cache_dir", None)
    return Path(cache_dir) / "journal" if cache_dir else default_journal_dir()


def _run_matrix(runner: ExperimentRunner, experiment: str,
                cells: list[Cell], args) -> RunReport:
    """Fault-tolerant execution of one verb's cells, journaled under the
    run's content key (``--resume`` restores its journaled-ok cells)."""
    journal = RunJournal.for_run(experiment, cells, runner,
                                 root=_journal_dir(args))
    return run_cells(runner, cells, _jobs(args), policy=_policy(args),
                     journal=journal, resume=getattr(args, "resume", False))


def _surviving_workloads(experiment: str, workloads: list[str] | None,
                         report: RunReport) -> list[str]:
    """Drop workloads with terminally-failed cells so rendering can't
    re-trip the failure in-process (keep-going semantics)."""
    names = workloads or default_workloads(experiment)
    bad = {f.cell.workload for f in report.failures}
    return [n for n in names if n not in bad]


def _fatal(exc: FatalCellError) -> int:
    print(f"fail-fast: {exc}", file=sys.stderr)
    print(exc.report.render(), file=sys.stderr)
    return 1


def cmd_list(args) -> int:
    print(f"{'name':9s} {'suite':11s} {'expect':6s} {'paper bhr':>9s} "
          f"{'paper IPB':>9s}  notes")
    for name in all_workload_names():
        w = get_workload(name)
        row = TABLE.get(name)
        paper = (f"{row.expectation:6s} {row.branch_hit_ratio:9.4f} "
                 f"{row.ipb:9.2f}" if row else f"{'-':6s} {'-':>9s} {'-':>9s}")
        print(f"{name:9s} {w.suite:11s} {paper}  {w.notes}")
    return 0


def cmd_compile(args) -> int:
    runner = _runner(args)
    art = runner.artifacts(args.workload)
    print(art.compile_report.render())
    if args.output:
        art.binary.save(args.output)
        print(f"\nSPEAR binary written to {args.output}")
    return 0


def cmd_disasm(args) -> int:
    from .isa import disassemble
    runner = _runner(args)
    art = runner.artifacts(args.workload)
    table = art.binary.table
    lines = disassemble(art.binary.program).splitlines()
    print(f"# {args.workload}: {len(table)} p-thread(s); "
          f"marked instructions flagged with *, d-loads with D")
    for line in lines:
        try:
            pc = int(line.split(":", 1)[0])
        except ValueError:
            print(line)
            continue
        flag = ("D" if pc in table.dload_pcs
                else "*" if pc in table.marked_pcs else " ")
        print(f"{flag} {line}")
    return 0


def cmd_run(args) -> int:
    config = _lookup_config(args.config)
    if config is None:
        return 2
    runner = _runner(args)
    res = runner.run(args.workload, config)
    for key, value in res.summary().items():
        print(f"{key:18s} {value}")
    return 0


def cmd_compare(args) -> int:
    runner = _runner(args)
    try:
        report = _run_matrix(runner, "compare",
                             cells_for("compare", [args.workload],
                                       policy=args.policy), args)
    except FatalCellError as exc:
        return _fatal(exc)
    if report.failures:
        print(report.render(), file=sys.stderr)
        return 1
    base = runner.run(args.workload, BASELINE)
    print(f"{'model':14s} {'IPC':>8s} {'speedup':>9s} {'L1 misses':>10s} "
          f"{'triggers':>9s}")
    for config in PAPER_CONFIGS.values():
        res = runner.run(args.workload, config)
        print(f"{config.name:14s} {res.ipc:8.3f} "
              f"{res.ipc / base.ipc:8.3f}x {res.main_l1_misses:10d} "
              f"{res.stats.spear.triggers:9d}")
    print()
    print(report.render())
    return 0


#: Forgiving shorthands for the paper's config names (``repro report
#: ll4 --baseline base --model spear``).
CONFIG_ALIASES = {
    "base": "baseline",
    "spear": "SPEAR-128",
    "spear-sf": "SPEAR.sf-128",
}


def _lookup_config(name: str):
    config = PAPER_CONFIGS.get(name)
    if config is None:
        alias = CONFIG_ALIASES.get(name.lower(), name)
        for key, cfg in PAPER_CONFIGS.items():
            if key.lower() == alias.lower():
                return cfg
        print(f"unknown config {name!r}; known: {sorted(PAPER_CONFIGS)} "
              f"(aliases: {sorted(CONFIG_ALIASES)})", file=sys.stderr)
    return config


#: ``analyze`` timeline keys with a dedicated rendering (the main
#: sample table).  Every *other* timeline key renders generically below,
#: so a new series (e.g. ``policy``) is never silently dropped.
_TIMELINE_KNOWN = ("interval", "samples")


def _series_tables(name: str, series) -> list:
    """Generic tables for one unrecognised timeline series.

    A flat list of dicts becomes one table whose columns are the union
    of the row keys in first-seen order.  A list of dicts whose values
    are themselves series (the ``per_thread`` shape) recurses one level:
    each nested list renders as its own table, titled with the parent
    row's scalar fields.  Anything else yields no tables (the caller
    prints a one-line summary instead)."""
    from .harness import TextTable
    if not (isinstance(series, list) and series
            and all(isinstance(row, dict) for row in series)):
        return []
    if any(isinstance(v, list) for row in series for v in row.values()):
        tables = []
        for row in series:
            scalars = ", ".join(
                f"{k}={v}" for k, v in row.items()
                if not isinstance(v, (list, dict)))
            for key, value in row.items():
                if isinstance(value, list):
                    tables.extend(
                        _series_tables(f"{name}[{scalars}].{key}", value))
        return tables
    columns: list[str] = []
    for row in series:
        for key in row:
            if key not in columns:
                columns.append(key)
    t = TextTable(f"timeline series {name!r}", columns)
    for row in series:
        t.add_row(*(row.get(c, "") for c in columns))
    return [t]


def cmd_analyze(args) -> int:
    """``repro analyze``: traced interval series + fill timeliness."""
    from .harness import TextTable
    config = _lookup_config(args.config)
    if config is None:
        return 2
    runner = _runner(args)
    traced = runner.run_traced(args.workload, config, interval=args.interval)
    tl = traced.result.timeline
    t = TextTable(
        f"{args.workload} / {config.name} — per-{tl['interval']}-cycle "
        f"timeline",
        ["cycle", "ipc", "ifq", "ruu", "mode_pct", "l1_miss_pct"])
    for s in tl["samples"]:
        t.add_row(s["cycle"], round(s["ipc"], 3),
                  round(s["avg_ifq_occupancy"], 1),
                  round(s["avg_ruu_occupancy"], 1),
                  round(s["mode_residency"] * 100, 1),
                  round(s["l1_miss_rate"] * 100, 1))
    for source, f in traced.result.memory["fills"].items():
        if not f["attempts"]:
            continue
        t.add_footer(
            f"{source} fills: {f['fills']} "
            f"(timely {f['timely']}, late {f['late']}, "
            f"unused {f['unused']}; redundant attempts {f['redundant']})")
    t.add_footer(f"events: {traced.emitted} emitted, "
                 f"{traced.dropped} dropped by the ring buffer")
    print(t.render())
    for name in tl:
        if name in _TIMELINE_KNOWN:
            continue
        tables = _series_tables(name, tl[name])
        if tables:
            for table in tables:
                print()
                print(table.render())
        else:
            print()
            print(f"timeline series {name!r}: {tl[name]!r}")
    return 0


def cmd_report(args) -> int:
    """``repro report``: baseline-vs-model timeline diff document —
    one workload, or the whole suite with ``--suite``.

    Either way the traced cells run through the fault-tolerant parallel
    engine (journaled, resumable, ``--jobs N`` with byte-identical
    output to serial); rendering then reads the seeded memo and
    simulates nothing.  The run report goes to stderr so stdout stays
    byte-comparable across job counts.
    """
    from .harness import (build_report, build_suite_report, report_cells,
                          report_trace_spec, timeline_diff)
    from .harness.experiments import EVAL_WORKLOADS
    from .observe import render_diff_svg, render_suite_svg
    baseline = _lookup_config(args.baseline)
    model = _lookup_config(args.model)
    if baseline is None or model is None:
        return 2
    if not args.suite and len(args.workloads) != 1:
        print("report needs exactly one WORKLOAD (or --suite for the "
              "whole-suite report)", file=sys.stderr)
        return 2
    workloads = list(args.workloads) or list(EVAL_WORKLOADS)
    runner = _runner(args)
    spec = report_trace_spec(args.interval)
    cells = report_cells(workloads, [baseline, model], spec)
    experiment = "report-suite" if args.suite else "report"
    try:
        run_report = _run_matrix(runner, experiment, cells, args)
    except FatalCellError as exc:
        return _fatal(exc)
    bad = {f.cell.workload for f in run_report.failures}
    keep = [w for w in workloads if w not in bad]
    if not keep:
        print("no workload completed; nothing to render", file=sys.stderr)
        print(run_report.render(), file=sys.stderr)
        return 1
    if args.suite:
        report, suite = build_suite_report(runner, keep, baseline, model,
                                           interval=args.interval)
        svg = render_suite_svg(suite) if args.svg else None
    else:
        report = build_report(runner, keep[0], baseline, model,
                              interval=args.interval)
        svg = None
        if args.svg:
            diff = timeline_diff(runner, keep[0], baseline, model,
                                 interval=args.interval)
            svg = render_diff_svg(diff)
    if svg is not None:
        Path(args.svg).write_text(svg, encoding="utf-8")
        print(f"SVG written to {args.svg}", file=sys.stderr)
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(report)
    print(run_report.render(), file=sys.stderr)
    return 0 if run_report.completed else 1


def cmd_trace(args) -> int:
    config = _lookup_config(args.config)
    if config is None:
        return 2
    kinds = None
    if args.kinds:
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        bad = sorted(set(kinds) - set(EVENT_KINDS))
        if bad:
            print(f"unknown event kind(s) {', '.join(bad)}; known: "
                  f"{', '.join(EVENT_KINDS)}", file=sys.stderr)
            return 2
    cycle_range = None
    if args.cycles:
        try:
            lo, _, hi = args.cycles.partition(":")
            cycle_range = (int(lo or 0), int(hi) if hi else sys.maxsize)
        except ValueError:
            print(f"bad --cycles {args.cycles!r}; expected LO:HI",
                  file=sys.stderr)
            return 2
    runner = _runner(args)
    if args.stream:
        # Streaming path: events go to the file as the run produces them
        # (JsonlStreamSink) — nothing buffered, nothing cached, so
        # billion-cycle captures are bounded by disk, not memory.  Only
        # the kind filter applies at the sink; cycle/thread filtering of
        # a stream is a job for downstream tools (jq, grep).
        if args.cycles or args.thread is not None or args.output:
            print("--stream is incompatible with --cycles/--thread/-o "
                  "(filter the stream downstream instead)", file=sys.stderr)
            return 2
        _, emitted = runner.run_streamed(
            args.workload, config, args.stream, interval=args.interval,
            kinds=tuple(kinds) if kinds else None)
        print(f"{emitted} events streamed to {args.stream}",
              file=sys.stderr)
        return 0
    # Capture unfiltered so one cached trace serves every filter; the
    # view below narrows it for display.
    traced = runner.run_traced(args.workload, config, interval=args.interval,
                               capacity=args.capacity or None)
    events = filter_events(traced.events, kinds=kinds,
                           cycle_range=cycle_range, thread=args.thread)
    out = open(args.output, "w", encoding="utf-8") if args.output \
        else sys.stdout
    try:
        for e in events:
            out.write(e.to_json() + "\n")
    finally:
        if args.output:
            out.close()
    print(f"{len(events)} events shown of {len(traced.events)} retained "
          f"({traced.emitted} emitted, {traced.dropped} dropped by the "
          f"ring buffer)", file=sys.stderr)
    return 0


def cmd_figure(args) -> int:
    if args.number not in (6, 7, 8, 9):
        print("figures: 6, 7, 8, 9", file=sys.stderr)
        return 2
    runner = _runner(args)
    workloads = args.workloads or None
    experiment = f"figure{args.number}"
    try:
        report = _run_matrix(
            runner, experiment,
            cells_for(experiment, workloads, policy=args.policy), args)
    except FatalCellError as exc:
        return _fatal(exc)
    keep = _surviving_workloads(experiment, workloads, report)
    if keep:
        if args.number == 6:
            print(figure6(runner, keep).table("Figure 6").render())
        elif args.number == 7:
            print(figure7(runner, keep).table("Figure 7").render())
        elif args.number == 8:
            print(figure8(runner, keep).table().render())
        else:
            print(figure9(runner, keep).table().render())
    else:
        print("no workload completed; nothing to render", file=sys.stderr)
    print()
    print(report.render())
    return 0 if report.completed else 1


def cmd_table(args) -> int:
    if args.number not in (1, 2, 3):
        print("tables: 1, 2, 3", file=sys.stderr)
        return 2
    runner = _runner(args)
    if args.number == 2:
        print(table2().render())
        return 0
    if args.number == 1:
        print(table1(runner, args.workloads or None).render())
        return 0
    workloads = args.workloads or None
    try:
        report = _run_matrix(runner, "table3",
                             cells_for("table3", workloads), args)
    except FatalCellError as exc:
        return _fatal(exc)
    keep = _surviving_workloads("table3", workloads, report)
    if keep:
        print(table3(runner, keep).render())
    else:
        print("no workload completed; nothing to render", file=sys.stderr)
    print()
    print(report.render())
    return 0 if report.completed else 1


def cmd_ablate_policy(args) -> int:
    """``repro ablate-policy``: fixed vs adaptive trigger-policy table.

    The cell matrix (baseline + one cell per workload × policy) runs
    through the fault-tolerant parallel engine; table assembly then
    reads the seeded memo and simulates nothing, so output is
    byte-identical across job counts.
    """
    from .harness import (ablate_policy, ablate_policy_cells,
                          policy_ablation_workloads)
    from .policy import POLICIES
    runner = _runner(args)
    workloads = args.workloads or policy_ablation_workloads()
    policies = tuple(args.policies) if args.policies else (
        "fixed", "adaptive-epoch", "adaptive-phase")
    bad_policies = sorted(set(policies) - set(POLICIES))
    if bad_policies:
        print(f"unknown polic{'ies' if len(bad_policies) > 1 else 'y'} "
              f"{', '.join(bad_policies)}; known: {', '.join(POLICIES)}",
              file=sys.stderr)
        return 2
    cells = ablate_policy_cells(workloads, policies=policies)
    try:
        report = _run_matrix(runner, "ablate-policy", cells, args)
    except FatalCellError as exc:
        return _fatal(exc)
    bad = {f.cell.workload for f in report.failures}
    keep = [w for w in workloads if w not in bad]
    if keep:
        print(ablate_policy(runner, workloads=keep,
                            policies=policies).table().render())
    else:
        print("no workload completed; nothing to render", file=sys.stderr)
    print()
    print(report.render())
    return 0 if report.completed else 1


def cmd_journal_show(args) -> int:
    root = Path(args.journal_dir) if args.journal_dir else \
        default_journal_dir()
    journals = list_journals(root)
    if not args.run:
        if not journals:
            print(f"no run journals under {root}")
            return 0
        print(f"{'run':16s} {'experiment':10s} {'events':>7s} {'ok':>5s} "
              f"{'failed':>7s}")
        for j in journals:
            records = j.entries()
            cells = [r for r in records if r.get("event") == "cell"]
            experiment = next(
                (r.get("experiment") for r in records
                 if r.get("event") == "start" and r.get("experiment")), "?")
            ok = sum(1 for r in cells if r.get("status") == "ok")
            failed = sum(1 for r in cells if r.get("status") == "failed")
            print(f"{j.run_id[:16]:16s} {str(experiment):10s} "
                  f"{len(records):7d} {ok:5d} {failed:7d}")
        return 0
    matches = [j for j in journals if j.run_id.startswith(args.run)]
    if not matches:
        print(f"no journal matching {args.run!r} under {root}",
              file=sys.stderr)
        return 2
    if len(matches) > 1:
        print(f"ambiguous run prefix {args.run!r}: "
              f"{', '.join(j.run_id[:16] for j in matches)}", file=sys.stderr)
        return 2
    for record in matches[0].entries():
        print(json.dumps(record, sort_keys=True))
    return 0


# -- fuzz -------------------------------------------------------------------

def _campaign(args):
    """Run (or replay from the cache) the campaign ``args`` describe: the
    guided arm palette with ``--guided``, else one arm at ``--dials``."""
    from .fuzz import DEFAULT_ARMS, Arm, GuidedCampaignSpec, parse_dials, \
        run_guided_campaign
    if args.guided:
        if args.dials:
            raise SystemExit("--dials applies to blind campaigns; "
                             "--guided arms carry their own dials")
        arms = DEFAULT_ARMS
    else:
        try:
            dials = parse_dials(args.dials)
        except ValueError as exc:
            raise SystemExit(f"bad --dials entry: {exc}") from None
        arms = (Arm(args.dials or "default", dials=dials),)
    try:
        spec = GuidedCampaignSpec(seed=args.seed, count=args.count,
                                  batch=args.batch, arms=arms,
                                  sweep_every=args.sweep_every)
    except ValueError as exc:
        raise SystemExit(f"fuzz: {exc}") from None
    return run_guided_campaign(spec, _runner(args), jobs=_jobs(args),
                               policy=_policy(args),
                               journal_root=_journal_dir(args),
                               resume=args.resume)


def cmd_fuzz_campaign(args) -> int:
    """``fuzz run|triage|coverage|distill``: run one campaign, then print
    the view the action names.  stdout is byte-deterministic for a given
    campaign at any ``--jobs``, and cheap on a warm cache since verdicts
    replay from the disk cache; wall-clock and cache chatter go to
    stderr."""
    from .fuzz import corpus_to_json, distill
    try:
        result = _campaign(args)
    except FatalCellError as exc:
        return _fatal(exc)
    if args.action == "run":
        print(result.report.render())
        print(result.render_allocations())
    elif args.action == "triage":
        print(result.report.to_json())
    elif args.action == "coverage":
        print(result.coverage.render())
    else:
        # Greedy facet set-cover over the clean verdicts (see
        # ``repro.fuzz.distill``).
        entries = distill(result.verdicts)
        source = {"experiment": result.spec.experiment, "seed": args.seed,
                  "count": args.count, "guided": args.guided}
        text = corpus_to_json(entries, source=source)
        if args.corpus_out:
            Path(args.corpus_out).write_text(text + "\n")
            print(f"wrote {args.corpus_out} ({len(entries)} entries)",
                  file=sys.stderr)
        else:
            print(text)
    for report in result.run_reports:
        print(report.render(), file=sys.stderr)
    for name in result.failed:
        print(f"  NO VERDICT (evaluator failed): {name}", file=sys.stderr)
    if args.coverage_out:
        Path(args.coverage_out).write_text(result.coverage.to_json() + "\n")
        print(f"wrote {args.coverage_out}", file=sys.stderr)
    if args.output:
        Path(args.output).write_text(result.report.to_json() + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if not result.completed or (args.strict
                                and result.report.counts["divergence"]):
        return 1
    return 0


def cmd_fuzz_corpus(args) -> int:
    """Re-evaluate a pinned corpus entry-by-entry in strict differential
    mode; ``--strict`` turns divergence or behaviour drift into exit 1."""
    from .fuzz import check_corpus, corpus_from_json
    entries, _doc = corpus_from_json(Path(args.file).read_text())
    checks = check_corpus(entries, scale=args.scale)
    for c in checks:
        print(c.describe())
    bad = sum(1 for c in checks if not c.ok)
    print(f"corpus: {len(entries)} entries, {bad} failing")
    if bad and args.strict:
        return 1
    return 0


def cmd_fuzz_shrink(args) -> int:
    from .fuzz import FuzzCheckSpec, evaluate_workload, shrink
    from .fuzz.generator import SpecWorkload, spec_from_json, spec_to_json
    if args.spec:
        doc = json.loads(Path(args.spec).read_text())
        workload = SpecWorkload(
            spec_from_json(json.dumps(doc["spec"])), doc["name"])
    elif args.name:
        workload = get_workload(args.name)
    else:
        print("fuzz shrink needs a workload name or --spec FILE",
              file=sys.stderr)
        return 2
    check = FuzzCheckSpec()
    base = evaluate_workload(workload, check, scale=args.scale)
    if not base.diverged:
        print(f"{workload.name}: verdict is {base.classification!r} — "
              f"nothing to shrink", file=sys.stderr)
        return 1
    # Shrinking keeps the original workload *name*: the name seeds the
    # data rng, so renaming would change the inputs under the spec.
    labels = {d.split(":", 1)[0] for d in base.divergences}
    evals = 0

    def still_fails(spec) -> bool:
        nonlocal evals
        evals += 1
        v = evaluate_workload(SpecWorkload(spec, workload.name), check,
                              scale=args.scale)
        return any(d.split(":", 1)[0] in labels for d in v.divergences)

    reduced = shrink(workload.spec, still_fails, max_evals=args.max_evals)
    final = evaluate_workload(SpecWorkload(reduced, workload.name), check,
                              scale=args.scale)
    doc = {"name": workload.name,
           "divergences": list(final.divergences),
           "spec": json.loads(spec_to_json(reduced))}
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    print(text)
    print(f"shrunk {workload.spec.size()} -> {reduced.size()} statement(s) "
          f"in {evals} evaluation(s)", file=sys.stderr)
    return 0


def cmd_fuzz_show(args) -> int:
    from .fuzz.generator import spec_to_json
    workload = get_workload(args.name)
    program = workload.program("eval")
    spec = workload.spec
    print(f"{workload.name}: {spec.size()} statement(s), "
          f"{len(spec.loops)} loop(s), {spec.mem_words} words/array, "
          f"~{spec.dynamic_estimate()} dynamic instructions, "
          f"{len(program.instructions)} static instructions")
    print(spec_to_json(spec))
    return 0


# -- cache ------------------------------------------------------------------

def cmd_cache_stats(args) -> int:
    cache = DiskCache(getattr(args, "cache_dir", None))
    stats = cache.size_stats()
    print(f"cache {cache.root}")
    print(f"{'kind':12s} {'entries':>8s} {'bytes':>14s}")
    for kind in sorted(k for k in stats if k != "total"):
        row = stats[kind]
        print(f"{kind:12s} {row['entries']:8d} {row['bytes']:14d}")
    total = stats.get("total", {"entries": 0, "bytes": 0})
    print(f"{'total':12s} {total['entries']:8d} {total['bytes']:14d}")
    return 0


def cmd_cache_gc(args) -> int:
    from .harness.diskcache import parse_bytes
    try:
        budget = parse_bytes(args.budget)
    except ValueError as exc:
        print(f"bad --budget: {exc}", file=sys.stderr)
        return 2
    cache = DiskCache(getattr(args, "cache_dir", None))
    report = cache.gc(budget)
    print(f"budget {report['budget']}  examined {report['examined']}  "
          f"removed {report['removed']}  freed {report['freed_bytes']}  "
          f"kept {report['kept_entries']} ({report['kept_bytes']} bytes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPEAR reproduction (Ro & Gaudiot, IPPS 2004)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads").set_defaults(fn=cmd_list)

    p = sub.add_parser("compile", help="run the SPEAR compiler")
    p.add_argument("workload")
    p.add_argument("-o", "--output", help="save the SPEAR binary (JSON)")
    _add_scale(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("disasm", help="disassemble with p-thread annotations")
    p.add_argument("workload")
    _add_scale(p)
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser("run", help="simulate one workload")
    p.add_argument("workload")
    p.add_argument("--config", default="SPEAR-128",
                   help="machine model (default SPEAR-128)")
    _add_scale(p)
    _add_policy(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="baseline vs all SPEAR models")
    p.add_argument("workload")
    _add_scale(p)
    _add_policy(p)
    _add_perf(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "analyze", help="traced interval time series and fill timeliness")
    p.add_argument("workload")
    p.add_argument("--config", default="SPEAR-128",
                   help="machine model (default SPEAR-128)")
    p.add_argument("--interval", type=int, default=1000,
                   help="sampling interval in cycles (default 1000)")
    _add_scale(p)
    _add_policy(p)
    _add_cache(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "trace", help="dump one traced run's event stream as JSONL")
    p.add_argument("workload")
    p.add_argument("--config", default="SPEAR-128",
                   help="machine model (default SPEAR-128)")
    p.add_argument("--kinds", default=None,
                   help="comma-separated event kinds to keep "
                        f"({', '.join(EVENT_KINDS)})")
    p.add_argument("--cycles", default=None, metavar="LO:HI",
                   help="inclusive cycle range to keep (either end optional)")
    p.add_argument("--thread", type=int, default=None,
                   help="keep one thread only (0 = main, 1 = p-thread)")
    p.add_argument("--interval", type=int, default=1000,
                   help="timeline sampling interval (default 1000)")
    p.add_argument("--capacity", type=int, default=0,
                   help="ring-buffer capacity in events; 0 keeps everything "
                        "(default: keep everything, so filters see the "
                        "whole run)")
    p.add_argument("-o", "--output", default=None,
                   help="write the JSONL here instead of stdout")
    p.add_argument("--stream", default=None, metavar="FILE",
                   help="write every event to FILE during the run "
                        "(unbounded capture, no in-memory buffering; "
                        "only --kinds applies)")
    _add_scale(p)
    _add_policy(p)
    _add_cache(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "report", help="baseline-vs-model timeline diff report")
    p.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                   help="one workload for the single report; with --suite "
                        "an optional subset (default: all 15)")
    p.add_argument("--suite", action="store_true",
                   help="whole-suite report: every workload under baseline"
                        "+model, per-workload speedups + geomean, and a "
                        "small-multiples SVG grid with --svg")
    p.add_argument("--baseline", default="baseline",
                   help="reference machine model (default baseline; "
                        "'base' works too)")
    p.add_argument("--model", default="SPEAR-128",
                   help="candidate machine model (default SPEAR-128; "
                        "'spear' works too)")
    p.add_argument("--interval", type=int, default=1000,
                   help="timeline sampling interval in cycles "
                        "(default 1000)")
    p.add_argument("-o", "--output", default=None,
                   help="write the markdown report here instead of stdout")
    p.add_argument("--svg", default=None, metavar="FILE",
                   help="also write the standalone figure SVG here "
                        "(diff panels, or the suite grid with --suite)")
    _add_scale(p)
    _add_policy(p)
    _add_perf(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int)
    p.add_argument("workloads", nargs="*")
    _add_scale(p)
    _add_policy(p)
    _add_perf(p)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser(
        "ablate-policy",
        help="fixed vs adaptive trigger-policy ablation table")
    p.add_argument("workloads", nargs="*",
                   help="workload subset (default: the 15 evaluated "
                        "benchmarks plus the promoted fz* fuzz finds)")
    p.add_argument("--policies", nargs="*", default=None,
                   metavar="POLICY",
                   help="policy columns (default: fixed adaptive-epoch "
                        "adaptive-phase)")
    _add_scale(p)
    _add_perf(p)
    p.set_defaults(fn=cmd_ablate_policy)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int)
    p.add_argument("workloads", nargs="*")
    _add_scale(p)
    _add_perf(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("journal", help="inspect run journals")
    jsub = p.add_subparsers(dest="action", required=True)
    pj = jsub.add_parser(
        "show", help="list run journals, or dump one run's JSONL events")
    pj.add_argument("run", nargs="?",
                    help="run key (prefix ok); omit to list all journals")
    pj.add_argument("--journal-dir", default=None,
                    help="journal location (default: <cache-dir>/journal)")
    pj.set_defaults(fn=cmd_journal_show)

    p = sub.add_parser("fuzz", help="differential fuzzing campaigns")
    fsub = p.add_subparsers(dest="action", required=True)

    def _add_campaign(pf):
        pf.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
        pf.add_argument("--count", type=int, default=1000,
                        help="programs in the campaign (default 1000)")
        pf.add_argument("--dials", default=None, metavar="K=V;K=V",
                        help="generator dial overrides "
                             "(e.g. mem_words=4096;fp_weight=0)")
        pf.add_argument("--guided", action="store_true",
                        help="coverage-guided campaign: batches "
                             "apportioned over dial/mutation arms by "
                             "coverage novelty (see docs/fuzzing.md)")
        pf.add_argument("--batch", type=int, default=25,
                        help="programs per guided scheduling round "
                             "(default 25)")
        pf.add_argument("--sweep-every", type=int, default=50,
                        help="every Nth program also compares the "
                             "idle-skipping run with the per-cycle walk "
                             "at figure-9 memory latencies (0 disables; "
                             "default 50)")
        pf.add_argument("--strict", action="store_true",
                        help="also exit 1 on any divergence (a failed "
                             "cell always exits 1)")
        pf.add_argument("-o", "--output", default=None,
                        help="also write the triage report as JSON")
        pf.add_argument("--coverage-out", default=None, metavar="FILE",
                        help="also write the behaviour-coverage map "
                             "as JSON")
        _add_scale(pf)
        _add_perf(pf)

    for action, help_ in (
            ("run", "run a seeded campaign (deterministic triage on "
                    "stdout)"),
            ("triage", "campaign triage as JSON (cheap on a warm cache)"),
            ("coverage", "render a campaign's behaviour-coverage map"),
            ("distill", "distill a campaign into a minimal pinned corpus")):
        pf = fsub.add_parser(action, help=help_)
        _add_campaign(pf)
        if action == "distill":
            pf.add_argument("--corpus-out", default=None, metavar="FILE",
                            help="write the corpus JSON here "
                                 "(default stdout)")
        pf.set_defaults(fn=cmd_fuzz_campaign)

    pf = fsub.add_parser(
        "corpus", help="re-run a pinned corpus in strict differential mode")
    pf.add_argument("file", help="corpus JSON "
                                 "(e.g. tests/regress/corpus/corpus.json)")
    pf.add_argument("--strict", action="store_true",
                    help="exit 1 on any divergence or behaviour drift")
    _add_scale(pf)
    pf.set_defaults(fn=cmd_fuzz_corpus)

    pf = fsub.add_parser(
        "shrink", help="delta-debug a diverging kernel to a minimal spec")
    pf.add_argument("name", nargs="?", default=None,
                    help="fuzz workload name (fuzz:v1:SEED:INDEX[:dials])")
    pf.add_argument("--spec", default=None, metavar="FILE",
                    help="shrink a checked-in reproducer JSON instead")
    pf.add_argument("--max-evals", type=int, default=2000,
                    help="predicate-evaluation budget (default 2000)")
    pf.add_argument("-o", "--output", default=None,
                    help="write the shrunk reproducer JSON here")
    _add_scale(pf)
    pf.set_defaults(fn=cmd_fuzz_shrink)

    pf = fsub.add_parser("show", help="print one generated kernel's spec")
    pf.add_argument("name")
    pf.set_defaults(fn=cmd_fuzz_show)

    p = sub.add_parser("cache", help="inspect or collect the disk cache")
    csub = p.add_subparsers(dest="action", required=True)
    pc = csub.add_parser("stats", help="per-kind on-disk accounting")
    _add_cache_dir(pc)
    pc.set_defaults(fn=cmd_cache_stats)
    pc = csub.add_parser("gc", help="LRU-evict down to a byte budget")
    pc.add_argument("--budget", required=True, metavar="BYTES",
                    help="target cache size (suffixes K/M/G)")
    _add_cache_dir(pc)
    pc.set_defaults(fn=cmd_cache_gc)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        active_faults()
    except FaultSpecError as exc:
        print(f"invalid {FAULTS_ENV}: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream reader (head, jq) closed the pipe early — routine
        # for stream-oriented commands like `trace`, not an error.  Point
        # stdout at devnull so the interpreter's shutdown flush doesn't
        # raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
