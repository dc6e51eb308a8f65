"""Command-line interface."""

import pytest

from repro.cli import main


SCALE = ["--scale", "0.2"]


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("pointer", "mcf", "art", "ll4"):
            assert name in out

    def test_paper_columns_from_the_table(self, capsys):
        """Evaluated workloads show their Table 3 row; the others, which
        the paper never ran, show dashes."""
        main(["list"])
        rows = {line.split()[0]: line.split()
                for line in capsys.readouterr().out.splitlines()[1:]}
        assert rows["pointer"][2:5] == ["gain", "0.9788", "7.08"]
        assert rows["tr"][2] == "loss"
        for name in ("ll4", "fzgain", "fzsrl"):
            assert rows[name][2:5] == ["-", "-", "-"]


class TestCompile:
    def test_report_printed(self, capsys):
        assert main(["compile", "pointer", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "SPEAR compile report" in out
        assert "delinquent load" in out

    def test_binary_saved(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        assert main(["compile", "pointer", "-o", str(path), *SCALE]) == 0
        assert path.exists()
        from repro.core import SpearBinary
        assert len(SpearBinary.load(path).table) > 0


class TestDisasm:
    def test_annotated(self, capsys):
        assert main(["disasm", "pointer", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "p-thread" in out
        assert "\nD " in out     # at least one d-load flagged
        assert "lw" in out


class TestRun:
    def test_summary(self, capsys):
        assert main(["run", "pointer", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out and "triggers" in out

    def test_unknown_config(self, capsys):
        assert main(["run", "pointer", "--config", "SPEAR-512", *SCALE]) == 2
        err = capsys.readouterr().err
        assert "unknown config 'SPEAR-512'" in err and "aliases" in err

    def test_baseline_config(self, capsys):
        assert main(["run", "pointer", "--config", "baseline", *SCALE]) == 0

    @pytest.mark.parametrize("name", ["spear", "spear-128"])
    def test_config_aliases(self, capsys, name):
        assert main(["run", "ll4", "--config", name,
                     "--scale", "0.05"]) == 0
        assert "SPEAR-128" in capsys.readouterr().out


class TestCompare:
    def test_all_models(self, capsys):
        assert main(["compare", "pointer", *SCALE]) == 0
        out = capsys.readouterr().out
        for model in ("baseline", "SPEAR-128", "SPEAR-256",
                      "SPEAR.sf-128", "SPEAR.sf-256"):
            assert model in out


class TestAnalyzeTimeline:
    def test_timeline_table(self, capsys):
        assert main(["analyze", "pointer", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "ipc" in out
        assert "fills" in out

    def test_interval_flag(self, capsys):
        assert main(["analyze", "pointer", "--interval", "500", *SCALE]) == 0
        assert "500" in capsys.readouterr().out

    def test_reuses_the_report_cell(self, monkeypatch, capsys):
        # analyze traces under the report's spec, so the SPEAR-128 cell
        # a report cached serves it, and nothing simulates again.
        from repro.harness import ExperimentRunner
        assert main(["report", "pointer", *SCALE]) == 0

        def simulate(*args, **kwargs):
            raise AssertionError("analyze simulated its cell again")

        monkeypatch.setattr(ExperimentRunner, "_simulate", simulate)
        capsys.readouterr()
        assert main(["analyze", "pointer", *SCALE]) == 0
        assert "pre-execution events: " in capsys.readouterr().out

    def test_timeline_flag_is_gone(self, capsys):
        # The timeline is the verb's only view, so no flag selects it.
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "pointer", "--timeline", *SCALE])
        assert exc.value.code == 2
        assert "unrecognized arguments: --timeline" in \
            capsys.readouterr().err


class TestTrace:
    def test_jsonl_on_stdout(self, capsys):
        assert main(["trace", "pointer", "--kinds", "mode", *SCALE]) == 0
        cap = capsys.readouterr()
        from repro.observe import TraceEvent
        lines = cap.out.splitlines()
        assert lines
        events = [TraceEvent.from_json(ln) for ln in lines]
        assert all(e.kind == "mode" for e in events)
        assert "events" in cap.err   # summary goes to stderr

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main(["trace", "pointer", "--kinds", "commit",
                     "--cycles", "0:2000", "-o", str(path), *SCALE]) == 0
        from repro.observe import TraceEvent
        events = [TraceEvent.from_json(ln)
                  for ln in path.read_text().splitlines()]
        assert events
        assert all(e.kind == "commit" and e.cycle <= 2000 for e in events)

    def test_unknown_kind_rejected(self, capsys):
        assert main(["trace", "pointer", "--kinds", "bogus", *SCALE]) == 2
        assert "kind" in capsys.readouterr().err

    def test_bad_cycle_range_rejected(self, capsys):
        assert main(["trace", "pointer", "--cycles", "oops", *SCALE]) == 2

    def test_filters_reuse_one_cached_trace(self, capsys):
        # Two differently-filtered invocations share one cached capture.
        assert main(["trace", "pointer", "--kinds", "mode", *SCALE]) == 0
        capsys.readouterr()
        assert main(["trace", "pointer", "--kinds", "extract",
                     "--thread", "1", *SCALE]) == 0
        capsys.readouterr()


class TestTraceStream:
    def test_stream_writes_jsonl_during_run(self, capsys, tmp_path):
        path = tmp_path / "stream.jsonl"
        assert main(["trace", "pointer", "--stream", str(path),
                     *SCALE]) == 0
        err = capsys.readouterr().err
        assert "streamed" in err
        from repro.observe import TraceEvent
        lines = path.read_text().splitlines()
        assert lines
        events = [TraceEvent.from_json(ln) for ln in lines]
        assert f"{len(events)} events" in err
        cycles = [e.cycle for e in events]
        assert cycles == sorted(cycles)

    def test_stream_respects_kind_filter(self, capsys, tmp_path):
        path = tmp_path / "stream.jsonl"
        assert main(["trace", "pointer", "--stream", str(path),
                     "--kinds", "commit", *SCALE]) == 0
        from repro.observe import TraceEvent
        events = [TraceEvent.from_json(ln)
                  for ln in path.read_text().splitlines()]
        assert events
        assert all(e.kind == "commit" for e in events)

    @pytest.mark.parametrize("extra", [["--cycles", "0:100"],
                                       ["--thread", "1"],
                                       ["-o", "x.jsonl"]])
    def test_stream_incompatible_with_view_filters(self, capsys, tmp_path,
                                                   extra):
        path = tmp_path / "stream.jsonl"
        assert main(["trace", "pointer", "--stream", str(path),
                     *extra, *SCALE]) == 2
        assert "incompatible" in capsys.readouterr().err


class TestReport:
    def test_report_markdown_on_stdout(self, capsys):
        assert main(["report", "pointer", *SCALE]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# repro report — pointer: baseline vs "
                              "SPEAR-128")
        assert "## Per-interval attribution" in out
        assert "## Per-thread series" in out
        assert "## Fill timeliness" in out
        assert "<svg " in out

    def test_config_aliases(self, capsys):
        assert main(["report", "pointer", "--baseline", "base",
                     "--model", "spear", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "baseline vs SPEAR-128" in out

    def test_unknown_model_rejected(self, capsys):
        assert main(["report", "pointer", "--model", "bogus", *SCALE]) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_output_and_svg_files(self, capsys, tmp_path):
        md = tmp_path / "r.md"
        svg = tmp_path / "r.svg"
        assert main(["report", "pointer", "-o", str(md),
                     "--svg", str(svg), *SCALE]) == 0
        cap = capsys.readouterr()
        assert cap.out == ""   # everything went to the files
        assert md.read_text().startswith("# repro report")
        assert svg.read_text().startswith("<svg ")

    def test_serial_and_parallel_byte_identical(self, monkeypatch,
                                                capsys, tmp_path):
        # Separate cache dirs force both invocations to compute from
        # scratch — identical bytes must come from determinism, not from
        # the second run reading the first one's cache.
        out_a = tmp_path / "serial.md"
        out_b = tmp_path / "jobs2.md"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-a"))
        assert main(["report", "pointer", "-o", str(out_a), *SCALE]) == 0
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-b"))
        assert main(["report", "pointer", "-o", str(out_b),
                     "--jobs", "2", *SCALE]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSuiteReport:
    SMALL = ["--scale", "0.05"]

    def test_suite_markdown_on_stdout(self, capsys):
        assert main(["report", "pointer", "matrix", "--suite",
                     *self.SMALL]) == 0
        cap = capsys.readouterr()
        assert cap.out.startswith("# repro suite report — baseline vs "
                                  "SPEAR-128")
        assert "geomean" in cap.out
        assert "| pointer |" in cap.out and "| matrix |" in cap.out
        assert "run report:" in cap.err   # stats never pollute stdout

    def test_workload_count_enforced_without_suite(self, capsys):
        assert main(["report", *SCALE]) == 2
        assert main(["report", "pointer", "matrix", *SCALE]) == 2
        assert "--suite" in capsys.readouterr().err

    def test_suite_serial_vs_jobs2_byte_identical(self, monkeypatch,
                                                  capsys, tmp_path):
        # Separate cache dirs: identical bytes must come from
        # determinism, not from a shared cache.
        args = ["report", "pointer", "matrix", "mcf", "--suite",
                *self.SMALL]
        md_a, svg_a = tmp_path / "a.md", tmp_path / "a.svg"
        md_b, svg_b = tmp_path / "b.md", tmp_path / "b.svg"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-a"))
        assert main([*args, "-o", str(md_a), "--svg", str(svg_a)]) == 0
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-b"))
        assert main([*args, "-o", str(md_b), "--svg", str(svg_b),
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == ""
        assert md_a.read_bytes() == md_b.read_bytes()
        assert svg_a.read_bytes() == svg_b.read_bytes()

    def test_suite_crash_then_resume_byte_identical(self, monkeypatch,
                                                    capsys, tmp_path):
        args = ["report", "pointer", "matrix", "mcf", "--suite",
                *self.SMALL]
        ref_md, ref_svg = tmp_path / "ref.md", tmp_path / "ref.svg"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref"))
        assert main([*args, "-o", str(ref_md), "--svg", str(ref_svg)]) == 0

        # One cell crashes its worker on every attempt: it is charged
        # the crash, fails, and its workload is dropped from the
        # (partial) document.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "work"))
        monkeypatch.setenv("REPRO_FAULTS", "crash:cell=3:times=0")
        partial = tmp_path / "partial.md"
        assert main([*args, "-o", str(partial), "--jobs", "2",
                     "--retries", "0"]) == 1
        assert partial.read_bytes() != ref_md.read_bytes()

        # A plain rerun heals the run: completed traced cells are cache
        # hits, only the crashed cell re-simulates, and the finished
        # document is byte-identical to the uninterrupted one.
        monkeypatch.delenv("REPRO_FAULTS")
        capsys.readouterr()
        out_md, out_svg = tmp_path / "out.md", tmp_path / "out.svg"
        assert main([*args, "-o", str(out_md), "--svg", str(out_svg),
                     "--jobs", "1"]) == 0
        err = capsys.readouterr().err
        assert "  cache[traces]: 5 hits, 1 misses, 1 stores" in err
        assert out_md.read_bytes() == ref_md.read_bytes()
        assert out_svg.read_bytes() == ref_svg.read_bytes()


class TestFiguresAndTables:
    def test_figure6_subset(self, capsys):
        assert main(["figure", "6", "pointer", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "run report:" in out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "12", *SCALE]) == 2

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "IFQ size" in capsys.readouterr().out

    def test_table1_subset(self, capsys):
        assert main(["table", "1", "pointer", *SCALE]) == 0
        assert "benchmark suite" in capsys.readouterr().out

    def test_table_unknown(self, capsys):
        assert main(["table", "9", *SCALE]) == 2

    @pytest.mark.parametrize("number", ["1", "2"])
    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--retries", "0"],
                                      ["--cell-timeout", "5"],
                                      ["--fail-fast"]])
    def test_tables_1_and_2_reject_engine_flags(self, capsys, number, flag):
        # Tables 1 and 2 run no cell matrix, so no engine flag applies.
        assert main(["table", number, "pointer", *flag, *SCALE]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and "apply to table 3 only" in cap.err

    def test_table1_without_engine_flags_prints_the_table(self, capsys):
        from repro.harness import ExperimentRunner, table1
        assert main(["table", "1", "pointer", *SCALE]) == 0
        runner = ExperimentRunner(instruction_scale=0.2)
        assert capsys.readouterr().out \
            == table1(runner, ["pointer"]).render() + "\n"

    def test_table3_takes_engine_flags(self, capsys):
        from repro.harness import ExperimentRunner, table3
        assert main(["table", "3", "pointer", "--jobs", "2", *SCALE]) == 0
        runner = ExperimentRunner(instruction_scale=0.2)
        assert capsys.readouterr().out.startswith(
            table3(runner, ["pointer"]).render()
            + "\n\nrun report: 2 cell(s) — 2 ok, 0 failed")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


#: Every verb that pre-runs its cells through the parallel engine, on one
#: or two workloads (``SVG`` stands for a file in the test's tmp dir).
PRE_RUN_VERBS = {
    "figure6": ["figure", "6", "pointer", "mcf"],
    "figure7": ["figure", "7", "pointer"],
    "figure8": ["figure", "8", "pointer"],
    "figure9": ["figure", "9", "pointer"],
    "table3": ["table", "3", "pointer", "mcf"],
    "compare": ["compare", "pointer"],
    "ablate-policy": ["ablate-policy", "pointer"],
    "report": ["report", "pointer", "--svg", "SVG"],
    "report-suite": ["report", "--suite", "pointer", "mcf", "--svg", "SVG"],
}


@pytest.mark.parametrize("verb", list(PRE_RUN_VERBS))
def test_verb_renders_from_its_pre_run(verb, monkeypatch, tmp_path, capsys):
    """Once a verb's pre-run has run, rendering neither simulates nor
    builds in the parent: the pre-run held every cell the rendering
    reads.  A cell missing from it would be simulated here, serially and
    outside retries, timeouts and the journal."""
    import repro.cli as cli
    from repro.harness import ExperimentRunner
    runner = ExperimentRunner(instruction_scale=0.05)
    monkeypatch.setattr(cli, "_runner", lambda args: runner)
    counts = []
    run_matrix = cli._run_matrix

    def pre_run(*args):
        report = run_matrix(*args)
        counts.append((runner.simulations, runner.builds))
        return report

    monkeypatch.setattr(cli, "_run_matrix", pre_run)
    argv = [str(tmp_path / "out.svg") if a == "SVG" else a
            for a in PRE_RUN_VERBS[verb]]
    assert main(argv + ["--jobs", "2", "--no-cache"]) == 0
    assert capsys.readouterr().out
    assert counts == [(runner.simulations, runner.builds)]


class TestNoBackendOption:
    """Every verb runs the one timing kernel; there is no kernel choice."""

    @pytest.mark.parametrize("argv", [
        ["figure", "9", "pointer", "--backend", "batched"],
        ["run", "pointer", "--backend", "fast-forward"],
    ], ids=["figure", "run"])
    def test_backend_is_an_unrecognized_argument(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *SCALE])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestNoResumeOption:
    """A rerun finds finished cells in the cache; there is no flag."""

    @pytest.mark.parametrize("argv", [
        ["figure", "6", "pointer", *SCALE, "--resume"],
        ["fuzz", "run", "--count", "1", "--resume"],
    ], ids=["figure", "fuzz"])
    def test_resume_is_an_unrecognized_argument(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err


class TestRobustnessFlags:
    def test_rerun_serves_finished_cells_from_cache(self, capsys):
        assert main(["figure", "6", "pointer", *SCALE, "--jobs", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["figure", "6", "pointer", *SCALE, "--jobs", "1"]) == 0
        again = capsys.readouterr().out
        assert "  cache[results]: 3 hits, 0 misses, 0 stores" in again

        def figure(out):
            return [line for line in out.splitlines()
                    if not line.startswith(("run report:", "  "))]

        assert figure(again) == figure(first)

    def test_fail_fast_flag_accepted(self, capsys):
        assert main(["figure", "6", "pointer", *SCALE, "--jobs", "1",
                     "--fail-fast", "--retries", "0"]) == 0

    def test_invalid_fault_spec_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "explode:everything")
        assert main(["list"]) == 2
        assert "REPRO_FAULTS" in capsys.readouterr().err

    def test_keep_going_failure_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "fail:cell=0:times=0")
        assert main(["figure", "6", "pointer", *SCALE, "--jobs", "1",
                     "--retries", "0"]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestJournalCommand:
    def test_show_empty_dir(self, capsys):
        assert main(["journal", "show"]) == 0
        assert "no run journals" in capsys.readouterr().out

    def test_list_and_dump_after_run(self, capsys):
        assert main(["figure", "6", "pointer", *SCALE, "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["journal", "show"]) == 0
        listing = capsys.readouterr().out
        assert "figure6" in listing
        run_id = listing.splitlines()[-1].split()[0]
        assert main(["journal", "show", run_id]) == 0
        dump = capsys.readouterr().out
        assert '"event": "start"' in dump and '"status": "ok"' in dump

    def test_unknown_run_prefix(self, capsys):
        assert main(["journal", "show", "zzzzzz"]) == 2


class TestFuzz:
    CAMPAIGN = ["fuzz", "run", "--seed", "71", "--count", "3",
                "--dials", "mem_words=512;target_instructions=600",
                "--sweep-every", "0", "--jobs", "1"]

    def test_run_prints_deterministic_triage(self, capsys):
        assert main(self.CAMPAIGN) == 0
        first = capsys.readouterr().out
        assert "fuzz triage — 3 program(s)" in first
        assert "divergence" in first
        assert main(self.CAMPAIGN) == 0
        assert capsys.readouterr().out == first

    def test_run_strict_is_clean(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main([*self.CAMPAIGN, "--strict", "-o", str(out)]) == 0
        capsys.readouterr()
        import json as _json
        doc = _json.loads(out.read_text())
        assert doc["total"] == 3
        assert doc["counts"]["divergence"] == 0

    def test_failed_cells_exit_nonzero(self, monkeypatch, capsys):
        """A terminally failed cell exits 1 without ``--strict``, as
        ``figure`` and ``compare`` do."""
        monkeypatch.setenv("REPRO_FAULTS", "fail:p=1:times=0")
        assert main(["fuzz", "run", "--seed", "1", "--count", "3",
                     "--jobs", "1", "--no-cache"]) == 1
        assert "NO VERDICT" in capsys.readouterr().err

    def test_triage_emits_json(self, capsys):
        args = list(self.CAMPAIGN)
        args[1] = "triage"
        assert main(args) == 0
        import json as _json
        doc = _json.loads(capsys.readouterr().out)
        assert doc["total"] == 3

    def test_show_prints_spec(self, capsys):
        assert main(["fuzz", "show", "fuzz:v1:71:0"]) == 0
        out = capsys.readouterr().out
        assert "statement(s)" in out
        assert '"version": 1' in out

    def test_show_resolves_promoted_kernels(self, capsys):
        assert main(["fuzz", "show", "fzsrl"]) == 0
        assert "3 statement(s)" in capsys.readouterr().out

    def test_shrink_refuses_clean_kernel(self, capsys):
        assert main(["fuzz", "shrink",
                     "fuzz:v1:71:0:mem_words=512;target_instructions=600"]
                    ) == 1
        assert "nothing to shrink" in capsys.readouterr().err

    def test_shrink_without_target_is_usage_error(self, capsys):
        assert main(["fuzz", "shrink"]) == 2

    def test_bad_dials_rejected(self, capsys):
        with pytest.raises(SystemExit, match="bad --dials entry"):
            main(["fuzz", "run", "--count", "1", "--dials", "warp=9"])

    @pytest.mark.parametrize("dials", [
        "mem_words=abc", "mem_words=2.5", "max_loops=0", "max_body=1",
        "fp_weight=-1", "chase_depth=0"])
    def test_undrawable_dials_rejected(self, capsys, dials):
        """Refused before any program runs, not truncated or left to fail
        every program's generation."""
        with pytest.raises(SystemExit, match="bad --dials entry"):
            main(["fuzz", "run", "--seed", "1", "--count", "4", "--jobs",
                  "1", "--no-cache", "--dials", dials])


class TestCacheCommand:
    @pytest.fixture
    def cache_dir(self, tmp_path):
        from repro.harness import DiskCache
        cache = DiskCache(tmp_path / "cache")
        cache.put("results", {"x": 1}, "a")
        cache.put("results", {"x": 2}, "b")
        cache.put("traces", {"x": 3}, list(range(100)))
        return str(cache.root)

    def test_stats_counts_entries_per_kind(self, capsys, cache_dir):
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"cache {cache_dir}"
        rows = {line.split()[0]: int(line.split()[1]) for line in lines[2:]}
        assert rows == {"results": 2, "traces": 1, "total": 3}

    def test_gc_to_zero_budget_empties_the_cache(self, capsys, cache_dir):
        assert main(["cache", "gc", "--budget", "0",
                     "--cache-dir", cache_dir]) == 0
        assert "removed 3" in capsys.readouterr().out
        assert main(["cache", "gc", "--budget", "0",
                     "--cache-dir", cache_dir]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split()[1] == "0"

    def test_gc_rejects_bad_budget(self, capsys, cache_dir):
        assert main(["cache", "gc", "--budget", "junk",
                     "--cache-dir", cache_dir]) == 2
        assert "bad --budget" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["inf", "1e400"])
    def test_gc_rejects_non_finite_budget(self, capsys, cache_dir, budget):
        """``int()`` of an infinite float raises OverflowError, which once
        escaped the verb as a traceback."""
        assert main(["cache", "gc", "--budget", budget,
                     "--cache-dir", cache_dir]) == 2
        err = capsys.readouterr().err
        assert f"bad --budget: non-finite byte budget '{budget}'" in err

    def test_stats_takes_no_no_cache_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["cache", "stats", "--no-cache"])
