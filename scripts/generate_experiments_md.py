#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from the benchmark harness outputs.

Usage:
    pytest benchmarks/ --benchmark-only      # writes benchmarks/out/*.txt
    python scripts/generate_experiments_md.py

The resulting EXPERIMENTS.md records paper-vs-measured for every table and
figure, pulling the actual regenerated tables from ``benchmarks/out/``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (Section 5), regenerated
by this repository's benchmark harness:

```
pytest benchmarks/ --benchmark-only
python scripts/generate_experiments_md.py
```

Individual figures can also be regenerated directly — and much faster —
via the parallel path (`python -m repro figure 6 --jobs 8`), which fans
the workload × config matrix over worker processes and reuses the
persistent artifact cache; the output is byte-identical to a serial run
(see README § Performance).  Every figure and table runs on the
reference timing kernel.  The fast-forward kernel and the batched
latency sweep are gated on byte-identical results against it; the fuzz
campaign cross-checks fast-forward on every generated program and the
sweep on a sampled subset.

Performance is measured by the repository benchmark under `bench/`
(`python3 bench/run.py`; `bench/README.md` documents it, and
`BENCHMARK.json` declares its workloads and metrics).  It runs four
workloads, each in a fresh interpreter: a cold figure 6, a cold and warm
suite report, a guided fuzz campaign, and the timing kernel alone.
Every run checks pinned output digests; `--trace 1` splits the time by
layer (build, compile, functional trace, timing loop, cache, journal,
pool), and `bench/compare.py` gives seed-paired A/B verdicts between two
commits.  It replaced the older `repro bench` verb, whose reports
compared runs made on different days; that verb has been removed.

Absolute numbers are **not** expected to match the paper — the substrate is
a trace-driven cycle-level model over synthetic benchmark analogs at
~10^5-instruction scale, not the authors' execute-driven SimpleScalar runs
at 10^8–10^9 scale (see DESIGN.md §2).  What is reproduced is the *shape*
of every result: which configurations win, roughly by how much, and which
benchmarks refuse to benefit.

## Headline comparison

| Metric | Paper | Measured |
|---|---|---|
{headline_rows}

## Fidelity notes (where the shape bends)

* **Magnitudes run hot.**  Our mean speedups exceed the paper's by roughly
  1.5x.  The oracle-trace model executes p-thread slices with perfectly
  computed addresses, and the synthetic kernels have denser delinquent
  loads than 10^9-instruction SPEC executions; both flatter pre-execution.
  The orderings (256 > 128 > baseline; sf >= shared) are preserved.
* **tr comes out exactly flat (1.00) rather than -1%.**  The paper's tr
  loss comes from wrong-path pre-execution polluting the cache; our
  trace-driven model cannot execute wrong-path slices, so the residual
  SPEAR cost (decode-slot and port steal) nets to zero on a benchmark with
  no misses.  fft does reproduce a genuine loss (0.94 at IFQ-256) through
  its oversized loop-carried slices, and gzip's many-d-load trigger churn
  keeps it near flat, as published.
* **Dedicated FUs help only marginally here** (+0.2–0.9% mean vs the
  paper's ~+6%): with memory-bound IPCs of 0.3–1.3 the shared 8-wide
  issue path and 4+4 ALUs are rarely contended in our model, so removing
  FU contention has little left to recover.  The sign of the mean (sf >=
  shared, biggest where the p-thread is busiest) is preserved; single
  rows can dip slightly (matrix: 1.638 for sf-128 vs 1.652 shared).
* **Figure 8's reductions are larger than the paper's** (~56% vs 19.7%
  mean) for the same coverage reason as the speedups; art remaining a
  top-tier reduction and zero-miss benchmarks staying at zero both hold.
* **Figure 9's degradations are steeper** (our kernels are more
  memory-bound than full SPEC), but the ordering — baseline degrades
  most, SPEAR-256 least — matches the paper exactly.

"""

SECTIONS = [
    ("table1", "Table 1 — benchmark suite",
     "Paper: 15 applications (6 Stressmark, 3 DIS, 6 SPEC2000) at 50M–1B "
     "simulated instructions after skipping up to 1B.  Here: the same 15 "
     "analogs at ~10^5 instructions after a 40k-instruction warmup skip; "
     "the d-loads column shows what the SPEAR compiler found."),
    ("table2", "Table 2 — simulation parameters",
     "The machine models, regenerated from the config objects.  All "
     "paper values (widths, 128-entry RUU, bimodal 2048, 4+1/4+1 FUs, "
     "2 ports, 1/12/120-cycle latencies) are defaults."),
    ("figure6", "Figure 6 — normalized IPC (baseline / SPEAR-128 / SPEAR-256)",
     "Paper: +12.7% / +20.1% mean; best mcf +87.6%; tr, field, fft, gzip "
     "between -1% and -6.2%.  Measured: means above, mcf/matrix lead, and "
     "the same four benchmarks are the non-gainers (flat to -8%)."),
    ("table3", "Table 3 — performance enhancement with a longer IFQ",
     "Paper: matrix benefits most from the deeper queue (1.45x) thanks to "
     "its near-perfect branch prediction; update/tr regress slightly.  "
     "Measured: matrix is again among the leaders; fft and gzip dip below "
     "1.0 (our analogs' deep-queue losers)."),
    ("figure7", "Figure 7 — dedicated functional units (SPEAR.sf)",
     "Paper: +18.9% / +26.3% mean for sf-128/sf-256.  Measured: sf >= "
     "shared on the mean, with small margins (see fidelity notes)."),
    ("figure8", "Figure 8 — L1-D cache miss reduction",
     "Paper: 19.7% of misses removed on average (SPEAR-256); best art "
     "-38.8%.  Measured: art remains top-tier; zero-miss benchmarks "
     "(tr, field) are exactly unchanged."),
    ("figure9", "Figure 9 — long-latency tolerance",
     "Paper: at mem=200/L2=20 the baseline keeps 51.5% of its short-"
     "latency IPC, SPEAR-128 60.3%, SPEAR-256 61.6%.  Measured: same "
     "ordering (baseline degrades most, SPEAR-256 least) on the same six "
     "benchmarks."),
    ("timeliness", "Observability — speculative-fill timeliness",
     "Not in the paper's figures, but the mechanism behind them: every "
     "speculative L1-D fill (p-thread pre-execution or the stride "
     "prefetcher) is classified as **timely** (the main thread hit the "
     "block after the fill completed — full latency hidden), **late** "
     "(the main thread merged into the still-in-flight fill — latency "
     "partially hidden), or **unused** (evicted or never touched); "
     "**redundant** counts attempts that targeted already-resident or "
     "in-flight blocks.  Per source `timely + late + unused == fills`.  "
     "Reading it: late fills dominate timely ones on the hardest traces "
     "(pointer, mcf, update) — pre-execution converts full misses into "
     "shorter ones, it rarely makes them free, and `update` (0% timely, "
     "a serial hash-update chain with no slack) matches its ≈1.00 "
     "Figure 6 speedup.  Timeliness tracks the Figure 6 speedups "
     "(art/SPEAR-256 and gzip lead), `unused == 0` across the board "
     "shows SPEAR's accuracy advantage over pattern prefetching, and "
     "SPEAR-256 rows usually carry more fills at a better timely share "
     "— the mechanism behind Table 3's longer-IFQ gains."),
    ("timeline_diff", "Observability — where in the run the speedup lives",
     "`repro report ll4` in table form: the baseline and SPEAR-128 "
     "timelines aligned on the interval grid, with the cumulative "
     "cycles-saved curve and each interval attributed to pre-execution "
     "(extract/fill events in the window) or phase variance.  The final "
     "cumulative row equals the end-to-end cycle gap exactly — the "
     "alignment invariant the test suite pins."),
    ("per_thread", "Observability — per-thread interval series",
     "The same traced run split by hardware thread: the main program "
     "thread and the SPEAR p-thread each get per-interval instructions "
     "completed, issue share and L1 misses.  The p-thread's issue share "
     "is the paper's 'no extra fetch bandwidth' claim made measurable: "
     "pre-execution rides on stolen decode slots, visible here as a "
     "~10% issue share while the main thread keeps its IPC."),
    ("suite", "Observability — whole-suite report",
     "`repro report --suite` in table form: baseline vs SPEAR-128 for "
     "all 15 workloads through the traced pipeline, one row per "
     "workload plus the geometric-mean footer.  Two exact invariants "
     "hold by construction and are re-checked before rendering: each "
     "speedup is the raw cycle ratio (`base/model`) and the geomean is "
     "the product of those ratios raised to 1/n — the table can be "
     "cross-checked against Figure 6 row by row.  The same cells run "
     "through the fault-tolerant parallel engine (`--jobs N`), with "
     "traced payloads spilled to the disk cache and journaled by "
     "content-hash reference, so the document is byte-identical at any "
     "job count and after a crash + `--resume`."),
    ("fuzz_campaign", "Differential fuzzing — random-kernel campaign",
     "Beyond the paper: a seeded random-kernel campaign (`repro fuzz "
     "run`) drives generated programs — pointer chases, gathers, "
     "streams, stores, byte accesses, fp, div edges and data-dependent "
     "hammocks — through the full pipeline, cross-checking an "
     "independent IR oracle against the functional simulator, commit "
     "conservation, the fill partition, cross-backend byte drift and "
     "sampled batched sweeps.  The triage is byte-deterministic at any "
     "`--jobs`.  The full `--seed 0 --count 1000` campaign classifies "
     "421 speedup / 578 neutral / 1 regression / 0 divergence (mean "
     "SPEAR/baseline IPC ratio 1.11, top 1.85x) — SPEAR helps or is "
     "neutral on random kernels too, and the lone regression is an "
     "L1-resident footprint where p-threads only steal fetch "
     "bandwidth.  Its first run shook out two real bugs (an SRL "
     "canonicalisation bug shared by simulator and oracle, and an "
     "unencodable `li INT64_MIN`), both fixed with shrunk reproducers "
     "under `tests/regress/`; four kernels are promoted as the `fz*` "
     "workloads.  See docs/fuzzing.md."),
    ("fuzz_coverage", "Coverage-guided fuzzing — blind vs guided at equal "
     "budget",
     "The coverage engine bands every verdict into a behaviour vector "
     "(trigger fires, PE-mode residency, chaining depth, fill mix, miss "
     "bands, slice shape, outcome) and the guided campaign (`repro fuzz "
     "run --guided`) schedules each batch's budget over a palette of "
     "dial arms plus spec-IR mutation arms by recent first-hit novelty "
     "— rank-concentrated largest-remainder apportionment, integer "
     "arithmetic end to end, so maps and plans are byte-identical at "
     "any `--jobs` and across crash + `--resume`.  At an equal 200-"
     "program budget the guided campaign covers strictly more distinct "
     "behaviour bins than the blind default-dials campaign; the arm "
     "table shows where the budget concentrated (the near-coin-flip "
     "hammock arm, the 4x-long 'marathon' arm and the `field` mutation "
     "arm carry most first hits).  `repro fuzz distill` then greedily "
     "set-covers the facets into the pinned CI corpus under "
     "`tests/regress/corpus/`.  See docs/fuzzing.md."),
    ("motivation", "Motivation — traditional prefetching vs pre-execution",
     "Section 1's claim, measured: a deep-lookahead stride prefetcher and "
     "a next-line prefetcher excel on regular streams (art, matrix, "
     "equake) but fade on irregular patterns; on the pure pointer chase "
     "they are helpless while pre-execution still delivers."),
    ("ablation_trigger_threshold", "Ablation — trigger occupancy threshold",
     "The paper picks half the IFQ 'empirically' (§3.2); the sweep shows "
     "the choice is robust."),
    ("ablation_extract_width", "Ablation — PE extraction width",
     "The paper fixes extraction at issue_width/2 = 4 so the main thread "
     "keeps half the decode bandwidth."),
    ("ablation_livein_copy", "Ablation — live-in copy cost",
     "The paper assumes one cycle per copied register (§3.2)."),
    ("ablation_priority", "Ablation — p-thread issue priority",
     "The paper gives p-thread instructions scheduling priority (§3.3)."),
    ("ablation_drain_policy", "Ablation — deterministic-state drain policy",
     "DESIGN.md §6: the paper's literal 'wait until everything decoded "
     "has committed' starves extraction when ROB size == IFQ size; the "
     "live-in-producer drain is the faithful-but-workable reading."),
    ("ablation_wrong_path", "Ablation — wrong-path fetch model",
     "How mispredict handling feeds (or starves) the trigger logic."),
    ("ablation_chaining", "Ablation — chaining triggers",
     "Collins et al.'s chaining (related work): a finishing p-thread "
     "hands off to the next dormant d-load regardless of IFQ occupancy."),
    ("ablation_region_policy", "Ablation — region policy",
     "The paper's future work on region selection: innermost-only vs the "
     "120-d-cycle budget vs growing to the outermost call-free loop."),
    ("ablation_policy", "Ablation — adaptive trigger policy",
     "Fixed (the paper's operating point) vs the timeliness-feedback "
     "adaptive policies of docs/adaptive-policy.md: adaptive-epoch "
     "converges across repeated runs and by construction never falls "
     "below fixed; adaptive-phase re-decides inside one run at "
     "decision-interval boundaries.  The d-* columns are the "
     "adaptive-epoch fill-timeliness movement vs fixed."),
]


def _headline_rows() -> str:
    fig6 = (OUT / "figure6.txt").read_text()
    fig7 = (OUT / "figure7.txt").read_text()
    fig8 = (OUT / "figure8.txt").read_text()
    fig9 = (OUT / "figure9.txt").read_text()

    def grab(text, pat):
        m = re.search(pat, text)
        return m.group(1) if m else "?"

    rows = [
        ("Mean speedup, SPEAR-128", "+12.7%",
         grab(fig6, r"mean SPEAR-128: (\+?[\d.]+%)")),
        ("Mean speedup, SPEAR-256", "+20.1%",
         grab(fig6, r"mean SPEAR-256: (\+?[\d.]+%)")),
        ("Mean speedup, SPEAR.sf-128", "+18.9%",
         grab(fig7, r"mean SPEAR\.sf-128: (\+?[\d.]+%)")),
        ("Mean speedup, SPEAR.sf-256", "+26.3%",
         grab(fig7, r"mean SPEAR\.sf-256: (\+?[\d.]+%)")),
        ("Best-case benchmark", "mcf (+87.6%)",
         "mcf / matrix (see Figure 6 table)"),
        ("Mean L1 miss reduction (256)", "19.7%",
         grab(fig8, r"SPEAR-256: ([\d.]+%)")),
        ("IPC loss at longest latency, baseline", "48.5%",
         grab(fig9, r"baseline: loses ([\d.]+%)")),
        ("IPC loss at longest latency, SPEAR-128", "39.7%",
         grab(fig9, r"SPEAR-128: loses ([\d.]+%)")),
        ("IPC loss at longest latency, SPEAR-256", "38.4%",
         grab(fig9, r"SPEAR-256: loses ([\d.]+%)")),
    ]
    return "\n".join(f"| {m} | {p} | {v} |" for m, p, v in rows)


def main() -> None:
    missing = [n for n, _, _ in SECTIONS if not (OUT / f"{n}.txt").exists()]
    if missing:
        sys.exit(f"missing benchmark outputs {missing}; "
                 f"run: pytest benchmarks/ --benchmark-only")

    parts = [HEADER.format(headline_rows=_headline_rows())]
    for name, title, commentary in SECTIONS:
        body = (OUT / f"{name}.txt").read_text().rstrip()
        parts.append(f"## {title}\n\n{commentary}\n\n```\n{body}\n```\n")
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")


if __name__ == "__main__":
    main()
