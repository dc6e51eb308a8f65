"""The paper's published numbers have one home, :mod:`repro.paper`, and
everything that quotes them reads it."""

import ast
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core import BASELINE, SPEAR_128, SPEAR_256
from repro.harness import (EVAL_WORKLOADS, LatencySweepResult,
                           MissReductionResult, SpeedupResult, table3)
from repro.harness.experiments import PAPER_FIG9_DEGRADATION, PAPER_MEANS
from repro.memory import LatencyConfig
from repro.paper import CLAIMS, TABLE
from repro.workloads import all_workload_names

ROOT = Path(__file__).resolve().parents[2]
MODULE = ROOT / "src" / "repro" / "paper.py"


def test_one_row_per_evaluated_workload():
    tree = ast.parse(MODULE.read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.AnnAssign)
                 and node.target.id == "TABLE")
    keys = [key.value for key in table.keys]
    assert sorted(keys) == sorted(EVAL_WORKLOADS), \
        "every evaluated workload needs exactly one row"
    assert list(TABLE) == EVAL_WORKLOADS
    others = set(all_workload_names()) - set(EVAL_WORKLOADS)
    assert others and not others & set(TABLE)
    for row in TABLE.values():
        assert 0.5 < row.branch_hit_ratio <= 1.0
        assert row.ipb > 0
        assert row.expectation in ("gain", "flat", "loss")


class _StubRunner:
    """Just enough of an ExperimentRunner for Table 3 to render."""

    def run(self, name, config):
        stats = SimpleNamespace(branch_hit_ratio=1.0, committed=1,
                                cond_branches=1)
        return SimpleNamespace(ipc=1.0, stats=stats)


def test_harness_views_equal_the_module():
    def paper(*names):
        return {CLAIMS[n].config: CLAIMS[n].paper for n in names}

    assert PAPER_MEANS == paper("fig6-mean-128", "fig6-mean-256",
                                "fig7-mean-sf128", "fig7-mean-sf256")
    assert PAPER_FIG9_DEGRADATION == paper(
        "fig9-loss-base", "fig9-loss-128", "fig9-loss-256")
    rows = table3(_StubRunner()).rows
    assert [row[0] for row in rows] == EVAL_WORKLOADS
    for name, _, ratio, _, bhr, _, ipb in rows:
        row = TABLE[name]
        assert (ratio, bhr, ipb) == (row.ratio, row.branch_hit_ratio,
                                     row.ipb)


def test_metrics_read_their_figure_results():
    speedups = SpeedupResult([BASELINE, SPEAR_128, SPEAR_256], [
        {"workload": "a", "ipc_base": 1.0, "SPEAR-128": 1.1,
         "SPEAR-256": 1.5},
        {"workload": "b", "ipc_base": 1.0, "SPEAR-128": 1.3,
         "SPEAR-256": 1.2}])
    assert CLAIMS["fig6-mean-128"].measure(speedups) == pytest.approx(20.0)
    name, gain = CLAIMS["fig6-best"].measure(speedups)
    assert (name, gain) == ("a", pytest.approx(50.0))

    misses = MissReductionResult([
        {"workload": "a", "SPEAR-256": 0.25},
        {"workload": "b", "SPEAR-256": 0.75}])
    assert CLAIMS["fig8-mean-256"].measure(misses) == pytest.approx(50.0)
    assert CLAIMS["fig8-best"].measure(misses) == ("b", pytest.approx(75.0))

    latencies = [LatencyConfig(memory=40, l2=4), LatencyConfig()]
    sweep = LatencySweepResult(latencies, [BASELINE], {
        "a": {"baseline": [2.0, 1.0]}, "b": {"baseline": [1.0, 0.5]}})
    assert CLAIMS["fig9-loss-base"].measure(sweep) == pytest.approx(50.0)


def _published_values() -> set[float]:
    values = {claim.paper for claim in CLAIMS.values()}
    for row in TABLE.values():
        values |= {row.branch_hit_ratio, row.ipb}
    return values


def test_no_published_value_outside_the_module():
    """Table 3's 256/128 ratios are left out: values such as 1.05 are
    also thresholds elsewhere."""
    patterns = {value: re.compile(rf"(?<![\d.]){re.escape(repr(value))}0*"
                                  rf"(?!\d)")
                for value in _published_values()}
    found = []
    for top in ("src", "scripts", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == MODULE:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                found += [f"{path.relative_to(ROOT)}:{lineno}: {value}"
                          for value, pattern in patterns.items()
                          if pattern.search(line)]
    assert not found, "published values copied outside repro/paper.py:\n" \
        + "\n".join(found)


def _footers(figure: str) -> str:
    """One figure's rendered footers, over a one-row result."""
    configs = [BASELINE, SPEAR_128, SPEAR_256]
    if figure == "figure6":
        return SpeedupResult(configs, [
            {"workload": "a", "ipc_base": 1.0, "SPEAR-128": 1.0,
             "SPEAR-256": 1.0}]).table("Figure 6").footers
    if figure == "figure8":
        return MissReductionResult([
            {"workload": "a", "base": 1, "m128": 1, "m256": 1,
             "SPEAR-128": 0.0, "SPEAR-256": 0.0}]).table().footers
    return LatencySweepResult([LatencyConfig()], configs, {
        "a": {c.name: [1.0] for c in configs}}).table().footers


@pytest.mark.parametrize("figure,names", [
    ("figure6", ["fig6-mean-128", "fig6-mean-256"]),
    ("figure8", ["fig8-mean-256", "fig8-best"]),
    ("figure9", ["fig9-loss-base", "fig9-loss-128", "fig9-loss-256"]),
], ids=["figure6", "figure8", "figure9"])
def test_figure_footers_quote_the_claims(figure, names):
    text = "\n".join(_footers(figure))
    for name in names:
        assert f"{CLAIMS[name].paper}%" in text
        assert CLAIMS[name].workload in text
