"""Shared benchmark infrastructure.

One full-scale :class:`ExperimentRunner` is shared by every benchmark
module so that (workload x config) simulations run exactly once no matter
how many figures need them.  Each figure/table benchmark renders its result
to stdout and to ``benchmarks/out/`` so EXPERIMENTS.md can quote actuals.
The figure benchmarks also record what the paper's claims measure on their
results in ``benchmarks/out/claims.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness import ExperimentRunner
from repro.paper import CLAIMS

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner()


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def emit(out_dir: Path, name: str, text: str) -> None:
    """Print a result table and persist it for the experiment log."""
    print()
    print(text)
    (out_dir / f"{name}.txt").write_text(text + "\n")


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def emit_claims(out_dir: Path, figure: str, result) -> None:
    """Measure the claims on ``figure``'s result and record them in
    ``claims.json``, next to the other figures' measurements."""
    path = out_dir / "claims.json"
    measured = json.loads(path.read_text()) if path.exists() else {}
    for name, claim in CLAIMS.items():
        if claim.figure == figure:
            measured[name] = claim.measure(result)
    ordered = {name: measured[name] for name in CLAIMS if name in measured}
    path.write_text(json.dumps(ordered, indent=1) + "\n")
