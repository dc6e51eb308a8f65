"""Construct a timing kernel by name.

Two kernels share :class:`~repro.pipeline.smt.TimingSimulator`'s
constructor and differ only in cycle advancement:

``reference``
    :class:`~repro.pipeline.smt.TimingSimulator` — the cycle-by-cycle
    loop, which the harness and every verb run.
``fast-forward``
    :class:`~repro.pipeline.fastforward.FastForwardSimulator` — skips
    provably idle stretches to its next event horizon; byte-identical
    results (see ``tests/properties/test_backends.py``).
"""

from __future__ import annotations

from .fastforward import FastForwardSimulator
from .smt import TimingSimulator


def make_simulator(backend: str | None, *args, **kwargs) -> TimingSimulator:
    """Construct the named kernel (None means ``reference``) with
    :class:`~repro.pipeline.smt.TimingSimulator`'s arguments."""
    if backend is None or backend == TimingSimulator.backend:
        return TimingSimulator(*args, **kwargs)
    if backend == FastForwardSimulator.backend:
        return FastForwardSimulator(*args, **kwargs)
    raise ValueError(f"unknown timing-kernel backend {backend!r}; known: "
                     f"{TimingSimulator.backend}, "
                     f"{FastForwardSimulator.backend}")
