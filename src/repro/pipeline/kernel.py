"""Construct the timing kernel by name.

There is one kernel, :class:`~repro.pipeline.smt.TimingSimulator`, whose
``run()`` skips provably idle stretches.  ``reference`` and
``fast-forward`` both name it: the second name stays because the
benchmark's ``kernel`` workload builds its stall runs under it.
"""

from __future__ import annotations

from .smt import TimingSimulator


def make_simulator(backend: str | None, *args, **kwargs) -> TimingSimulator:
    """Construct the kernel (``backend`` is ``reference``,
    ``fast-forward`` or None) with
    :class:`~repro.pipeline.smt.TimingSimulator`'s arguments."""
    if backend not in (None, "reference", "fast-forward"):
        raise ValueError(f"unknown timing-kernel backend {backend!r}; "
                         f"known: reference, fast-forward")
    return TimingSimulator(*args, **kwargs)
