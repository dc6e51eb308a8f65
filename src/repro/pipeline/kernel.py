"""Timing-kernel protocol and backend registry.

The simulator core is split from its cycle-advancement strategy: the
:class:`TimingKernel` protocol names the narrow surface every backend
exposes (``run``, ``step``, ``next_event_horizon``, ``stats_snapshot``),
and :data:`KERNELS` maps backend names to implementations:

``reference``
    :class:`~repro.pipeline.smt.TimingSimulator` — the cycle-by-cycle
    loop, ground truth for every equivalence gate.
``fast-forward``
    :class:`~repro.pipeline.fastforward.FastForwardSimulator` — skips
    provably idle stretches to the next event horizon; byte-identical
    results.

(The batched latency sweep of :mod:`repro.pipeline.sweep` is a *sweep*
strategy layered on these per-run kernels, not a kernel itself, so it is
not registered here.)

Every backend is gated on byte-identical stats, timelines and trace
streams versus ``reference`` — see ``tests/properties/test_backends.py``
— which makes backend choice purely a wall-clock knob.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .fastforward import FastForwardSimulator
from .smt import TimingSimulator
from .stats import PipelineResult


@runtime_checkable
class TimingKernel(Protocol):
    """What the harness needs from a timing backend."""

    #: registry name of the backend
    backend: str

    def run(self) -> PipelineResult:
        """Run the whole trace and return the result."""

    def step(self) -> bool:
        """Advance one cycle; True while the run is incomplete."""

    def next_event_horizon(self) -> int:
        """Earliest future cycle at which new work can appear."""

    def stats_snapshot(self) -> dict:
        """Current counters as a plain dict (valid mid-run)."""


#: Backend name -> simulator class.
KERNELS: dict[str, type[TimingSimulator]] = {
    TimingSimulator.backend: TimingSimulator,
    FastForwardSimulator.backend: FastForwardSimulator,
}

#: Names :func:`make_simulator` accepts.
KERNEL_BACKENDS = tuple(KERNELS)

#: The backend used when none is requested.
DEFAULT_BACKEND = TimingSimulator.backend


def resolve_kernel(backend: str | None) -> type[TimingSimulator]:
    """Look up a backend by name (None means the default)."""
    if backend is None:
        backend = DEFAULT_BACKEND
    try:
        return KERNELS[backend]
    except KeyError:
        raise ValueError(
            f"unknown timing-kernel backend {backend!r}; "
            f"known: {', '.join(KERNEL_BACKENDS)}") from None


def make_simulator(backend: str | None, *args, **kwargs) -> TimingSimulator:
    """Construct the requested backend's simulator.

    Positional and keyword arguments are those of
    :class:`~repro.pipeline.smt.TimingSimulator` — backends share its
    constructor, differing only in cycle advancement.
    """
    return resolve_kernel(backend)(*args, **kwargs)
