"""In-run phase controller for the ``adaptive-phase`` policy.

The controller rides on the simulator's cycle loop: every ``interval``
cycles (the same grid the interval sampler uses) it reads the window's
p-thread fill attribution, asks :func:`~repro.policy.base.propose` for a
ladder move, and — because the counters can recommend a move that turns
out to hurt — wraps every move in a measured trial:

``HOLD``
    The steady state.  On a proposed move the controller applies the new
    operating point immediately, remembers the pre-move window's
    committed-instruction count, and enters ``TRIAL``.
``TRIAL``
    One window later the trial window's committed count is compared with
    the pre-move window's.  Equal or better → **adopt** (stay, return to
    ``HOLD``); worse → **revert** to the previous operating point.
    Either way a cooldown of ``cooldown`` windows suppresses further
    moves so the machine settles before the next decision.

All comparisons are exact integer comparisons of committed-instruction
deltas over equal-length windows — no floating-point thresholds — so the
controller is bit-deterministic, and a run that skips idle stretches
(it never jumps past a decision boundary; see
``TimingSimulator._fast_forward``) makes the decisions a per-cycle walk
makes, at the same cycles.

Decisions are recorded as a flat series (rendered by ``repro analyze``
and attached to ``PipelineResult.timeline["policy"]``) and emitted as
``policy-decision`` trace events when the attached tracer keeps that
kind.
"""

from __future__ import annotations

from ..observe.events import POLICY, TraceEvent
from .base import LEVELS, PolicySignals, propose, start_level

#: Windows to sit out after an adopt or revert before proposing again.
COOLDOWN_WINDOWS = 2

_HOLD = 0
_TRIAL = 1


class PhaseController:
    """Per-run trigger-policy state machine (one instance per simulation).

    The simulator consults :meth:`tick` at every ``interval`` boundary
    (cycle ``c`` with ``(c + 1) % interval == 0``); the controller
    mutates the simulator's live operating point (``_trigger_occ`` /
    ``_chaining``) and returns True when it did, so the run loop can
    refresh its hoisted locals.
    """

    def __init__(self, config, *, interval: int = 1000,
                 cooldown: int = COOLDOWN_WINDOWS):
        self.interval = interval
        self.cooldown = cooldown
        self.level = start_level(config)
        #: the *actual* operating point, which starts at the config's own
        #: (possibly off-ladder) values and only snaps to ladder rungs on
        #: the first adopted move — so a controller that never moves is
        #: exactly the fixed policy.
        self.point = (config.trigger_occupancy_fraction, config.chaining)
        self.decisions: list[dict] = []
        self._state = _HOLD
        self._cooldown_left = 0
        self._prev_level = self.level
        self._prev_point = self.point
        self._base_committed_delta = 0
        self._last_committed = 0
        self._last_fills = PolicySignals()
        self.trials = self.adopted = self.reverted = 0

    # -- simulator hooks --------------------------------------------------

    def attach(self, sim) -> None:
        """Bind to a freshly constructed simulator and record the start."""
        self._record(sim, 0, "start", "", self.level, self.point)

    def tick(self, sim, cycle: int) -> bool:
        """One decision boundary; returns True if the operating point
        changed (the run loop must refresh its hoisted locals)."""
        from ..memory.hierarchy import PTHREAD_FILL

        fills = PolicySignals.from_fill_stats(sim.mem.fill_stats[PTHREAD_FILL])
        window = fills.window_since(self._last_fills)
        committed_delta = sim._committed - self._last_committed
        self._last_fills = fills
        self._last_committed = sim._committed

        changed = False
        if self._state == _TRIAL:
            self._state = _HOLD
            self._cooldown_left = self.cooldown
            if committed_delta >= self._base_committed_delta:
                self.adopted += 1
                self._record(sim, cycle, "adopt",
                             f"window:{committed_delta}>="
                             f"{self._base_committed_delta}",
                             self.level, self.point)
            else:
                self.reverted += 1
                self.level = self._prev_level
                self.point = self._prev_point
                self._apply(sim)
                changed = True
                self._record(sim, cycle, "revert",
                             f"window:{committed_delta}<"
                             f"{self._base_committed_delta}",
                             self.level, self.point)
        elif self._cooldown_left > 0:
            self._cooldown_left -= 1
        else:
            nxt, reason = propose(self.level, window)
            if nxt != self.level:
                self.trials += 1
                self._prev_level = self.level
                self._prev_point = self.point
                self._base_committed_delta = committed_delta
                self.level = nxt
                self.point = LEVELS[nxt]
                self._apply(sim)
                changed = True
                self._state = _TRIAL
                self._record(sim, cycle, "trial", reason,
                             self.level, self.point)
        return changed

    # -- reporting --------------------------------------------------------

    def series(self) -> list[dict]:
        """The decision series for ``timeline["policy"]`` — flat dicts so
        the generic timeline renderer can tabulate them."""
        return list(self.decisions)

    def summary(self) -> dict:
        """Stable flat summary for ``PipelineResult.policy``."""
        frac, chain = self.point
        return {
            "name": "adaptive-phase",
            "interval": self.interval,
            "trials": self.trials,
            "adopted": self.adopted,
            "reverted": self.reverted,
            "final_level": self.level,
            "final_fraction": frac,
            "final_chaining": chain,
            "label": (f"adaptive-phase level=L{self.level} frac={frac:g} "
                      f"chain={'on' if chain else 'off'} "
                      f"trials={self.trials} adopted={self.adopted} "
                      f"reverted={self.reverted}"),
        }

    # -- internals --------------------------------------------------------

    def _apply(self, sim) -> None:
        frac, chain = self.point
        sim._trigger_occ = int(sim.config.ifq_size * frac)
        sim._chaining = chain

    def _record(self, sim, cycle: int, action: str, reason: str,
                level: int, point: tuple[float, bool]) -> None:
        frac, chain = point
        self.decisions.append({"cycle": cycle, "action": action,
                               "level": level, "fraction": frac,
                               "chaining": int(chain), "reason": reason})
        sink = sim._sinks[POLICY]
        if sink is not None:
            sink.emit(TraceEvent(
                cycle, POLICY,
                info=f"{action} level=L{level} frac={frac:g} "
                     f"chain={'on' if chain else 'off'}"
                     + (f" reason={reason}" if reason else "")))
