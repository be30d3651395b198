"""Protocol-phase trace collector: the sink behind ``phase_sink``.

:class:`PhaseTrace` implements :class:`~repro.core.observe.PhaseSink`:
it counts every event (per kind, and timeouts/early-bumps per phase) and
stores the events themselves up to ``max_events`` — the same
count-everything / store-capped contract as the engine-level
:class:`~repro.sim.trace.Tracer`, so long runs stay bounded while the
aggregate statistics stay exact.

``store_events=False`` gives the counters-only collector that
:class:`~repro.obs.telemetry.RunTelemetry` ships across
:class:`~repro.experiments.parallel.ParallelRunner` worker boundaries:
cheap to run, cheap to pickle.
"""

from __future__ import annotations

from collections import Counter

from repro.core.observe import PHASE_EVENT_KINDS, PhaseEvent, PhaseSink

__all__ = ["PhaseTrace"]


class PhaseTrace(PhaseSink):
    """Collects :class:`PhaseEvent` records with per-phase counters."""

    def __init__(self, max_events: int = 500_000,
                 store_events: bool = True) -> None:
        if max_events < 0:
            raise ValueError("max_events must be non-negative")
        self.max_events = max_events if store_events else 0
        #: ``dropped_events`` means "hit the cap"; with storage off,
        #: nothing was expected to be stored, so nothing counts as lost.
        self.store_events = store_events
        self.events: list[PhaseEvent] = []
        self.counts: Counter[str] = Counter()
        #: phase -> members that hit the phase timeout with values missing
        self.phase_timeouts: Counter[int] = Counter()
        #: phase -> members that bumped up early (step II(b))
        self.phase_early: Counter[int] = Counter()
        #: finalize events reporting coverage < 1 (knowingly partial).
        self.incomplete_finalizes = 0
        self.dropped_events = 0

    # -- sink interface --------------------------------------------------
    def emit(self, event: PhaseEvent) -> None:
        if event.kind not in PHASE_EVENT_KINDS:
            raise ValueError(f"unknown phase event kind {event.kind!r}")
        self.counts[event.kind] += 1
        if event.kind == "bump_up_timeout":
            self.phase_timeouts[event.phase] += 1
        elif event.kind == "bump_up_early":
            self.phase_early[event.phase] += 1
        elif event.kind == "finalize":
            if event.coverage is not None and event.coverage < 1.0:
                self.incomplete_finalizes += 1
        if len(self.events) < self.max_events:
            self.events.append(event)
        elif self.store_events:
            self.dropped_events += 1

    # -- queries ---------------------------------------------------------
    def of_kind(self, kind: str) -> list[PhaseEvent]:
        return [event for event in self.events if event.kind == kind]

    def for_member(self, member: int) -> list[PhaseEvent]:
        return [event for event in self.events if event.member == member]

    def finalize_of(self, member: int) -> PhaseEvent | None:
        for event in self.events:
            if event.kind == "finalize" and event.member == member:
                return event
        return None

    def timeouts_of(self, member: int) -> list[PhaseEvent]:
        """The member's timeout bumps, in phase order (emission order)."""
        return [
            event for event in self.events
            if event.kind == "bump_up_timeout" and event.member == member
        ]

    def summary(self) -> str:
        """One-line-per-kind counts, stable order (mirrors Tracer)."""
        lines = [
            f"{kind:>22}: {self.counts.get(kind, 0)}"
            for kind in PHASE_EVENT_KINDS
        ]
        if self.dropped_events:
            lines.append(f"({self.dropped_events} events beyond cap)")
        return "\n".join(lines)
