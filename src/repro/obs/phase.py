"""Protocol-phase trace collector: the sink behind ``phase_sink``.

:class:`PhaseTrace` implements :class:`~repro.core.observe.PhaseSink`:
it counts every event (per kind, and per kind and phase) and stores the
events themselves up to ``max_events`` — the same
count-everything / store-capped contract as the engine-level
:class:`~repro.sim.trace.Tracer`, so long runs stay bounded while the
aggregate statistics stay exact.

``store_events=False`` gives the counters-only collector that
:class:`~repro.obs.telemetry.RunTelemetry` ships across
:class:`~repro.experiments.parallel.ParallelRunner` worker boundaries:
cheap to run, cheap to pickle.  A :class:`~repro.core.observe.PhaseBlock`
is counted from its columns; only the events that fit under the cap are
built.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

import numpy as np

from repro.core.observe import (
    FINALIZE,
    PHASE_EVENT_KINDS,
    PhaseBlock,
    PhaseEvent,
    PhaseSink,
)

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
        #: (kind, phase) -> events of that kind in that phase.
        self.phase_counts: Counter[tuple[str, int]] = Counter()
        #: finalize events reporting coverage < 1 (knowingly partial).
        self.incomplete_finalizes = 0
        self.dropped_events = 0

    # -- sink interface --------------------------------------------------
    def emit(self, event: PhaseEvent) -> None:
        if event.kind not in PHASE_EVENT_KINDS:
            raise ValueError(f"unknown phase event kind {event.kind!r}")
        self.counts[event.kind] += 1
        self.phase_counts[event.kind, event.phase] += 1
        if event.kind == "finalize":
            if event.coverage is not None and event.coverage < 1.0:
                self.incomplete_finalizes += 1
        if len(self.events) < self.max_events:
            self.events.append(event)
        elif self.store_events:
            self.dropped_events += 1

    def emit_block(self, block: PhaseBlock) -> None:
        """Count a block from its columns; build only what is stored."""
        kinds = len(PHASE_EVENT_KINDS)
        pairs = np.bincount(block.phases * kinds + block.kinds).tolist()
        for code, count in enumerate(pairs):
            if count:
                phase, kind = divmod(code, kinds)
                self.counts[PHASE_EVENT_KINDS[kind]] += count
                self.phase_counts[PHASE_EVENT_KINDS[kind], phase] += count
        self.incomplete_finalizes += int(np.count_nonzero(
            (block.kinds == FINALIZE) & (block.coverage < 1.0)
        ))
        room = max(0, self.max_events - len(self.events))
        self.events.extend(islice(block.events(), room))
        if self.store_events:
            self.dropped_events += max(0, len(block) - room)

    # -- queries ---------------------------------------------------------
    def of_phase(self, kind: str) -> Counter[int]:
        """phase -> events of ``kind`` in that phase."""
        return Counter({
            phase: count for (of, phase), count in self.phase_counts.items()
            if of == kind
        })

    @property
    def phase_timeouts(self) -> Counter[int]:
        """phase -> members that hit the phase timeout."""
        return self.of_phase("bump_up_timeout")

    @property
    def phase_early(self) -> Counter[int]:
        """phase -> members that bumped up early (step II(b))."""
        return self.of_phase("bump_up_early")

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
