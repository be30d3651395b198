"""Structured event tracing for simulation runs.

Attach a :class:`Tracer` to a :class:`~repro.sim.engine.SimulationEngine`
to capture what actually happened — sends (accepted / lost / rejected),
deliveries, crashes, recoveries, terminations — as typed events.  Useful
for debugging protocol behaviour ("why did member 17 miss subtree 0*?")
and for the round-by-round summaries the examples print.

Tracing is off by default and costs one predicate per event when on;
``max_events`` caps memory for long runs (counters keep counting after
the cap).  Run-level totals do not need a tracer: the engine's
``EngineStats`` and the network's ``NetworkStats`` already hold them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

__all__ = ["TraceEvent", "Tracer"]

#: Event kinds emitted by the engine.
KINDS = (
    "send", "send_lost", "send_rejected", "deliver",
    "crash", "recover", "terminate",
)


@dataclass(frozen=True)
class TraceEvent:
    """One engine-level event."""

    round: int
    kind: str
    node: int
    peer: int | None = None
    detail: Any = None


class Tracer:
    """Collects :class:`TraceEvent` records with counters and filters.

    ``predicate`` (if given) decides which events are *stored*; all events
    are *counted* regardless.
    """

    def __init__(
        self,
        max_events: int = 100_000,
        predicate: Callable[[TraceEvent], bool] | None = None,
    ):
        if max_events < 0:
            raise ValueError("max_events must be non-negative")
        self.max_events = max_events
        self.predicate = predicate
        self.events: list[TraceEvent] = []
        self.counts: Counter = Counter()
        #: Events past the cap.  ``max_events=0`` stores nothing by
        #: request (counting only), so it stays 0 there.
        self.dropped_events = 0

    def record(self, event: TraceEvent) -> None:
        if event.kind not in KINDS:
            raise ValueError(f"unknown trace event kind {event.kind!r}")
        self.counts[event.kind] += 1
        if self.predicate is not None and not self.predicate(event):
            return
        if len(self.events) < self.max_events:
            self.events.append(event)
        elif self.max_events > 0:
            self.dropped_events += 1

    # -- queries ---------------------------------------------------------
    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def for_node(self, node: int) -> list[TraceEvent]:
        return [
            event for event in self.events
            if event.node == node or event.peer == node
        ]

    def rounds_of(self, kind: str) -> list[int]:
        return [event.round for event in self.events if event.kind == kind]

    def summary(self) -> str:
        """One-line-per-kind counts, stable order."""
        lines = [
            f"{kind:>14}: {self.counts.get(kind, 0)}"
            for kind in KINDS
        ]
        if self.dropped_events:
            lines.append(f"({self.dropped_events} events beyond cap)")
        return "\n".join(lines)
