"""Structured event tracing for simulation runs.

Attach a :class:`Tracer` to a :class:`~repro.sim.engine.SimulationEngine`
to capture what actually happened — sends (accepted / lost / rejected),
deliveries, crashes, recoveries, terminations — as typed events.  Useful
for debugging protocol behaviour ("why did member 17 miss subtree 0*?")
and for the round-by-round summaries the examples print.

Tracing is off by default and costs one append per event when on.
Run-level totals do not need a tracer: the engine's ``EngineStats`` and
the network's ``NetworkStats`` already hold them.

:class:`EventLog` is the capped log under both this tracer and the
protocol-phase :class:`~repro.obs.phase.PhaseTrace`: every event is
counted by kind, the first ``max_events`` are stored, and one an
explicit cap cannot store is counted in ``dropped_events`` — so long
runs stay bounded while the counts stay exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import islice
from typing import Any, Generic, Iterable, Protocol, TypeVar

__all__ = ["EventLog", "TraceEvent", "Tracer"]

#: Event kinds emitted by the engine.
KINDS = (
    "send", "send_lost", "send_rejected", "deliver",
    "crash", "recover", "terminate",
)


class _Kinded(Protocol):
    @property
    def kind(self) -> str: ...


E = TypeVar("E", bound=_Kinded)


class EventLog(Generic[E]):
    """Counts every event by kind and stores the first ``max_events``.

    One drop rule: an event the cap cannot store counts in
    ``dropped_events`` (``max_events=0`` stores nothing and drops every
    event).  Only ``store_events=False`` stores nothing by request, and
    so drops nothing.
    """

    #: The kinds this log accepts, in :meth:`summary` order.
    kinds: tuple[str, ...] = ()
    #: What the log's events are called in an unknown-kind error.
    noun = "trace"

    def __init__(self, max_events: int, store_events: bool = True):
        if max_events < 0:
            raise ValueError("max_events must be non-negative")
        self.max_events = max_events if store_events else 0
        self.store_events = store_events
        self.events: list[E] = []
        self.counts: Counter[str] = Counter()
        self.dropped_events = 0

    def record(self, event: E) -> None:
        if event.kind not in self.kinds:
            raise ValueError(
                f"unknown {self.noun} event kind {event.kind!r}"
            )
        self.counts[event.kind] += 1
        if len(self.events) < self.max_events:
            self.events.append(event)
        elif self.store_events:
            self.dropped_events += 1

    def _store(self, events: Iterable[E], total: int) -> None:
        """Store what fits of ``total`` already-counted events (built
        lazily: only the stored ones are taken from ``events``)."""
        room = max(0, self.max_events - len(self.events))
        self.events.extend(islice(events, room))
        if self.store_events:
            self.dropped_events += max(0, total - room)

    def of_kind(self, kind: str) -> list[E]:
        return [event for event in self.events if event.kind == kind]

    def summary(self) -> str:
        """One-line-per-kind counts, stable order."""
        width = max(map(len, self.kinds)) + 1
        lines = [
            f"{kind:>{width}}: {self.counts.get(kind, 0)}"
            for kind in self.kinds
        ]
        if self.dropped_events:
            lines.append(f"({self.dropped_events} events beyond cap)")
        return "\n".join(lines)


@dataclass(frozen=True)
class TraceEvent:
    """One engine-level event."""

    round: int
    kind: str
    node: int
    peer: int | None = None
    detail: Any = None


class Tracer(EventLog[TraceEvent]):
    """The engine's :class:`EventLog` of :class:`TraceEvent` records."""

    kinds = KINDS

    def __init__(self, max_events: int = 100_000):
        super().__init__(max_events)

    def retag(self, position: int, kind: str) -> None:
        """Change the kind of the ``send`` event recorded at ``position``
        (counted either way; stored only if it was under the cap)."""
        if kind not in KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        self.counts["send"] -= 1
        self.counts[kind] += 1
        if position < len(self.events):
            self.events[position] = replace(self.events[position], kind=kind)
