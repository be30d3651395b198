"""Protocol-phase trace collector: the sink behind ``phase_sink``.

:class:`PhaseTrace` implements :class:`~repro.core.observe.PhaseSink`
on the :class:`~repro.sim.trace.EventLog` the engine-level
:class:`~repro.sim.trace.Tracer` also uses — every event counted, the
first ``max_events`` stored — and adds the per-phase counters.  Its
``counts`` are the run's ``repro_phase_events_total{kind}`` values: the
registry reads them (:meth:`~repro.obs.telemetry.RunTelemetry.finish`,
and a :class:`~repro.net.node.NetNode`'s collector) instead of counting
the events a second time.

``store_events=False`` gives the counters-only collector that
:class:`~repro.obs.telemetry.RunTelemetry` ships across
:class:`~repro.experiments.parallel.ParallelRunner` worker boundaries:
cheap to run, cheap to pickle.  A :class:`~repro.core.observe.PhaseBlock`
is counted from its columns; only the events that fit under the cap are
built.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.observe import (
    FINALIZE,
    PHASE_EVENT_KINDS,
    PhaseBlock,
    PhaseEvent,
    PhaseSink,
)
from repro.sim.trace import EventLog

__all__ = ["PhaseTrace"]


class PhaseTrace(EventLog[PhaseEvent], PhaseSink):
    """Collects :class:`PhaseEvent` records with per-phase counters."""

    kinds = PHASE_EVENT_KINDS
    noun = "phase"

    def __init__(self, max_events: int = 500_000,
                 store_events: bool = True) -> None:
        super().__init__(max_events, store_events)
        #: (kind, phase) -> events of that kind in that phase.
        self.phase_counts: Counter[tuple[str, int]] = Counter()
        #: finalize events reporting coverage < 1 (knowingly partial).
        self.incomplete_finalizes = 0

    # -- sink interface --------------------------------------------------
    def emit(self, event: PhaseEvent) -> None:
        self.record(event)
        self.phase_counts[event.kind, event.phase] += 1
        if event.kind == "finalize":
            if event.coverage is not None and event.coverage < 1.0:
                self.incomplete_finalizes += 1

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
        self._store(block.events(), len(block))

    # -- per-phase queries -----------------------------------------------
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
