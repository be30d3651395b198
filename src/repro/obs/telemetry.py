"""Unified run telemetry: one object composing every instrumentation layer.

:class:`RunTelemetry` bundles the engine-level
:class:`~repro.sim.trace.Tracer`, the per-round
:class:`~repro.sim.metrics.RoundMetrics`, the protocol-level
:class:`~repro.obs.phase.PhaseTrace` and the sanitizer outcome into one
handle that :func:`repro.experiments.runner.run_once` knows how to wire
into a run.  Three shapes:

* **Full** (``RunTelemetry()``) — stores events for JSONL export
  (:mod:`repro.obs.export`), reports (:mod:`repro.obs.report`) and the
  ``repro trace`` CLI.
* **Compact** (``RunTelemetry.compact()``) — phase counters only: no
  tracer, no round metrics, no event storage, so ``engine='auto'``
  keeps the array-stepped engine when the protocol knobs allow.  This
  is what ``RunConfig.collect_telemetry=True`` attaches inside
  :class:`~repro.experiments.parallel.ParallelRunner` workers; its
  :class:`TelemetrySummary` is a small frozen dataclass that pickles
  back across the worker boundary, so sweeps and chaos campaigns can
  aggregate phase/bump-up/timeout statistics.  On the array engine its
  :class:`~repro.obs.phase.PhaseTrace` counts each round's
  :class:`~repro.core.observe.PhaseBlock` from its columns and builds
  no event.
* **Metrics-only** (``RunTelemetry.metrics_only(registry)``) — no
  tracer, no round metrics and no phase sink, just a
  :class:`~repro.obs.metrics.MetricsRegistry` fed from the end-of-run
  record.  Every per-event hook stays detached (an attached phase
  sink still costs every member's phase-1 ``phase_enter`` event from
  ``on_start`` and, on the array engine, one column block per round —
  more than the bench guard's 3% budget), so ``engine='auto'`` still
  picks the array-stepped engine and the returned
  :class:`~repro.experiments.runner.RunResult` is
  byte-identical to an uninstrumented run's (``attach_summary`` is
  off, so even the ``telemetry`` field stays ``None``).  A *full*
  telemetry with ``registry`` set streams phase events into the
  registry live through the teed sink.

The summary's engine totals (sends, deliveries, crashes, ...) are not
counted by telemetry at all: :meth:`RunTelemetry.finish` reads them from
the finished engine's own ``EngineStats`` / ``NetworkStats``.

None of them draws randomness or mutates simulation state, so results
are byte-identical with telemetry attached or not (golden-tested).
Wall-clock profiling (:mod:`repro.obs.profiling`) is opt-in via the
``profiler`` argument and never touches ``sim``/``core``/``chaos``.
"""

from __future__ import annotations

import dataclasses
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field

from repro.core.observe import PHASE_EVENT_KINDS, PhaseSink
from repro.obs.metrics import (
    MetricsPhaseSink,
    MetricsRegistry,
    TeePhaseSink,
    feed_round_samples,
    feed_run_record,
)
from repro.obs.phase import PhaseTrace
from repro.obs.profiling import SectionProfiler
from repro.sim.metrics import RoundMetrics
from repro.sim.trace import Tracer

__all__ = ["RunTelemetry", "TelemetrySummary", "merge_summaries"]


@dataclass(frozen=True)
class TelemetrySummary:
    """Compact, picklable aggregate of one (or several merged) runs.

    All fields are totals over the merged runs; ``phase_timeouts`` /
    ``phase_early`` are sorted ``(phase, count)`` pairs (tuples, not
    dicts, so the record hashes and pickles cheaply and renders
    deterministically).
    """

    runs: int = 1
    rounds: int = 0
    # -- protocol-phase events (see repro.core.observe) ----------------
    phase_enter: int = 0
    representative_elected: int = 0
    subtree_complete: int = 0
    bump_up_early: int = 0
    bump_up_timeout: int = 0
    finalize: int = 0
    #: finalize events whose self-assessed coverage was < 1.
    incomplete_finalizes: int = 0
    phase_timeouts: tuple[tuple[int, int], ...] = ()
    phase_early: tuple[tuple[int, int], ...] = ()
    dropped_phase_events: int = 0
    # -- engine totals, read from the engine's books at finish() -------
    sends: int = 0
    sends_lost: int = 0
    sends_rejected: int = 0
    delivers: int = 0
    crashes: int = 0
    recoveries: int = 0
    terminates: int = 0
    dropped_engine_events: int = 0
    # -- sanitizer outcome (see repro.sanitize) ------------------------
    #: Whether the runtime aggregation sanitizer was active; an active
    #: sanitizer that let the run complete certifies the invariants held
    #: (it raises on the first violation).
    sanitizer_active: bool = False

    def phase_timeout_map(self) -> dict[int, int]:
        return dict(self.phase_timeouts)

    def phase_early_map(self) -> dict[int, int]:
        return dict(self.phase_early)

    def to_record(self) -> dict:
        """JSON-ready dict (the ``summary`` record of ``repro-trace/1``)."""
        record = dataclasses.asdict(self)
        record["phase_timeouts"] = {
            str(phase): count for phase, count in self.phase_timeouts
        }
        record["phase_early"] = {
            str(phase): count for phase, count in self.phase_early
        }
        return record


def _merge_pairs(
    pair_lists: list[tuple[tuple[int, int], ...]]
) -> tuple[tuple[int, int], ...]:
    totals: dict[int, int] = {}
    for pairs in pair_lists:
        for key, count in pairs:
            totals[key] = totals.get(key, 0) + count
    return tuple(sorted(totals.items()))


def merge_summaries(
    summaries: list[TelemetrySummary],
) -> TelemetrySummary:
    """Sum summaries across runs (e.g. all seeded runs of a sweep cell)."""
    if not summaries:
        return TelemetrySummary(runs=0)
    kwargs: dict = {}
    for f in dataclasses.fields(TelemetrySummary):
        values = [getattr(s, f.name) for s in summaries]
        if f.name in ("phase_timeouts", "phase_early"):
            kwargs[f.name] = _merge_pairs(values)
        elif f.name == "sanitizer_active":
            kwargs[f.name] = all(values)
        else:
            kwargs[f.name] = sum(values)
    return TelemetrySummary(**kwargs)


@dataclass
class RunTelemetry:
    """Everything observable about one run, behind one handle.

    Pass an instance to :func:`repro.experiments.runner.run_once`; the
    runner wires ``tracer``/``metrics`` into the engine, ``phase_trace``
    into the protocol processes, and calls :meth:`finish` with the run's
    identity so exports are self-contained.
    """

    tracer: Tracer | None = field(default_factory=Tracer)
    metrics: RoundMetrics | None = field(default_factory=RoundMetrics)
    phase_trace: PhaseTrace = field(default_factory=PhaseTrace)
    #: Opt-in wall-clock section profiler (never part of exports).
    profiler: SectionProfiler | None = None
    #: Opt-in live metrics registry: phase events stream in through a
    #: teed :class:`MetricsPhaseSink`, run totals at :meth:`finish`.
    registry: MetricsRegistry | None = None
    #: Whether the runner should put :meth:`summary` on the returned
    #: ``RunResult``; the metrics-only shape turns this off so a
    #: registry-fed run's result stays byte-identical to a plain one.
    attach_summary: bool = True
    #: Whether the protocol processes get a phase sink at all; the
    #: metrics-only shape turns this off — payload computation behind
    #: an attached sink is the dominant instrumentation cost.
    attach_phase_sink: bool = True
    # -- run identity, set by finish() ---------------------------------
    config_record: dict | None = None
    result_record: dict | None = None
    rounds: int = 0
    #: The summary's seven engine totals, read from the finished engine.
    engine_totals: dict[str, int] = field(default_factory=dict, init=False)
    #: (group_size, k) of the Grid Box Hierarchy, when the protocol has
    #: one — lets the explain query reconstruct subtree membership.
    hierarchy: tuple[int, int] | None = None
    #: member id -> grid box (full address integer), when available.
    boxes: dict[int, int] | None = None
    sanitizer_active: bool = False

    @classmethod
    def compact(cls) -> "RunTelemetry":
        """Counters-only shape: cheap to run, cheap to pickle back.

        No tracer, no per-round metrics samples and no stored phase
        events (phase counters keep counting) — exactly what a
        ``ParallelRunner`` worker should pay for a sweep that only
        wants aggregate statistics.
        """
        return cls(
            tracer=None,
            metrics=None,
            phase_trace=PhaseTrace(store_events=False),
        )

    @classmethod
    def metrics_only(cls, registry: MetricsRegistry) -> "RunTelemetry":
        """Registry-fed shape with every per-event hook detached.

        No tracer, no round metrics and no phase sink: ``engine='auto'``
        still selects the array-stepped engine and the protocol never
        computes event payloads, so this is cheap enough to leave on —
        the bench guard pins the overhead within 3% at n=8192.  The
        registry is fed once, from the final run record.
        """
        return cls(
            tracer=None,
            metrics=None,
            phase_trace=PhaseTrace(store_events=False),
            registry=registry,
            attach_summary=False,
            attach_phase_sink=False,
        )

    def phase_sink(self) -> PhaseSink | None:
        """The sink the runner wires into the protocol processes.

        ``None`` when detached (metrics-only shape); otherwise the
        :class:`PhaseTrace` alone, or a tee that also streams every
        event into the attached registry.
        """
        if not self.attach_phase_sink:
            return None
        if self.registry is None:
            return self.phase_trace
        return TeePhaseSink(
            self.phase_trace, MetricsPhaseSink(self.registry)
        )

    def profile(self, section: str) -> AbstractContextManager[None]:
        """Context manager timing ``section`` (no-op without a profiler)."""
        if self.profiler is None:
            return nullcontext()
        return self.profiler.section(section)

    def finish(
        self,
        config=None,
        result_record: dict | None = None,
        engine=None,
        assignment=None,
    ) -> None:
        """Record the finished run's identity for exports and reports.

        ``config`` is any dataclass (``RunConfig`` in practice —
        duck-typed so this package never imports ``repro.experiments``);
        ``engine`` the finished round engine, whose stats become the
        summary's round and engine totals; ``assignment`` a
        :class:`~repro.core.gridbox.GridAssignment` or ``None`` for
        protocols without a hierarchy.
        """
        import repro.sanitize as sanitize

        if config is not None:
            self.config_record = {
                key: value
                for key, value in dataclasses.asdict(config).items()
                if not callable(value)
            }
        if result_record is not None:
            self.result_record = result_record
            if self.registry is not None:
                # Pure observation: the record is already final, so the
                # feed can never change results (golden-tested).
                feed_run_record(self.registry, result_record)
                if self.metrics is not None:
                    feed_round_samples(
                        self.registry, self.metrics.samples
                    )
        if engine is not None:
            stats, wire = engine.stats, engine.network.stats
            self.rounds = stats.rounds_executed
            self.engine_totals = {
                "sends": wire.delivered_planned,
                "sends_lost": wire.dropped,
                "sends_rejected": wire.rejected_bandwidth,
                "delivers": stats.messages_delivered,
                "crashes": stats.crashes,
                "recoveries": stats.recoveries,
                "terminates": engine.terminated_count,
            }
        if assignment is not None:
            hierarchy = assignment.hierarchy
            self.hierarchy = (hierarchy.group_size, hierarchy.k)
            self.boxes = {
                member: assignment.box_of(member)
                for member in assignment.member_ids
            }
        self.sanitizer_active = sanitize.ACTIVE

    def summary(self) -> TelemetrySummary:
        """The compact picklable aggregate of this run."""
        phase = self.phase_trace
        return TelemetrySummary(
            runs=1,
            rounds=self.rounds,
            **{kind: phase.counts.get(kind, 0)
               for kind in PHASE_EVENT_KINDS},
            incomplete_finalizes=phase.incomplete_finalizes,
            phase_timeouts=tuple(sorted(phase.phase_timeouts.items())),
            phase_early=tuple(sorted(phase.phase_early.items())),
            dropped_phase_events=phase.dropped_events,
            **self.engine_totals,
            dropped_engine_events=(
                self.tracer.dropped_events
                if self.tracer is not None else 0
            ),
            sanitizer_active=self.sanitizer_active,
        )
