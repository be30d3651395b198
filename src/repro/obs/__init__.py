"""Run observability: phase tracing, telemetry, exports, profiling.

This package is a *pure consumer* of the simulation and protocol layers:
``repro/sim``, ``repro/core`` and ``repro/chaos`` never import it (lint
rule REP007), and attaching any of its collectors never changes a
run's results — telemetry draws no randomness and mutates no simulation
state, so a traced run is byte-identical to an untraced one.

Layers, bottom-up:

* :mod:`repro.obs.phase` — :class:`PhaseTrace`, the collector behind the
  protocol's ``phase_sink`` (events defined in :mod:`repro.core.observe`);
* :mod:`repro.obs.telemetry` — :class:`RunTelemetry` (one handle over
  Tracer + RoundMetrics + PhaseTrace + sanitizer outcome) and the
  picklable :class:`TelemetrySummary` that crosses ``ParallelRunner``
  worker boundaries;
* :mod:`repro.obs.export` — deterministic ``repro-trace/1`` JSONL
  export/load/validate and the shared ``repro-run/1`` result record;
* :mod:`repro.obs.report` — the phase-by-phase report and the causal
  ``explain`` query;
* :mod:`repro.obs.metrics` — the dependency-free live metrics registry
  (Counter/Gauge/Histogram, canonical ``repro-metrics/1`` snapshots)
  fed by both substrates and exposed over HTTP by
  :mod:`repro.net.exposition`;
* :mod:`repro.obs.budgets` — the per-phase round-budget report
  (``repro trace --budgets``, schema ``repro-budgets/1``);
* :mod:`repro.obs.profiling` — opt-in wall-clock section timing (the
  only place wall-clock is allowed near the simulator; REP002 keeps it
  out of ``sim``/``core``/``chaos``).

See ``docs/OBSERVABILITY.md`` and the ``repro trace`` CLI verb.
"""

from repro.obs.export import (
    RUN_SCHEMA,
    TRACE_SCHEMA,
    TraceDocument,
    iter_trace_records,
    load_trace,
    run_result_record,
    validate_trace_lines,
    write_trace,
)
from repro.obs.budgets import BudgetReport, budget_report
from repro.obs.metrics import METRICS_SCHEMA, MetricsRegistry
from repro.obs.phase import PhaseTrace
from repro.obs.profiling import SectionProfiler
from repro.obs.report import explain, render_phase_report
from repro.obs.telemetry import (
    RunTelemetry,
    TelemetrySummary,
    merge_summaries,
)

__all__ = [
    "TRACE_SCHEMA",
    "RUN_SCHEMA",
    "METRICS_SCHEMA",
    "BudgetReport",
    "MetricsRegistry",
    "budget_report",
    "PhaseTrace",
    "RunTelemetry",
    "TelemetrySummary",
    "merge_summaries",
    "SectionProfiler",
    "TraceDocument",
    "iter_trace_records",
    "write_trace",
    "load_trace",
    "validate_trace_lines",
    "run_result_record",
    "render_phase_report",
    "explain",
]
